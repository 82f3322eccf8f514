"""Elemental kernels used by the differential conformance harness.

Each sticks to translator-supported constructs so the generated-code
backends exercise their real compiled and vectorised paths rather than
the seq fallback.

Every kernel here is *correctly* declared — the conformance harness
checks that all backends agree on clean programs.  Deliberately
mis-declared kernels for sanitizer tests live in the test suite, not
here.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "k_direct_axpy", "k_direct_write", "k_direct_inc", "k_mesh_gather",
    "k_mesh_inc", "k_p2c_gather", "k_p2c_inc", "k_p2c_inc_b",
    "k_double_deposit", "k_gbl_reduce", "k_gbl_int_minmax",
    "k_np_transcendental", "k_walk", "k_clamp_inc", "k_clamp_gather",
    "k_node_gather", "k_walk_geom",
]


def k_direct_axpy(w, out):
    """Direct RW: classic read-modify-write on particle data."""
    out[0] = out[0] + 2.5 * w[0]
    out[1] = out[1] - w[1]


def k_direct_write(w, out):
    """Direct WRITE: every component overwritten, none read."""
    out[0] = 2.0 * w[0] - 1.0
    out[1] = w[0] + w[1]


def k_direct_inc(w, g, out):
    """Direct INC scaled by a READ global."""
    out[0] += g[0] * w[0]
    out[1] += g[0] - w[1]


def k_mesh_gather(acc, na, nb):
    """Indirect READ through a mesh map feeding a direct RW."""
    acc[0] = acc[0] + 0.5 * na[0] + 0.25 * na[1] - nb[0]


def k_mesh_inc(src, na):
    """Indirect INC through a mesh map (mesh-loop deposition)."""
    na[0] += 0.25 * src[0]
    na[1] += -0.125 * src[0]


def k_p2c_gather(c, out):
    """Particle-indirect READ: gather from the particle's cell."""
    out[0] = out[0] + 0.1 * c[0]
    out[1] = out[1] * 0.5 + c[0]


def k_p2c_inc(w, acc):
    """Particle-indirect INC: scatter-add into the particle's cell."""
    acc[0] += w[0] * w[1]


def k_p2c_inc_b(w, acc):
    """Second-species scatter-add into the *same* cell dat as
    :func:`k_p2c_inc` — the multi-species shared-deposit pattern (two
    particle sets, one accumulator)."""
    acc[0] += 0.5 * w[0] - w[1]


def k_double_deposit(w, na, nb):
    """Double-indirect INC — the charge-deposition pattern."""
    na[0] += w[0]
    na[1] += 0.5 * w[0]
    nb[0] += w[1]


def k_gbl_reduce(w, s, mn, mx):
    """Global INC + MIN + MAX reductions in one loop."""
    s[0] += w[0]
    mn[0] = min(mn[0], w[0])
    mx[0] = max(mx[0], w[1])


def k_gbl_int_minmax(pid, mn, mx):
    """Integer global MIN + MAX: a reduction identity must come from the
    global's own dtype (an ``inf`` seed cast to int64 is INT64_MIN)."""
    mn[0] = min(mn[0], pid[0])
    mx[0] = max(mx[0], pid[0] - 3)


def k_np_transcendental(w, out):
    """Transcendentals spelled ``np.*``: elementally these call NumPy's
    own routines, which round differently from the libm functions the C
    target (and ``math.*``) use — the one op held to a tolerance there."""
    out[0] = out[0] + np.exp(-abs(w[0]))
    out[1] = out[1] * 0.5 + np.log(abs(w[1]) + 1.5)


def k_clamp_inc(w, left, right):
    """Double-indirect INC into the particle's cell *neighbours* (via a
    clamp-neighbour cell map composed with p2c) — on a partitioned chain
    the neighbour of a boundary-owned cell is a halo cell, so this is
    the op that genuinely exercises the ghost→owner cell reduction."""
    left[0] += w[0]
    right[0] += 0.5 * w[1]


def k_clamp_gather(left, right, out):
    """Double-indirect READ of both clamp neighbours — needs valid
    ghost-cell values, i.e. an owner→ghost push beforehand."""
    out[0] = out[0] + 0.3 * left[0]
    out[1] = out[1] - 0.25 * right[0]


def k_node_gather(na, out):
    """Particle-indirect node READ through c2n∘p2c — needs pushed node
    ghosts."""
    out[0] = out[0] + 0.2 * na[0]
    out[1] = out[1] + na[1]


def k_walk(move, p, hits):
    """1-D multi-hop walk with per-hop integer deposition and removal.

    Cell ``i`` spans ``[i, i+1)``; a particle walks left/right until its
    position is inside the current cell, incrementing each visited
    cell's hit counter, and is removed when it walks off either end
    (the chain c2c map has ``-1`` beyond the boundary cells).
    """
    hits[0] += 1
    lo = move.cell * 1.0
    if p[0] < lo:
        move.move_to(move.c2c[0])
    elif p[0] >= lo + 1.0:
        move.move_to(move.c2c[1])
    else:
        move.done()


def k_walk_geom(move, p, lo, hits):
    """Chain walk with the cell span read from a geometry dat.

    Identical to :func:`k_walk` on an unpartitioned chain, but usable on
    a partitioned one: local cell ids differ from global ids there, so
    the span must come from mesh data (gathered through p2c each hop),
    not from ``move.cell``.
    """
    hits[0] += 1
    if p[0] < lo[0]:
        move.move_to(move.c2c[0])
    elif p[0] >= lo[0] + 1.0:
        move.move_to(move.c2c[1])
    else:
        move.done()
