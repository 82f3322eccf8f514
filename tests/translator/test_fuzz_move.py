"""Move-kernel fuzzing: random branch trees ending in move-control calls
must behave identically under elemental MoveContext semantics, the
generated masked status-array writes, and the compiled C walk."""
import textwrap

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import (OPP_INC, OPP_READ, Context, arg_dat, decl_dat,
                            decl_map, decl_particle_set, decl_set,
                            push_context)
from repro.core.kernel import Kernel
from repro.core.move import MoveContext, MoveLoop
from repro.core.types import MoveStatus
from repro.translator.codegen import VecMoveContext, generate

ARITY = 3


@st.composite
def leaf(draw):
    """One terminal move-control statement."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return "move.done()"
    if kind == 1:
        return "move.remove()"
    if kind == 2:
        return f"move.move_to(move.c2c[{draw(st.integers(0, ARITY - 1))}])"
    # lane-varying neighbour pick
    a = draw(st.integers(0, ARITY - 1))
    b = draw(st.integers(0, ARITY - 1))
    return (f"move.move_to(move.c2c[{a} if p[0] > "
            f"{draw(st.floats(-1, 1, allow_nan=False))!r} else {b}])")


@st.composite
def branch_tree(draw, depth=0):
    """Nested if/else where every path ends in exactly one control call,
    optionally preceded by a deposit increment."""
    lines = []
    if draw(st.booleans()):
        lines.append(f"acc[0] += p[{draw(st.integers(0, 1))}]")
    if depth < 2 and draw(st.booleans()):
        thr = draw(st.floats(-1.5, 1.5, allow_nan=False))
        comp = draw(st.sampled_from(["p[0]", "p[1]", "move.cell * 0.3"]))
        then_b = draw(branch_tree(depth=depth + 1))
        else_b = draw(branch_tree(depth=depth + 1))
        lines.append(f"if {comp} > {thr!r}:")
        lines += ["    " + ln for ln in then_b]
        lines.append("else:")
        lines += ["    " + ln for ln in else_b]
    else:
        lines.append(draw(leaf()))
    return lines


@st.composite
def move_kernels(draw):
    body = textwrap.indent("\n".join(draw(branch_tree())), "    ")
    return f"def fuzz_move(move, p, acc):\n{body}\n"


def _one_hop_walk(backend_name, kernel, cells, c2c_cells, p, acc):
    """``kernel`` as a real ``particle_move`` of exactly one hop: every
    neighbour a particle can step to is a foreign cell, where the walk
    pauses.  Returns everything the move decided."""
    n_real = c2c_cells.shape[0]
    ctx = Context(backend_name)
    with push_context(ctx):
        cset = decl_set(2 * n_real)
        parts = decl_particle_set(cset, cells.size)
        to_foreign = np.where(c2c_cells >= 0, c2c_cells + n_real, -1)
        c2c = decl_map(cset, cset, ARITY, np.vstack([to_foreign,
                                                     to_foreign]))
        p2c = decl_map(parts, cset, 1, cells.reshape(-1, 1))
        pd = decl_dat(parts, 2, np.float64, p)
        ad = decl_dat(parts, 1, np.float64, acc)
        loop = MoveLoop(kernel, "fuzz_move", parts, c2c, p2c,
                        [arg_dat(pd, OPP_READ), arg_dat(ad, OPP_INC)])
        loop.foreign_cell_mask = np.arange(2 * n_real) >= n_real
        loop.defer_removal = True
        res = ctx.backend.execute_move(loop)
        return {"p2c": p2c.p2c.copy(), "acc": ad.data.copy(),
                "removed": res.removed_indices, "hops": res.total_hops,
                "foreign": res.foreign_particles,
                "foreign_cells": res.foreign_cells}, res.extras


@settings(max_examples=50, deadline=None)
@given(src=move_kernels(), seed=st.integers(0, 2**16),
       n=st.integers(1, 30))
def test_random_move_kernels_agree(scratch_native_cache, src, seed, n):
    ns = {}
    exec(compile(src, "<fuzz-move>", "exec"), ns)
    fn = ns["fuzz_move"]
    kernel = Kernel(fn)
    kernel._source = src
    gen = generate(kernel)
    assert gen.vectorized, f"fuzzed move kernel fell back:\n{src}"
    assert gen.is_move

    rng = np.random.default_rng(seed)
    cells = rng.integers(0, 6, size=n)
    c2c_rows = rng.integers(-1, 6, size=(n, ARITY))
    p = rng.normal(size=(n, 2))
    acc = rng.normal(size=(n, 1))

    e_status = np.empty(n, dtype=np.int64)
    e_next = np.full(n, -1, dtype=np.int64)
    e_acc = acc.copy()
    for i in range(n):
        m = MoveContext()
        m.reset(int(cells[i]), c2c_rows[i], 0)
        fn(m, p[i], e_acc[i])
        e_status[i] = int(m.status)
        if m.status == MoveStatus.NEED_MOVE:
            e_next[i] = m.next_cell

    v = VecMoveContext(cells.copy(), c2c_rows.copy(), 0)
    v_acc = acc.copy()
    with np.errstate(invalid="ignore"):
        gen.fn(v, p.copy(), v_acc)
    v_next = np.where(v.status == int(MoveStatus.NEED_MOVE),
                      v.next_cell, -1)

    np.testing.assert_array_equal(v.status, e_status, err_msg=src)
    np.testing.assert_array_equal(v_next, e_next, err_msg=src)
    np.testing.assert_allclose(v_acc, e_acc, rtol=1e-12, err_msg=src)

    # the C column: a real one-hop move, on a third of the examples
    # (each is a fresh ≈ 55 ms compile; see test_fuzz.py)
    if scratch_native_cache and seed % 3 == 0:
        c2c_cells = rng.integers(-1, 6, size=(6, ARITY))
        want, _ = _one_hop_walk("seq", kernel, cells, c2c_cells, p, acc)
        got, extras = _one_hop_walk("vec", kernel, cells, c2c_cells, p, acc)
        assert "fallback" not in extras, src
        for key in want:
            np.testing.assert_array_equal(got[key], want[key],
                                          err_msg=f"{key}\n{src}")
