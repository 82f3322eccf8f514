"""The C codegen target: generated loops are ``seq``'s algorithm compiled,
so every check here is bit-equality with the ``seq`` backend on the same
declaration — operators with Python's meaning, in-place access modes,
NumPy row wrapping, the per-particle walk — plus the launcher's rules
(constants from a table, declines recorded, errors named)."""
import math
from math import ceil, floor

import numpy as np
import pytest

from repro.core.api import (CONST, OPP_INC, OPP_ITERATE_ALL, OPP_MAX,
                            OPP_MIN, OPP_READ, OPP_RW, OPP_WRITE, Context,
                            arg_dat, arg_gbl, decl_const, decl_dat,
                            decl_global, decl_map, decl_particle_set,
                            decl_set, par_loop, particle_move, push_context)
from repro.core.kernel import Kernel
from repro.core.move import MoveLoop
from repro.translator import native

pytestmark = pytest.mark.skipif(native.compiler() is None,
                                reason="no C compiler")

SCALE = 0.1 + 0.2           # a module-level name: emitted as a hex literal
STRIDE = 3


def operators_kernel(x, k, out):
    out[0] = x[0] % x[1] + k[0] % STRIDE - (k[0] % -4)
    out[1] = x[0] // x[1] + k[0] // STRIDE - (k[0] // -2)
    out[2] = int(x[0] * 10.0) + int(x[1])
    out[3] = min(x[0], x[1], 0.25) - max(x[1], x[0], -0.5)
    out[4] = abs(x[0]) ** 1.5 + x[1] ** 2 + k[0] ** 2
    out[5] = floor(x[0]) + ceil(x[1]) + abs(k[0])
    out[6] = SCALE if (x[0] > 0.0 and not x[1] > 0.0) or k[0] == 2 \
        else x[0] / 3
    out[7] = k[0] / 2 + math.exp(-abs(x[0])) + math.sqrt(abs(x[1])) \
        + math.sin(x[0]) * math.cos(x[1]) + math.log(abs(x[0]) + 1.0)
    hot = x[0] > x[1]
    out[8] = float(hot) + (1 if -1.0 < x[0] < 1.0 else 0)


def typed_locals_kernel(x, k, out):
    which = 0 if x[0] <= x[1] else 1        # an index: must stay int64
    best = x[which]
    twice = k[0] * 2
    if twice > 4:
        twice = twice - 1
    out[0] = best + x[twice % 2]
    out[1] = twice


def _run(backend, kernel, n=57, seed=3):
    rng = np.random.default_rng(seed)
    ctx = Context(backend)
    with push_context(ctx):
        rows = decl_set(n)
        x = decl_dat(rows, 2, np.float64, rng.normal(size=(n, 2)) * 3.0)
        k = decl_dat(rows, 1, np.int64, rng.integers(-9, 10, size=n))
        out = decl_dat(rows, 9, np.float64, rng.normal(size=(n, 9)))
        par_loop(kernel, "ops", rows, OPP_ITERATE_ALL,
                 arg_dat(x, OPP_READ), arg_dat(k, OPP_READ),
                 arg_dat(out, OPP_RW))
        return out.data.copy(), ctx.perf.get("ops").extras


@pytest.mark.parametrize("kernel", [operators_kernel, typed_locals_kernel])
def test_operators_keep_pythons_meaning(kernel):
    want, _ = _run("seq", kernel)
    got, extras = _run("vec", kernel)
    assert "fallback" not in extras and extras["strategy"] == "in_place"
    np.testing.assert_array_equal(got, want)


def test_generated_c_source_is_inspectable():
    ck = Kernel(operators_kernel).generated("c")
    assert ck.reason is None
    src = ck.source
    assert "mod_d(" in src and "floordiv_d(" in src and "min_d(" in src
    assert "out_[8] =" in src
    assert SCALE.hex() in src           # module constant, bit-exact
    assert "fmin" not in src


def test_unknown_codegen_target_is_refused():
    kernel = Kernel(operators_kernel)
    with pytest.raises(ValueError, match=r"known targets: \('vec', 'c'\)"):
        kernel.generated("cuda")
    assert set(kernel._generated) == set()
    assert kernel.generated("vec").vectorized


# -- constants come from a table, never from the source --------------------------


def scaled_kernel(x, out):
    out[0] = CONST.gain * x[0] + CONST.offset


def test_one_shared_object_serves_every_configuration():
    results = []
    for gain in (2.0, -0.75):
        ctx = Context("vec")
        with push_context(ctx):
            decl_const("gain", gain)
            decl_const("offset", 1)             # an int constant
            rows = decl_set(5)
            x = decl_dat(rows, 1, np.float64, np.arange(5.0))
            out = decl_dat(rows, 1, np.float64)
            par_loop(scaled_kernel, "scaled", rows, OPP_ITERATE_ALL,
                     arg_dat(x, OPP_READ), arg_dat(out, OPP_WRITE))
            results.append(out.data[:, 0].copy())
            assert "fallback" not in ctx.perf.get("scaled").extras
    np.testing.assert_array_equal(results[0], 2.0 * np.arange(5.0) + 1)
    np.testing.assert_array_equal(results[1], -0.75 * np.arange(5.0) + 1)
    launchers = Kernel(scaled_kernel).generated("c")  # a fresh record …
    assert launchers.consts == ("gain", "offset")
    # … while the app-level kernel built exactly one launcher for both
    assert len(scaled_kernel.__opp_kernel__.generated("c").launchers) == 1


# -- declines ----------------------------------------------------------------------

LOOKUP = {"a": 1.0}


def untranslatable_free_name_kernel(x, out):
    out[0] = x[0] * LOOKUP


def int_pow_kernel(k, out):
    out[0] = k[0] ** k[0]


def bool_dat_kernel(flag, out):
    out[0] = 1.0 if flag[0] else 2.0


def test_declined_loops_run_on_numpy_with_the_reason_recorded():
    ctx = Context("vec")
    with push_context(ctx):
        rows = decl_set(4)
        k = decl_dat(rows, 1, np.int64, [0, 1, 2, 3])
        flag = decl_dat(rows, 1, np.bool_, [True, False, True, False])
        out = decl_dat(rows, 1, np.float64)
        par_loop(int_pow_kernel, "int_pow", rows, OPP_ITERATE_ALL,
                 arg_dat(k, OPP_READ), arg_dat(out, OPP_WRITE))
        np.testing.assert_array_equal(out.data[:, 0], [1, 1, 4, 27])
        par_loop(bool_dat_kernel, "bool_dat", rows, OPP_ITERATE_ALL,
                 arg_dat(flag, OPP_READ), arg_dat(out, OPP_WRITE))
        np.testing.assert_array_equal(out.data[:, 0], [1, 2, 1, 2])
    assert "literal exponent" in ctx.perf.get("int_pow").extras["fallback"]
    assert "dtype bool" in ctx.perf.get("bool_dat").extras["fallback"]
    with pytest.raises(Exception):      # no target can run this kernel …
        with push_context(Context("vec")):
            rows = decl_set(2)
            par_loop(untranslatable_free_name_kernel, "bad", rows,
                     OPP_ITERATE_ALL,
                     arg_dat(decl_dat(rows, 1, np.float64), OPP_READ),
                     arg_dat(decl_dat(rows, 1, np.float64), OPP_WRITE))
    # … and the C target said why before NumPy tried
    memo = untranslatable_free_name_kernel.__opp_kernel__.generated("c")
    assert any("no C literal" in r for r in memo.launchers.values())


def test_forced_strategies_and_subclasses_keep_the_numpy_target():
    for backend, options in (("vec", {"strategy": "segmented_reduction"}),
                             ("vec", {"check_unique_writes": True}),
                             ("omp", {})):
        ctx = Context(backend, **options)
        with push_context(ctx):
            rows = decl_set(3)
            x = decl_dat(rows, 1, np.float64, [1.0, 2.0, 3.0])
            out = decl_dat(rows, 1, np.float64)
            decl_const("gain", 1.0)
            decl_const("offset", 0.0)
            par_loop(scaled_kernel, "scaled", rows, OPP_ITERATE_ALL,
                     arg_dat(x, OPP_READ), arg_dat(out, OPP_WRITE))
        extras = ctx.perf.get("scaled").extras
        assert extras["strategy"] != "in_place"
        assert ("fallback" in extras) == (backend == "vec")


# -- in-place access modes, NumPy row wrapping ------------------------------------


def partial_write_kernel(x, out, total, lo, hi):
    out[0] = x[0]                   # component 1 is never stored
    total[0] += x[0]
    lo[0] = min(lo[0], x[0])
    hi[0] = max(hi[0], x[0])


def gather_inc_kernel(w, cell, na, nb):
    na[0] += w[0] * cell[0]
    nb[0] += 1


def _mesh_world(backend):
    rng = np.random.default_rng(11)
    ctx = Context(backend)
    with push_context(ctx):
        cells, nodes = decl_set(5), decl_set(4)
        parts = decl_particle_set(cells, 40)
        c2n = decl_map(cells, nodes, 2, rng.integers(-1, 4, size=(5, 2)))
        # dead (-1) rows address the *last* cell, as seq's indexing does
        p2c = decl_map(parts, cells, 1, rng.integers(-1, 5, size=(40, 1)))
        w = decl_dat(parts, 1, np.float64, rng.normal(size=40))
        cd = decl_dat(cells, 1, np.float64, rng.normal(size=5))
        na = decl_dat(nodes, 1, np.float64)
        hits = decl_dat(nodes, 1, np.int64)
        out = decl_dat(parts, 2, np.float64, np.full((40, 2), 7.0))
        gl = [decl_global(1, np.float64, [v]) for v in (0.5, 9.0, -9.0)]
        par_loop(gather_inc_kernel, "gather_inc", parts, OPP_ITERATE_ALL,
                 arg_dat(w, OPP_READ), arg_dat(cd, p2c, OPP_READ),
                 arg_dat(na, 0, c2n, p2c, OPP_INC),
                 arg_dat(hits, 1, c2n, p2c, OPP_INC))
        par_loop(partial_write_kernel, "partial_write", parts,
                 OPP_ITERATE_ALL, arg_dat(w, OPP_READ),
                 arg_dat(out, OPP_WRITE), arg_gbl(gl[0], OPP_INC),
                 arg_gbl(gl[1], OPP_MIN), arg_gbl(gl[2], OPP_MAX))
        state = {"na": na.data.copy(), "hits": hits.data.copy(),
                 "out": out.data.copy(),
                 "globals": np.array([g.data[0] for g in gl])}
        return state, ctx.perf


def test_access_modes_commit_in_place_in_iteration_order():
    want, _ = _mesh_world("seq")
    got, perf = _mesh_world("vec")
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)
    assert (got["out"][:, 1] == 7.0).all()      # WRITE is not a zero-fill
    row = perf.get("gather_inc")
    assert "fallback" not in row.extras
    assert row.max_collisions >= got["hits"].max() > 1


def test_out_of_range_row_is_an_index_error_not_a_crash():
    with push_context(Context("vec")):
        cells = decl_set(3)
        parts = decl_particle_set(cells, 4)
        p2c = decl_map(parts, cells, 1, [[0], [1], [2], [0]])
        p2c.p2c[2] = 17                  # corrupted behind the API's back
        w = decl_dat(parts, 1, np.float64, np.ones(4))
        cd = decl_dat(cells, 1, np.float64)
        with pytest.raises(IndexError, match="'scatter'.*iteration 2"):
            par_loop(scatter_kernel, "scatter", parts, OPP_ITERATE_ALL,
                     arg_dat(w, OPP_READ), arg_dat(cd, p2c, OPP_INC))


def scatter_kernel(w, acc):
    acc[0] += w[0]


# -- the per-particle walk -----------------------------------------------------------


def walk_kernel(move, pos, seg, visits):
    visits[0] += 1
    seg[0] = 0.5 * (move.hop + 1)
    lo = move.cell * 1.0
    if pos[0] < lo:
        move.move_to(move.c2c[0])
    elif pos[0] >= lo + 1.0:
        move.move_to(move.c2c[1])
    else:
        move.done()


def walk_deposit_done(move, pos, seg, visits, acc):
    """:func:`walk_kernel` that deposits ``seg`` in the cell it settles
    in: a move fused with its deposit by the app, in one kernel."""
    visits[0] += 1
    seg[0] = 0.5 * (move.hop + 1)
    lo = move.cell * 1.0
    if pos[0] < lo:
        move.move_to(move.c2c[0])
    elif pos[0] >= lo + 1.0:
        move.move_to(move.c2c[1])
    else:
        move.done()
        acc[0] += seg[0]


def walk_deposit_hop(move, pos, seg, visits, acc):
    """:func:`walk_kernel` that deposits ``seg`` in every cell it
    crosses, as CabanaPIC's ``Move_Deposit`` does its current."""
    visits[0] += 1
    seg[0] = 0.5 * (move.hop + 1)
    acc[0] += seg[0]
    lo = move.cell * 1.0
    if pos[0] < lo:
        move.move_to(move.c2c[0])
    elif pos[0] >= lo + 1.0:
        move.move_to(move.c2c[1])
    else:
        move.done()


def _walk(backend, when, foreign=False, max_hops=50, only=None):
    rng = np.random.default_rng(5)
    n_cells, n = 8, 60
    ctx = Context(backend)
    with push_context(ctx):
        cells = decl_set(n_cells)
        parts = decl_particle_set(cells, n)
        chain = [[i - 1, i + 1 if i + 1 < n_cells else -1]
                 for i in range(n_cells)]
        c2c = decl_map(cells, cells, 2, chain)
        start = rng.integers(-1, n_cells, size=(n, 1))   # -1: dead rows
        p2c = decl_map(parts, cells, 1, start)
        pos = decl_dat(parts, 1, np.float64,
                       rng.uniform(-1.5, n_cells + 1.5, size=n))
        seg = decl_dat(parts, 1, np.float64)
        visits = decl_dat(cells, 1, np.int64)
        acc = decl_dat(cells, 1, np.float64)
        kernel = {"done": walk_deposit_done, "hop": walk_deposit_hop}[when]
        loop = MoveLoop(kernel, "walk", parts, c2c, p2c,
                        [arg_dat(pos, OPP_READ), arg_dat(seg, OPP_WRITE),
                         arg_dat(visits, p2c, OPP_INC),
                         arg_dat(acc, p2c, OPP_INC)],
                        max_hops=max_hops, only_indices=only)
        loop.defer_removal = True
        if foreign:
            loop.foreign_cell_mask = np.arange(n_cells) >= 6
        res = ctx.backend.execute_move(loop)
        return {"p2c": p2c.p2c.copy(), "seg": seg.data.copy(),
                "visits": visits.data.copy(), "acc": acc.data.copy(),
                "removed": res.removed_indices,
                "foreign": res.foreign_particles,
                "foreign_cells": res.foreign_cells,
                "hops": res.total_hops}, res


@pytest.mark.parametrize("when", ["done", "hop"])
@pytest.mark.parametrize("foreign", [False, True])
@pytest.mark.parametrize("only", [None, [7, 3, 3, 59, 0]])
def test_move_matches_seq_bit_for_bit(when, foreign, only):
    """A walk that deposits on settling or every hop, with foreign
    cells, deferred removal and ``only_indices``."""
    want, _ = _walk("seq", when, foreign, only=only)
    got, res = _walk("vec", when, foreign, only=only)
    assert "fallback" not in res.extras
    if only is None:            # the scenario has every outcome in it
        assert want["removed"].size
        assert not foreign or want["foreign"].size
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)
    # counted over the whole walk: an upper bound of the per-hop depth
    assert res.max_collisions >= 1


def test_move_over_max_hops_raises_the_drivers_error():
    with pytest.raises(RuntimeError,
                       match=r"\d+ particles exceeded 2 hops in move loop "
                             "'walk'"):
        _walk("vec", "done", max_hops=2)


def test_particle_move_api_removes_and_fills_holes_like_seq():
    sizes = []
    for backend in ("seq", "vec"):
        with push_context(Context(backend)):
            cells = decl_set(4)
            parts = decl_particle_set(cells, 30)
            c2c = decl_map(cells, cells, 2,
                           [[-1, 1], [0, 2], [1, 3], [2, -1]])
            p2c = decl_map(parts, cells, 1, np.arange(30).reshape(-1, 1) % 4)
            pos = decl_dat(parts, 1, np.float64, np.linspace(-2.0, 6.0, 30))
            seg = decl_dat(parts, 1, np.float64)
            visits = decl_dat(cells, 1, np.int64)
            res = particle_move(walk_kernel, "walk", parts, c2c, p2c,
                                arg_dat(pos, OPP_READ),
                                arg_dat(seg, OPP_WRITE),
                                arg_dat(visits, p2c, OPP_INC))
            sizes.append((parts.size, res.n_removed, res.total_hops,
                          tuple(pos.data[:parts.size, 0]),
                          tuple(p2c.p2c[:parts.size])))
    assert sizes[0] == sizes[1] and sizes[0][1] > 0


# -- collision depth of doubly-indirect increments ------------------------------------


def count_kernel(h0, h1, h2, h3):
    h0[0] += 1
    h1[0] += 1
    h2[0] += 1
    h3[0] += 1


def walk_count_kernel(move, pos, h0, h1, h2, h3):
    h0[0] += 1
    h1[0] += 1
    h2[0] += 1
    h3[0] += 1
    lo = move.cell * 1.0
    if pos[0] < lo:
        move.move_to(move.c2c[0])
    elif pos[0] >= lo + 1.0:
        move.move_to(move.c2c[1])
    else:
        move.done()


def _count_world(shared, rng):
    """Cells, nodes and particles whose ``c2n`` and ``p2c`` hold
    negative (wrapping) entries, and four node counters (one dat four
    times when ``shared``, as FemPIC's deposit names ``node_charge``)."""
    n_cells, n_nodes, n = 9, 7, 300
    cells, nodes = decl_set(n_cells), decl_set(n_nodes)
    parts = decl_particle_set(cells, n)
    c2n_v = rng.integers(-n_nodes, n_nodes, size=(n_cells, 4))
    p2c_v = rng.integers(-n_cells, n_cells, size=(n, 1))
    c2n = decl_map(cells, nodes, 4, np.zeros_like(c2n_v))
    p2c = decl_map(parts, cells, 1, np.zeros_like(p2c_v))
    c2n.values[:] = c2n_v       # below -1: behind the API's back
    p2c.p2c[:] = p2c_v[:, 0]
    dats = ([decl_dat(nodes, 1, np.int64)] * 4 if shared
            else [decl_dat(nodes, 1, np.int64) for _ in range(4)])
    args = [arg_dat(d, k, c2n, p2c, OPP_INC) for k, d in enumerate(dats)]
    return cells, parts, c2n_v, p2c_v, dats, args


@pytest.mark.parametrize("shared", [False, True])
def test_deposit_collisions_counted_per_cell_equal_the_per_row_count(shared):
    """The generated loop counts a doubly-indirect increment once per
    particle per cell and expands the counts through each argument's map
    afterwards; the depth must be the per-row count of every argument."""
    rng = np.random.default_rng(23)
    ctx = Context("vec")
    with push_context(ctx):
        cells, parts, c2n_v, p2c_v, dats, args = _count_world(shared, rng)
        par_loop(count_kernel, "count", parts, OPP_ITERATE_ALL, *args)
    row = ctx.perf.get("count")
    assert row.extras["strategy"] == "in_place"
    n_cells, n_nodes = c2n_v.shape[0], dats[0].set.size
    cell = p2c_v[:, 0] % n_cells            # one wrap, as ROW does
    per_row = [np.bincount(c2n_v[cell, k] % n_nodes, minlength=n_nodes)
               for k in range(4)]
    assert row.max_collisions == max(c.max() for c in per_row) > 1
    if not shared:
        for dat, counts in zip(dats, per_row):
            np.testing.assert_array_equal(dat.data[:, 0], counts)


def test_walk_collisions_counted_per_cell_equal_the_per_row_count():
    """In a move the count is per hop, in the hop's cell: each counter
    dat below ends up holding exactly its argument's per-row count."""
    rng = np.random.default_rng(29)
    ctx = Context("vec")
    with push_context(ctx):
        cells, parts, _c2n_v, _p2c_v, dats, args = _count_world(False, rng)
        n_cells = cells.size
        chain = [[i - 1, i + 1 if i + 1 < n_cells else -1]
                 for i in range(n_cells)]
        c2c = decl_map(cells, cells, 2, chain)
        pos = decl_dat(parts, 1, np.float64,
                       rng.uniform(-1.5, n_cells + 1.5, size=parts.size))
        p2c = args[0].p2c
        res = particle_move(walk_count_kernel, "walk_count", parts, c2c, p2c,
                            arg_dat(pos, OPP_READ), *args)
    assert "fallback" not in res.extras and res.total_hops
    assert res.max_collisions == max(int(d.data.max()) for d in dats) > 1
