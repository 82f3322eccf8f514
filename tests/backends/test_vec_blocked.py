"""Blocked stage → kernel → commit pipeline (``repro.backends.blocked``).

Every scenario runs twice — as one block and strip-mined into blocks of
7 lanes — and the two must agree: integer-valued data bit-equal, floats
within rtol 1e-9 (several INC arguments on one dat, and the per-call
strategies, regroup their sums per block).  Whole-loop properties
(collision depth, hop totals, foreign/removed lists, order dirtiness,
``check_unique_writes``) must be exactly the one-block ones.
"""
import numpy as np
import pytest

import repro.backends.blocked as blocked
from repro.backends import make_backend
from repro.core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_ITERATE_INJECTED,
                            OPP_READ, OPP_WRITE, Context, arg_dat,
                            decl_dat, decl_map, decl_particle_set, decl_set,
                            par_loop, push_context)
from repro.core.move import MoveLoop, execute_moveloop
from repro.verify import kernels as K
from repro.verify.conformance import (OP_NAMES, _build_world,
                                      _conformance_backend, compare_states,
                                      generate_case, run_case,
                                      run_conformance)

pytestmark = pytest.mark.usefixtures("numpy_target")


SMALL = 7               # odd, so block edges align with nothing structural
ONE_BLOCK = 1 << 40


def one_and_small(monkeypatch, scenario):
    """``scenario()`` under the one-block and the small-block pipeline."""
    results = []
    for block in (ONE_BLOCK, SMALL):
        monkeypatch.setattr(blocked, "BLOCK", block)
        results.append(scenario())
    return results


def assert_same(one: dict, small: dict, exact: bool = False):
    assert one.keys() == small.keys()
    for key, want in one.items():
        got = small[key]
        if isinstance(want, np.ndarray) and want.dtype.kind == "f" \
                and not exact:
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12,
                                       err_msg=key)
        elif isinstance(want, np.ndarray):
            np.testing.assert_array_equal(got, want, err_msg=key)
        else:
            assert got == want, key


# -- par_loops: the conformance op catalog -----------------------------------------


@pytest.mark.parametrize("backend_name", ["vec", "omp"])
@pytest.mark.parametrize("op", OP_NAMES)
def test_op_matches_one_block(monkeypatch, backend_name, op):
    """direct / mesh-indirect / P2C / double-indirect READ·WRITE·RW·INC,
    global reductions and the multi-hop move, 61 lanes = 9 blocks."""
    case = generate_case(3).replace(n_parts=61, program=(op, "move", op))
    one, small = one_and_small(
        monkeypatch,
        lambda: run_case(case, _conformance_backend(backend_name)))
    assert compare_states(one, small, rtol=1e-9, atol=1e-12) == []
    for key in ("g_sum", "g_min", "g_max"):     # one whole-range buffer
        np.testing.assert_array_equal(small[key], one[key])


@pytest.mark.parametrize("n_parts", [1, SMALL, 2 * SMALL, 2 * SMALL + 1])
def test_block_edges(monkeypatch, n_parts):
    case = generate_case(5).replace(
        n_parts=n_parts, program=("direct_axpy", "p2c_gather",
                                  "double_deposit", "gbl_reduce"))
    one, small = one_and_small(
        monkeypatch, lambda: run_case(case, make_backend("vec")))
    assert compare_states(one, small, rtol=1e-9, atol=1e-12) == []


def test_integer_valued_data_is_bit_equal(monkeypatch):
    """Dyadic inputs make every sum exact, so regrouping cannot show."""
    program = ("direct_axpy", "direct_inc", "mesh_inc", "mesh_gather",
               "p2c_inc", "double_deposit", "p2c_gather", "gbl_reduce")
    case = generate_case(8).replace(n_parts=61, program=program)

    def scenario():
        from repro.verify.conformance import OPS, _snapshot
        backend = make_backend("vec")
        ctx = Context("seq")
        ctx.backend, ctx.backend_name = backend, "vec"
        rng = np.random.default_rng(0)
        with push_context(ctx):
            w = _build_world(case)
            for name in ("w", "cell_src", "node_a", "node_b"):
                dat = w[name].data
                dat[:] = rng.integers(-8, 9, size=dat.shape)
            for op in program:
                OPS[op](w)
            return _snapshot(w)

    one, small = one_and_small(monkeypatch, scenario)
    assert_same(one, small, exact=True)


# -- par_loops: windows, collisions, the duplicate-write check ---------------------


def _small_world(n_cells=12, n_nodes=9, n_parts=40, seed=11):
    rng = np.random.default_rng(seed)
    cells = decl_set(n_cells, "cells")
    nodes = decl_set(n_nodes, "nodes")
    parts = decl_particle_set(cells, n_parts, "parts")
    chain = [[i - 1 if i > 0 else -1, i + 1 if i + 1 < n_cells else -1]
             for i in range(n_cells)]
    return {
        "rng": rng, "cells": cells, "nodes": nodes, "parts": parts,
        "c2n": decl_map(cells, nodes, 2,
                        rng.integers(0, n_nodes, size=(n_cells, 2)), "c2n"),
        "c2c": decl_map(cells, cells, 2, chain, "c2c"),
        "p2c": decl_map(parts, cells, 1,
                        rng.integers(0, n_cells, size=(n_parts, 1)), "p2c"),
        "pos": decl_dat(parts, 1, np.float64,
                        rng.uniform(-2.0, n_cells + 2.0, size=n_parts),
                        "pos"),
        "w": decl_dat(parts, 2, np.float64,
                      rng.normal(size=(n_parts, 2)), "w"),
        "out": decl_dat(parts, 2, np.float64, None, "out"),
        "pid": decl_dat(parts, 1, np.int64, np.arange(n_parts), "pid"),
        "cell_acc": decl_dat(cells, 1, np.float64, None, "cell_acc"),
        "cell_hits": decl_dat(cells, 1, np.int64, None, "cell_hits"),
        "node_a": decl_dat(nodes, 2, np.float64, None, "node_a"),
        "node_b": decl_dat(nodes, 1, np.float64, None, "node_b"),
    }


def test_injected_window_loops(monkeypatch):
    """An OPP_ITERATE_INJECTED range starts mid-set: blocks are offset
    by ``injected_start``, direct writes must stay inside the window."""
    def scenario():
        ctx = Context("vec")
        with push_context(ctx):
            w = _small_world()
            parts = w["parts"]
            parts.begin_injection()
            parts.add_particles(
                23, cell_indices=w["rng"].integers(0, 12, size=23))
            w["w"].data[40:] = w["rng"].normal(size=(23, 2))
            par_loop(K.k_direct_write, "inj_write", parts,
                     OPP_ITERATE_INJECTED,
                     arg_dat(w["w"], OPP_READ), arg_dat(w["out"], OPP_WRITE))
            par_loop(K.k_double_deposit, "inj_deposit", parts,
                     OPP_ITERATE_INJECTED, arg_dat(w["w"], OPP_READ),
                     arg_dat(w["node_a"], 0, w["c2n"], w["p2c"], OPP_INC),
                     arg_dat(w["node_b"], 1, w["c2n"], w["p2c"], OPP_INC))
            return {"out": w["out"].data.copy(),
                    "node_a": w["node_a"].data.copy(),
                    "node_b": w["node_b"].data.copy(),
                    "collisions":
                        ctx.perf.loops["inj_deposit"].max_collisions}

    one, small = one_and_small(monkeypatch, scenario)
    assert_same(one, small)
    assert not one["out"][:40].any() and one["out"][40:].any()


def test_collisions_are_whole_loop_not_per_block(monkeypatch):
    """Every 7th particle sits in cell 0: one hit per block, nine over
    the loop — the perf row must say nine."""
    def scenario():
        ctx = Context("vec")
        with push_context(ctx):
            w = _small_world(n_parts=63)
            w["p2c"].p2c[:] = 1 + np.arange(63) % 7
            w["p2c"].p2c[::7] = 0
            par_loop(K.k_p2c_inc, "dep", w["parts"], OPP_ITERATE_ALL,
                     arg_dat(w["w"], OPP_READ),
                     arg_dat(w["cell_acc"], w["p2c"], OPP_INC))
            return ctx.perf.loops["dep"].max_collisions

    one, small = one_and_small(monkeypatch, scenario)
    assert one == small == 9


def k_indirect_write(src, dst):
    dst[0] = src[0] + 1.0


def test_unique_write_check_sees_duplicate_across_blocks(monkeypatch):
    """Rows 3 and 10 (different blocks) write the same target: the check
    inspects the whole loop before the first block commits anything."""
    monkeypatch.setattr(blocked, "BLOCK", SMALL)
    with push_context(Context("vec", check_unique_writes=True)):
        cells = decl_set(20, "cells")
        faces = decl_set(20, "faces")
        perm = np.random.default_rng(2).permutation(20)
        src = decl_dat(cells, 1, np.float64, np.arange(20.0), "src")
        dst = decl_dat(faces, 1, np.float64, None, "dst")
        c2f = decl_map(cells, faces, 1, perm, "c2f")
        par_loop(k_indirect_write, "perm_ok", cells, OPP_ITERATE_ALL,
                 arg_dat(src, OPP_READ), arg_dat(dst, 0, c2f, OPP_WRITE))
        assert np.array_equal(dst.data[perm, 0], np.arange(20.0) + 1.0)

        dup = perm.copy()
        dup[10] = dup[3]
        c2f_dup = decl_map(cells, faces, 1, dup, "c2f_dup")
        dst.data[:] = 0.0
        with pytest.raises(RuntimeError, match="nonunique-write"):
            par_loop(k_indirect_write, "perm_dup", cells, OPP_ITERATE_ALL,
                     arg_dat(src, OPP_READ),
                     arg_dat(dst, 0, c2f_dup, OPP_WRITE))
        assert not dst.data.any()


# -- particle moves -----------------------------------------------------------------


def k_walk_deposit_hop(move, p, hits, w, na, nb):
    """:func:`~repro.verify.kernels.k_walk` that also deposits its
    weight to both nodes of every cell it crosses (the app-written
    fused move, as CabanaPIC's ``Move_Deposit``)."""
    hits[0] += 1
    na[0] += w[0]
    nb[0] += w[0]
    lo = move.cell * 1.0
    if p[0] < lo:
        move.move_to(move.c2c[0])
    elif p[0] >= lo + 1.0:
        move.move_to(move.c2c[1])
    else:
        move.done()


def k_walk_deposit_done(move, p, hits, w, na, nb):
    """:func:`~repro.verify.kernels.k_walk` that deposits its weight to
    the nodes of the cell it settles in."""
    hits[0] += 1
    lo = move.cell * 1.0
    if p[0] < lo:
        move.move_to(move.c2c[0])
    elif p[0] >= lo + 1.0:
        move.move_to(move.c2c[1])
    else:
        move.done()
        na[0] += w[0]
        nb[0] += w[0]


def _move_scenario(*, deposit_when=None, foreign=False, only=False,
                   defer=False, max_hops=1000):
    """Chain walk of 40 particles (some walk off either end), run
    through a hand-built MoveLoop so every runtime option is reachable.
    ``deposit_when`` picks a move kernel that also deposits, on settling
    (``"done"``) or every hop (``"hop"``)."""
    ctx = Context("vec")
    with push_context(ctx):
        w = _small_world()
        parts = w["parts"]
        kernel, args = K.k_walk, [arg_dat(w["pos"], OPP_READ),
                                  arg_dat(w["cell_hits"], w["p2c"], OPP_INC)]
        if deposit_when is not None:
            kernel = {"done": k_walk_deposit_done,
                      "hop": k_walk_deposit_hop}[deposit_when]
            args += [arg_dat(w["w"], OPP_READ),
                     arg_dat(w["node_a"], 0, w["c2n"], w["p2c"], OPP_INC),
                     arg_dat(w["node_b"], 1, w["c2n"], w["p2c"], OPP_INC)]
        loop = MoveLoop(
            kernel, "walk", parts, w["c2c"], w["p2c"], args,
            max_hops=max_hops,
            only_indices=np.arange(1, 40, 2) if only else None)
        if foreign:
            mask = np.zeros(12, dtype=bool)
            mask[8:] = True
            loop.foreign_cell_mask = mask
        loop.defer_removal = defer
        res = execute_moveloop(loop, ctx)
        n = parts.size
        by_pid = np.argsort(w["pid"].data[:n, 0], kind="stable")
        return {
            "total_hops": res.total_hops, "n_removed": res.n_removed,
            "max_collisions": res.max_collisions,
            "row_collisions": ctx.perf.loops["walk"].max_collisions,
            "foreign_particles": res.foreign_particles,
            "foreign_cells": res.foreign_cells,
            "removed_indices": res.removed_indices,
            "size": n, "pid": w["pid"].data[by_pid, 0].copy(),
            "p2c": w["p2c"].p2c[:n][by_pid].copy(),
            "cell_hits": w["cell_hits"].data.copy(),
            "node_a": w["node_a"].data.copy(),
            "node_b": w["node_b"].data.copy(),
        }


@pytest.mark.parametrize("options", [
    {},
    {"defer": True},
    {"foreign": True, "defer": True},
    {"only": True},
    {"foreign": True, "defer": True, "only": True},
    {"deposit_when": "done"},
    {"deposit_when": "hop"},
    {"deposit_when": "hop", "foreign": True, "defer": True, "only": True},
], ids=lambda o: "+".join(f"{k}={v}" for k, v in o.items()) or "plain")
def test_move_matches_one_block(monkeypatch, options):
    one, small = one_and_small(monkeypatch,
                               lambda: _move_scenario(**options))
    assert_same(one, small)
    assert one["total_hops"] > 40 and one["n_removed"] > 0  # multi-hop
    if options.get("foreign"):
        assert one["foreign_particles"].size > 0
    if options.get("defer"):
        assert one["removed_indices"].size == one["n_removed"]
    if options.get("deposit_when"):
        assert one["node_a"].any()


def test_move_max_hops_error(monkeypatch):
    for block in (ONE_BLOCK, SMALL):
        monkeypatch.setattr(blocked, "BLOCK", block)
        with pytest.raises(RuntimeError, match="exceeded 1 hops"):
            _move_scenario(max_hops=1)


# -- the randomized sweeps under the small block (``-m conformance``) ---------------


@pytest.mark.conformance
def test_conformance_sweep_small_block(monkeypatch, request):
    """The differential fuzzer (vec/omp vs the seq oracle), every loop
    in 7-lane blocks."""
    monkeypatch.setattr(blocked, "BLOCK", SMALL)
    n = int(request.config.getoption("--conformance-cases"))
    summary = run_conformance(n_cases=n, seed=0, backends=("vec", "omp"))
    assert summary["executions"] == 2 * n


def _app(name, backend):
    if name == "fempic":
        from repro.apps.fempic import FemPicConfig, FemPicSimulation
        return FemPicSimulation(FemPicConfig.smoke().scaled(backend=backend))
    if name == "cabana":
        from repro.apps.cabana import CabanaConfig, CabanaSimulation
        return CabanaSimulation(CabanaConfig.smoke().scaled(backend=backend))
    from repro.apps.twod import TwoDConfig, TwoDSheetModel
    return TwoDSheetModel(TwoDConfig(nx=4, ny=4, ppc=2, n_steps=5,
                                     backend=backend))


@pytest.mark.conformance
@pytest.mark.parametrize("backend", ["vec", "omp"])
@pytest.mark.parametrize("app", ["fempic", "cabana", "twod"])
def test_app_replay_small_block(monkeypatch, app, backend):
    """The smoke problems ``repro verify --app`` sanitizes, replayed on
    the generated-code backends in 7-lane blocks against the seq oracle:
    integer series bit-equal, float series rtol 1e-9 with an absolute
    floor at 1e-12 of the history's largest float (CabanaPIC's
    ``b_energy`` is exactly 0.0 on seq and a ~1e-38 square of
    cancellation residues once a deposit is regrouped)."""
    ref = _app(app, "seq")
    ref.run()
    monkeypatch.setattr(blocked, "BLOCK", SMALL)
    sim = _app(app, backend)
    sim.run()
    assert sim.history.keys() == ref.history.keys()
    series = {k: np.asarray(v) for k, v in ref.history.items()}
    floor = 1e-12 * max(np.abs(v).max() for v in series.values()
                        if v.dtype.kind == "f")
    for key, want in series.items():
        got = np.asarray(sim.history[key])
        if want.dtype.kind in "iu":
            np.testing.assert_array_equal(got, want, err_msg=key)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=floor,
                                       err_msg=key)
