"""Whole-step program optimizer: recording, flush points and plans.

The contract under test everywhere: running a span of loops through
``program.record(mode="fuse")`` is *bit-identical* to running them
eagerly — deferral is invisible, and every loop and move runs as the
app wrote it.
"""
import numpy as np
import pytest

from repro import program
from repro.core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_READ, OPP_RW,
                            OPP_WRITE, Context, arg_dat, arg_gbl,
                            decl_dat, decl_global, decl_map,
                            decl_particle_set, decl_set, par_loop,
                            particle_move, push_context)


# -- kernels (module level so every backend can retrieve their source) ---------


def k_double(x, y):
    y[0] = 2.0 * x[0]


def k_add_one(y, z):
    z[0] = y[0] + 1.0


def k_axpy(x, y):
    y[0] = y[0] + 0.5 * x[0]


def k_deposit(w, acc):
    acc[0] += w[0]


def k_gather_mark(c, out, hits):
    out[0] = out[0] + 0.1 * c[0]
    hits[0] += 1


def k_reduce(x, total):
    total[0] += x[0]


def k_scale_by_gbl(x, g):
    x[0] = x[0] * g[0]


def k_walk_done(move, p):
    move.done()


def _world(backend="vec", n_cells=16, n_parts=40):
    ctx = Context(backend)
    with push_context(ctx):
        cells = decl_set(n_cells, "cells")
        parts = decl_particle_set(cells, n_parts, "parts")
        chain = [[i - 1 if i > 0 else -1,
                  i + 1 if i + 1 < n_cells else -1]
                 for i in range(n_cells)]
        c2c = decl_map(cells, cells, 2, chain, "c2c")
        rng = np.random.default_rng(7)
        p2c = decl_map(parts, cells, 1,
                       rng.integers(0, n_cells, size=(n_parts, 1)), "p2c")
        w = {
            "ctx": ctx, "cells": cells, "parts": parts, "c2c": c2c,
            "p2c": p2c,
            "a": decl_dat(cells, 1, np.float64,
                          rng.normal(size=n_cells), "a"),
            "b": decl_dat(cells, 1, np.float64, None, "b"),
            "c": decl_dat(cells, 1, np.float64, None, "c"),
            "acc": decl_dat(cells, 1, np.float64, None, "acc"),
            "pw": decl_dat(parts, 1, np.float64,
                           rng.normal(size=n_parts), "pw"),
            "pos": decl_dat(parts, 1, np.float64,
                            rng.uniform(0, n_cells, size=n_parts), "pos"),
            "out": decl_dat(parts, 1, np.float64,
                            np.ones(n_parts), "out"),
            "g": decl_global(1, np.float64, [0.0], "g"),
        }
    return w


def _chain(w):
    """a --k_double--> b --k_add_one--> c : a direct producer→consumer
    chain."""
    par_loop(k_double, "Double", w["cells"], OPP_ITERATE_ALL,
             arg_dat(w["a"], OPP_READ), arg_dat(w["b"], OPP_WRITE))
    par_loop(k_add_one, "AddOne", w["cells"], OPP_ITERATE_ALL,
             arg_dat(w["b"], OPP_READ), arg_dat(w["c"], OPP_WRITE))


# -- recording / flush semantics -----------------------------------------------


@pytest.mark.parametrize("backend", ["seq", "vec"])
def test_deferred_equals_eager(backend):
    w = _world(backend)
    with push_context(w["ctx"]):
        _chain(w)
        exp_b, exp_c = w["b"].data.copy(), w["c"].data.copy()
        w["b"].fill(0.0)
        w["c"].fill(0.0)
        with program.record(mode="fuse") as prog:
            _chain(w)
        assert np.array_equal(w["b"].data, exp_b)
        assert np.array_equal(w["c"].data, exp_c)
    assert prog.n_flushes == 1


def test_host_read_mid_trace_flushes():
    w = _world("vec")
    with push_context(w["ctx"]):
        with program.record(mode="fuse") as prog:
            par_loop(k_double, "Double", w["cells"], OPP_ITERATE_ALL,
                     arg_dat(w["a"], OPP_READ), arg_dat(w["b"], OPP_WRITE))
            # observing b must flush the pending loop right here
            assert np.array_equal(w["b"].data, 2.0 * w["a"].data)
            assert prog.n_flushes == 1
            par_loop(k_add_one, "AddOne", w["cells"], OPP_ITERATE_ALL,
                     arg_dat(w["b"], OPP_READ), arg_dat(w["c"], OPP_WRITE))
        assert prog.n_flushes == 2


def test_unrelated_read_does_not_flush():
    w = _world("vec")
    with push_context(w["ctx"]):
        with program.record(mode="fuse") as prog:
            par_loop(k_double, "Double", w["cells"], OPP_ITERATE_ALL,
                     arg_dat(w["a"], OPP_READ), arg_dat(w["b"], OPP_WRITE))
            w["out"].data  # particle dat: untouched by the pending loop
            assert prog.n_flushes == 0


def test_mode_off_is_a_passthrough():
    w = _world("seq")
    with push_context(w["ctx"]):
        with program.record(mode="off") as prog:
            par_loop(k_double, "Double", w["cells"], OPP_ITERATE_ALL,
                     arg_dat(w["a"], OPP_READ), arg_dat(w["b"], OPP_WRITE))
            # no tracer installed: the loop already ran
            assert np.array_equal(w["b"].data, 2.0 * w["a"].data)
    assert prog.n_flushes == 0


def test_invalid_mode_rejected():
    with pytest.raises(ValueError, match="program mode"):
        program.Program("sideways")


def test_lazy_move_result_resolves():
    w = _world("vec")
    with push_context(w["ctx"]):
        with program.record(mode="fuse") as prog:
            res = particle_move(k_walk_done, "Hold", w["parts"], w["c2c"],
                                w["p2c"], arg_dat(w["pos"], OPP_READ))
            assert res.n_removed == 0     # resolving forces the flush
            assert prog.n_flushes == 1


def _loop_by_loop(prog) -> bool:
    return all(len(g.nodes) == 1 for p in prog.plans for g in p.groups)


def test_indirect_war_falls_back(backend="vec"):
    """An indirect read of ``acc`` followed by an indirect INC of ``acc``
    (WAR through p2c): a flush runs the pair loop by loop, in order."""
    w = _world(backend)
    hits = None
    with push_context(w["ctx"]):
        hits = decl_dat(w["cells"], 1, np.float64, None, "hits")

        def body():
            par_loop(k_gather_mark, "WarRead", w["parts"],
                     OPP_ITERATE_ALL,
                     arg_dat(w["acc"], w["p2c"], OPP_READ),
                     arg_dat(w["out"], OPP_RW),
                     arg_dat(hits, w["p2c"], OPP_INC))
            par_loop(k_deposit, "WarInc", w["parts"], OPP_ITERATE_ALL,
                     arg_dat(w["pw"], OPP_READ),
                     arg_dat(w["acc"], w["p2c"], OPP_INC))

        body()
        exp_out = w["out"].data.copy()
        exp_acc = w["acc"].data.copy()
        exp_hits = hits.data.copy()
        w["out"].fill(1.0)
        w["acc"].fill(0.0)
        hits.fill(0.0)
        with program.record(mode="fuse") as prog:
            body()
        assert np.array_equal(w["out"].data, exp_out)
        assert np.array_equal(w["acc"].data, exp_acc)
        assert np.array_equal(hits.data, exp_hits)
    assert prog.n_flushes == 1 and _loop_by_loop(prog)


def test_global_read_after_reduce_falls_back():
    """A later loop reads the global an earlier one reduced into: the
    reduction is complete before the read."""
    w = _world("vec")
    with push_context(w["ctx"]):
        def body():
            par_loop(k_reduce, "Reduce", w["cells"], OPP_ITERATE_ALL,
                     arg_dat(w["a"], OPP_READ),
                     arg_gbl(w["g"], OPP_INC))
            par_loop(k_scale_by_gbl, "Scale", w["cells"],
                     OPP_ITERATE_ALL,
                     arg_dat(w["b"], OPP_RW),
                     arg_gbl(w["g"], OPP_READ))

        body()
        exp_b, exp_g = w["b"].data.copy(), w["g"].data.copy()
        w["b"].fill(0.0)
        w["g"].data[:] = 0.0
        with program.record(mode="fuse") as prog:
            body()
        assert np.array_equal(w["b"].data, exp_b)
        assert np.array_equal(w["g"].data, exp_g)
    assert prog.n_flushes == 1 and _loop_by_loop(prog)


# -- a move and the deposit after it -------------------------------------------


def k_walk_chain(move, p, hits):
    hits[0] += 1
    lo = move.cell * 1.0
    if p[0] < lo:
        move.move_to(move.c2c[0])
    elif p[0] >= lo + 1.0:
        move.move_to(move.c2c[1])
    else:
        move.done()


def _run_move_deposit(w, hits, mode):
    """Walk every particle to its containing cell, then deposit; the
    move mutates p2c, so callers hand in a *fresh* world per run."""
    def body():
        res = particle_move(k_walk_chain, "Walk", w["parts"],
                            w["c2c"], w["p2c"],
                            arg_dat(w["pos"], OPP_READ),
                            arg_dat(hits, w["p2c"], OPP_INC))
        par_loop(k_deposit, "Deposit", w["parts"], OPP_ITERATE_ALL,
                 arg_dat(w["pw"], OPP_READ),
                 arg_dat(w["acc"], w["p2c"], OPP_INC))
        return res

    with push_context(w["ctx"]):
        if mode == "off":
            return body().n_removed, None
        prog = program.Program(mode)
        with program.record(mode=mode, program=prog):
            res = body()
            n_removed = res.n_removed     # resolves the lazy result
        return n_removed, prog


@pytest.mark.parametrize("backend", ["seq", "vec"])
def test_move_then_deposit_runs_as_written(backend):
    """A move and the deposit loop after it stay the two groups the app
    wrote, bit-equal to the eager run."""
    runs = {}
    for mode in ("off", "fuse"):
        w = _world(backend)
        with push_context(w["ctx"]):
            hits = decl_dat(w["cells"], 1, np.float64, None, "hits")
        runs[mode] = (w, hits) + _run_move_deposit(w, hits, mode)
    (w_off, hits_off, n_off, _), (w, hits, n_fuse, prog) = runs.values()
    assert n_fuse == n_off
    assert np.array_equal(w["acc"].data, w_off["acc"].data)
    assert np.array_equal(hits.data, hits_off.data)
    assert np.array_equal(w["p2c"].p2c, w_off["p2c"].p2c)
    (plan,) = prog.plans
    assert [(g.kind, g.name, g.fused) for g in plan.groups] == [
        ("move", "Walk", False), ("loops", "Deposit", False)]


# -- Program API -----------------------------------------------------------------


def test_program_from_step_and_explain():
    w = _world("vec")

    def step():
        with push_context(w["ctx"]):
            _chain(w)

    prog = program.Program.from_step(step)
    assert prog.n_flushes == 1
    text = prog.explain()
    assert "program mode: fuse" in text and "shape 1 (x1):" in text


def test_repeated_shapes_share_plans_and_kernels():
    w = _world("vec")
    prog = program.Program("fuse")
    for _ in range(4):
        with push_context(w["ctx"]):
            with program.record(mode="fuse", program=prog):
                _chain(w)
    assert prog.n_flushes == 4
    assert len(prog.executed) == 1        # one distinct shape
    (entry,) = prog.executed.values()
    assert entry[1] == 4                  # executed four times
    assert len(w["ctx"].sites) == 2       # each loop declared once
