"""Sanitizer × program optimizer: deferring a program must not hide
descriptor races.  At flush time every loop replays through shadow
execution with its own access descriptors — a mis-declared kernel is
caught exactly as it is eagerly.
"""
import numpy as np

from repro import program
from repro.core.api import (OPP_READ, OPP_RW, OPP_WRITE, OPP_ITERATE_ALL,
                            Context, arg_dat, decl_dat, decl_set,
                            par_loop, push_context)


def k_ok(x, y):
    y[0] = 2.0 * x[0]


def k_bad_write_to_read(x, y):
    x[0] = 0.0              # mutates a READ arg
    y[0] = 1.0


def _world(ctx):
    with push_context(ctx):
        s = decl_set(12, "cells")
        x = decl_dat(s, 1, np.float64, np.arange(12.0), "x")
        y = decl_dat(s, 1, np.float64, None, "y")
    return s, x, y


def test_clean_program_stays_clean():
    ctx = Context("sanitizer")
    s, x, y = _world(ctx)
    with push_context(ctx):
        with program.record(mode="fuse") as prog:
            par_loop(k_ok, "Ok", s, OPP_ITERATE_ALL,
                     arg_dat(x, OPP_READ), arg_dat(y, OPP_WRITE))
            par_loop(k_ok, "Ok2", s, OPP_ITERATE_ALL,
                     arg_dat(y, OPP_READ), arg_dat(x, OPP_WRITE))
    assert ctx.backend.violations == []
    assert prog.n_flushes == 1


def test_deferred_program_still_reports_races():
    ctx = Context("sanitizer")
    s, x, y = _world(ctx)
    with push_context(ctx):
        with program.record(mode="fuse"):
            # a producer→consumer pair: the second loop is mis-declared
            par_loop(k_ok, "Ok", s, OPP_ITERATE_ALL,
                     arg_dat(x, OPP_READ), arg_dat(y, OPP_WRITE))
            par_loop(k_bad_write_to_read, "Bad", s, OPP_ITERATE_ALL,
                     arg_dat(y, OPP_READ), arg_dat(x, OPP_WRITE))
    violations = ctx.backend.violations
    assert violations, "deferred execution hid the descriptor race"
    v = violations[0]
    assert v.loop_name == "Bad" and v.arg_index == 0
    # shadow execution also contained the stray write
    assert np.array_equal(y.data[:, 0], 2.0 * np.arange(12.0))
