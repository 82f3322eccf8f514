"""A loop call site is declared, validated and bound once per context;
every later launch from it trusts that declaration.  One test per thing
a warm launch trusts: each scenario runs twice — all launches from one
context (warm sites), and every launch under a context of its own (cold
declarations, nothing remembered) — and the two must agree bit for bit.
"""
import gc
import hashlib
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.core import context as context_mod
from repro.core.api import (CONST, OPP_INC, OPP_ITERATE_ALL,
                            OPP_ITERATE_INJECTED, OPP_READ, OPP_RW,
                            OPP_WRITE, Context, arg_dat, decl_const,
                            decl_dat, decl_map, decl_particle_set, decl_set,
                            get_context, par_loop, particle_move,
                            push_context)
from repro.core.loops import ParLoop, add_loop_hook, remove_loop_hook
from repro.core.move import MoveDecl, declare_move, execute_moveloop
from repro.translator import native

BACKENDS = ["seq", "vec"]
NATIVE = native.compiler() is not None
needs_cc = pytest.mark.skipif(not NATIVE, reason="no C compiler")


def push_kernel(x, v, cell_w):
    x[0] = x[0] + CONST.dt * v[0] + cell_w[0]
    x[1] = x[1] - v[0]


def init_kernel(x, v):
    x[0] = 1.0 + v[0]
    x[1] = 2.0


def gather_kernel(out, a, b):
    out[0] = a[0] + 2.0 * b[0]


def walk_kernel(move, x, visits):
    visits[0] += 1.0
    lo = move.cell * 1.0
    if x[0] < lo:
        move.move_to(move.c2c[0])
    elif x[0] >= lo + 1.0:
        move.move_to(move.c2c[1])
    else:
        move.done()


def while_kernel(x):            # outside the kernel language
    i = 0
    while i < 2:
        x[0] += 1.0
        i += 1


class World:
    """A 6-cell chain with a particle set of capacity 16 on it."""

    def __init__(self, n_parts=5):
        self.cells = decl_set(6, "cells")
        self.c2c = decl_map(self.cells, self.cells, 2,
                            [[i - 1, i + 1 if i < 5 else -1]
                             for i in range(6)], "c2c")
        self.parts = decl_particle_set(self.cells, n_parts, "parts")
        self.p2c = decl_map(self.parts, self.cells, 1,
                            np.arange(n_parts).reshape(-1, 1) % 6, "p2c")
        self.x = decl_dat(self.parts, 2, np.float64,
                          np.linspace(0.1, 4.9, 2 * n_parts), "x")
        self.v = decl_dat(self.parts, 1, np.float64,
                          np.linspace(-1.0, 1.0, n_parts), "v")
        self.w = decl_dat(self.cells, 1, np.float64,
                          0.25 * np.arange(6.0), "w")
        self.visits = decl_dat(self.cells, 1, np.float64, name="visits")

    def push(self, iterate=OPP_ITERATE_ALL):
        par_loop(push_kernel, "Push", self.parts, iterate,
                 arg_dat(self.x, OPP_RW), arg_dat(self.v, OPP_READ),
                 arg_dat(self.w, self.p2c, OPP_READ))

    def grow(self, count):
        sl = self.parts.add_particles(count,
                                      np.arange(count, dtype=np.int64) % 6)
        self.x.data[sl] = 0.5 + np.arange(2.0 * count).reshape(-1, 2)
        self.v.data[sl] = 0.125
        return sl

    def state(self):
        return [d.data.copy() for d in (self.x, self.v, self.visits)] \
            + [self.p2c.p2c.copy()]


class Runner:
    """``run(fn)`` calls ``fn`` under the one shared context (warm
    sites) or under a new one each time (every launch cold)."""

    def __init__(self, backend, fresh):
        self.backend, self.fresh = backend, fresh
        self.ctx = Context(backend)

    def next_ctx(self):
        if self.fresh:
            self.ctx = Context(self.backend)
        return self.ctx

    def __call__(self, fn, *args):
        with push_context(self.next_ctx()):
            return fn(*args)

    def row(self, name):
        return self.ctx.perf.get(name).extras


def warm_equals_cold(backend, scenario):
    """Run ``scenario(run)`` both ways; returns the warm runner."""
    decl_const("dt", 0.5)
    warm = Runner(backend, fresh=False)
    got = scenario(warm)
    decl_const("dt", 0.5)
    want = scenario(Runner(backend, fresh=True))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=0, atol=0)
    return warm


# -- what a warm launch re-reads ---------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_particle_dat_reallocated_by_growth(backend):
    def scenario(run):
        w = run(World)
        run(w.push), run(w.push)
        before = w.x.raw
        run(w.grow, 40)                     # past the capacity of 16
        assert w.x.raw is not before
        run(w.push)
        return w.state()

    warm = warm_equals_cold(backend, scenario)
    assert len(warm.ctx.sites) == 1
    if backend == "vec" and NATIVE:
        assert warm.row("Push")["strategy"] == "in_place"
        assert "fallback" not in warm.row("Push")


@pytest.mark.parametrize("backend", BACKENDS)
def test_adopt_raw_between_launches(backend):
    """Growth past capacity makes every particle dat and ``p2c`` adopt a
    new raw buffer; writes through the new buffers must reach later
    launches."""
    def scenario(run):
        w = run(World)
        run(w.push)
        held = [(o, o.raw) for o in (w.x, w.v, w.p2c)]
        run(w.grow, 40)
        assert all(o.raw is not before for o, before in held)
        run(w.push)
        w.x.data[:, 0] += 1.0
        w.p2c.p2c[:] = (w.p2c.p2c + 1) % 6
        run(w.push)
        return w.state()

    warm_equals_cold(backend, scenario)


@needs_cc
def test_unusable_array_declines_then_a_good_one_binds_again():
    decl_const("dt", 0.5)
    run = Runner("vec", fresh=False)
    w = run(World)
    run(w.push)
    site, = run.ctx.sites.values()
    assert site.bindings

    def launch():
        run.ctx.perf.reset()
        run(w.push)
        return run.row("Push").get("fallback")

    good = w.x._raw
    w.x._raw = np.repeat(good, 2, axis=1)[:, ::2]       # same values
    assert not w.x._raw.flags.c_contiguous
    assert "not a C-contiguous buffer" in launch()
    assert not site.bindings
    w.x._raw = np.ascontiguousarray(w.x._raw)
    assert launch() is None and site.bindings

    w.x._raw = w.x._raw.astype(np.float32)      # dat.dtype still float64
    assert "not a C-contiguous buffer" in launch()
    w.x.dtype = np.dtype(np.float32)
    assert launch() == "dat dtype float32 is not float64 / int64"
    w.x.dtype, w.x._raw = np.dtype(np.float64), w.x._raw.astype(np.float64)
    assert launch() is None and site.bindings
    assert run.row("Push")["strategy"] == "in_place"

    # the same launches with nothing remembered
    decl_const("dt", 0.5)
    cold = Runner("seq", fresh=True)
    c = cold(World)
    for _ in range(6):
        cold(c.push)
    # two of the launches ran on a float32 copy
    np.testing.assert_allclose(w.x.data, c.x.data, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("backend", BACKENDS)
def test_set_shrinks_to_zero_and_grows_back(backend):
    def scenario(run):
        w = run(World)
        run(w.push)
        w.parts.remove_particles(np.arange(w.parts.size))
        run(w.push)                         # zero iterations
        run(w.grow, 3)
        run(w.push)
        return w.state()

    warm_equals_cold(backend, scenario)


@pytest.mark.parametrize("backend", BACKENDS)
def test_injected_bounds_move_every_launch(backend):
    def scenario(run):
        w = run(World)

        def init():
            par_loop(init_kernel, "Init", w.parts, OPP_ITERATE_INJECTED,
                     arg_dat(w.x, OPP_WRITE), arg_dat(w.v, OPP_READ))

        for count in (3, 0, 7, 20, 1):
            w.parts.begin_injection()
            run(w.grow, count)
            run(init)
            run(w.push, OPP_ITERATE_INJECTED)
            w.parts.end_injection()
        return w.state()

    warm = warm_equals_cold(backend, scenario)
    assert len(warm.ctx.sites) == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_const_changed_between_launches(backend):
    def scenario(run):
        w = run(World)
        run(w.push)
        for dt in (0.75, -0.0, 0.0, 3):
            decl_const("dt", dt)
            run(w.push)
        return w.state()

    warm_equals_cold(backend, scenario)


def zero_sign_kernel(x):
    x[0] = CONST.z * -1.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_kind_of_const_change_reaches_the_next_warm_launch(backend):
    """``decl_const``, attribute assignment, ``restore`` and ``clear``
    each move the registry's version, so a warm native launch builds its
    table again; a ``-0.0`` / ``0.0`` flip (equal under ``==``) too."""
    def scenario(run):
        w = run(World)
        run(w.push)
        decl_const("dt", 0.75)
        run(w.push)
        CONST.dt = -2.0
        run(w.push)
        saved = CONST.snapshot()
        CONST.dt = 8.0
        run(w.push)
        CONST.restore(saved)            # dt = -2.0 again
        run(w.push)
        CONST.clear()
        with pytest.raises(AttributeError, match="undeclared constant 'dt'"):
            run(w.push)
        CONST.restore(saved)
        run(w.push)
        return w.state()

    warm_equals_cold(backend, scenario)

    run = Runner(backend, fresh=False)
    s = run(decl_set, 3)
    x = run(decl_dat, s, 1, np.float64)
    signs = []
    for z in (0.0, -0.0, 0.0, -0.0):
        decl_const("z", z)
        run(par_loop, zero_sign_kernel, "ZeroSign", s, OPP_ITERATE_ALL,
            arg_dat(x, OPP_WRITE))
        signs.append(bool(np.signbit(x.data[0, 0])))
    assert signs == [True, False, True, False]
    if backend == "vec" and NATIVE:
        assert run.row("ZeroSign")["strategy"] == "in_place"


@needs_cc
def test_non_numeric_const_declines_instead_of_a_stale_table():
    decl_const("dt", 0.5)
    run = Runner("vec", fresh=False)
    w = run(World)
    run(w.push), run(w.push)
    x0 = w.x.data.copy()
    decl_const("dt", [4.0])         # the NumPy target broadcasts a list
    for _ in range(2):              # the decline is not remembered
        run.ctx.perf.reset()
        run(w.push)
        assert "CONST value is not a numeric scalar" in \
            run.row("Push")["fallback"]
        want = x0[:, 0] + 4.0 * w.v.data[:, 0] + w.w.data[w.p2c.p2c, 0]
        np.testing.assert_allclose(w.x.data[:, 0], want, rtol=0, atol=0)
        x0 = w.x.data.copy()
    decl_const("dt", 0.5)
    run.ctx.perf.reset()
    run(w.push)
    assert "fallback" not in run.row("Push")
    assert run.row("Push")["strategy"] == "in_place"


# -- what is looked at on every launch ---------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_hook_installed_on_a_warm_site_fires(backend):
    run = Runner(backend, fresh=False)
    decl_const("dt", 0.5)
    w = run(World)
    run(w.push), run(w.push)
    seen = []
    hook = add_loop_hook(seen.append)
    try:
        run(w.push)
        run(particle_move, walk_kernel, "Walk", w.parts, w.c2c, w.p2c,
            arg_dat(w.x, OPP_READ), arg_dat(w.visits, w.p2c, OPP_INC))
    finally:
        remove_loop_hook(hook)
    run(w.push)
    assert [loop.name for loop in seen] == ["Push", "Walk"]
    push_site, walk_site = run.ctx.sites.values()
    assert isinstance(seen[0], ParLoop) and seen[0] is push_site
    assert seen[1].decl is walk_site


@needs_cc
def test_backend_attribute_flipped_on_a_warm_site():
    decl_const("dt", 0.5)
    run = Runner("vec", fresh=False)
    w = run(World)
    run(w.push), run(w.push)
    assert run.row("Push")["strategy"] == "in_place"
    run.ctx.backend.check_unique_writes = True
    run(w.push)
    assert run.row("Push")["fallback"] == \
        "check_unique_writes inspects staged target rows"


# -- who owns a site ---------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_two_contexts_share_nothing(backend):
    decl_const("dt", 0.5)
    a, b = Context(backend), Context(backend)
    with push_context(a):
        w = World()
        w.push()
    with push_context(b):
        w.push()
    (key_a, site_a), = a.sites.items()
    (key_b, site_b), = b.sites.items()
    assert key_a == key_b and site_a is not site_b
    if backend == "vec" and NATIVE:
        assert site_a.bindings[None] is not site_b.bindings[None]
    a.set_backend(backend)
    assert not a.sites and b.sites


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_cap_empties_the_memo_and_sites_redeclare(backend, monkeypatch):
    monkeypatch.setattr(context_mod, "MAX_SITES", 4)
    ctx = Context(backend)
    with push_context(ctx):
        s = decl_set(5)
        a = decl_dat(s, 1, np.float64, np.arange(5.0))
        b = decl_dat(s, 1, np.float64, np.ones(5))
        out = decl_dat(s, 1, np.float64)

        def launch(name):
            par_loop(gather_kernel, name, s, OPP_ITERATE_ALL,
                     arg_dat(out, OPP_WRITE), arg_dat(a, OPP_READ),
                     arg_dat(b, OPP_READ))

        for name in "ABCD":
            launch(name)
        first = ctx.sites[next(iter(ctx.sites))]
        assert len(ctx.sites) == 4
        launch("E")
        assert len(ctx.sites) == 1
        a.data[:] = 7.0
        launch("A")
        assert len(ctx.sites) == 2 and first not in ctx.sites.values()
        assert out.data[:, 0].tolist() == [9.0] * 5


@pytest.mark.parametrize("backend", BACKENDS)
def test_declaration_errors_repeat_and_leave_no_entry(backend):
    ctx = Context(backend)
    with push_context(ctx):
        w = World()
        bad = [
            (ValueError, lambda: par_loop(
                gather_kernel, "WrongSet", w.cells, OPP_ITERATE_ALL,
                arg_dat(w.x, OPP_WRITE), arg_dat(w.w, OPP_READ),
                arg_dat(w.w, OPP_READ))),
            (TypeError, lambda: par_loop(
                gather_kernel, "BadArity", w.cells, OPP_ITERATE_ALL,
                arg_dat(w.w, OPP_WRITE))),
            (TypeError, lambda: par_loop(
                init_kernel, "NotParticles", w.cells, OPP_ITERATE_INJECTED,
                arg_dat(w.w, OPP_WRITE), arg_dat(w.w, OPP_READ))),
            (ValueError, lambda: particle_move(
                walk_kernel, "RacyMove", w.parts, w.c2c, w.p2c,
                arg_dat(w.x, OPP_READ), arg_dat(w.visits, w.p2c, OPP_WRITE))),
            (TypeError, lambda: particle_move(
                walk_kernel, "MoveArity", w.parts, w.c2c, w.p2c,
                arg_dat(w.x, OPP_READ))),
        ]
        for exc_type, call in bad:
            messages = []
            for _ in range(2):
                with pytest.raises(exc_type) as info:
                    call()
                messages.append(str(info.value))
            assert messages[0] == messages[1] and messages[0]
        assert not ctx.sites


def _two_launches_of_a_small_sim():
    decl_const("dt", 0.5)
    w = World()
    w.push(), w.push()
    particle_move(walk_kernel, "Walk", w.parts, w.c2c, w.p2c,
                  arg_dat(w.x, OPP_READ), arg_dat(w.visits, w.p2c, OPP_INC))
    return w


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_discarded_simulation_is_collectable(backend):
    ctx = Context(backend)
    with push_context(ctx):
        w = _two_launches_of_a_small_sim()
    dead = [weakref.ref(w.x), weakref.ref(w.parts), weakref.ref(w.x.raw)]
    del w, ctx
    gc.collect()
    assert [ref() for ref in dead] == [None] * 3


def test_the_default_context_lets_go_once_the_cap_turns_over(monkeypatch):
    monkeypatch.setattr(context_mod, "MAX_SITES", 8)
    ctx = get_context()
    ctx.sites.clear()
    w = _two_launches_of_a_small_sim()
    dead = weakref.ref(w.x)
    del w
    gc.collect()
    assert dead() is not None           # the memo's keys hold it
    s = decl_set(3)
    d = decl_dat(s, 1, np.float64)
    for i in range(8):
        par_loop(while_kernel, f"throwaway{i}", s, OPP_ITERATE_ALL,
                 arg_dat(d, OPP_RW))
    gc.collect()
    assert dead() is None and len(ctx.sites) <= 8
    ctx.sites.clear()


def test_a_repartition_drops_the_old_ranks_sites():
    """``elastic.rebalance`` declares every rank afresh under the rank's
    old context, which must not keep the old rank's objects alive."""
    from repro.apps.fempic import FemPicConfig
    from repro.apps.fempic.distributed import DistributedFemPic
    from repro.elastic import rebalance
    from repro.runtime import SimComm
    app = DistributedFemPic(FemPicConfig.smoke().scaled(n_steps=0, dt=0.2),
                            comm=SimComm(2))
    app.step(), app.step()
    old = weakref.ref(app.ranks[0].parts)
    weights = np.where(np.asarray(app.cell_owner) == 0, 8.0, 1.0)
    assert rebalance(app, app._elastic_partition(weights)).n_cells_moved
    gc.collect()
    assert old() is None
    app.step()
    assert app.ranks[0].ctx.sites


# -- memoised descriptors ----------------------------------------------------------


def test_a_repeated_spec_gives_the_same_frozen_descriptor():
    from repro.core.api import OPP_MAX, arg_gbl, decl_global
    w = World()
    c2n = decl_map(w.cells, w.cells, 2, [[i, (i + 1) % 6] for i in range(6)])
    g = decl_global(1)
    specs = [
        (w.x, OPP_READ), (w.x, OPP_RW), (w.v, OPP_READ),
        (w.w, w.p2c, OPP_READ), (w.w, w.p2c, OPP_INC),
        (w.w, 0, c2n, OPP_READ), (w.w, 1, c2n, OPP_READ),
        (w.w, 0, w.c2c, OPP_READ), (w.w, 0, c2n, w.p2c, OPP_INC),
        (w.w, 1, c2n, w.p2c, OPP_INC), (g, OPP_READ), (g, OPP_MAX),
    ]
    first = [arg_dat(*spec) for spec in specs]
    assert all(arg_dat(*spec) is a for spec, a in zip(specs, first))
    assert len({id(a) for a in first}) == len(specs)
    assert arg_gbl(g, OPP_READ) is first[-2]
    assert arg_gbl(g, OPP_MAX) is first[-1]
    assert arg_dat(w.w, np.int64(1), c2n, OPP_READ) is first[6]

    a = first[0]
    for name in ("dat", "access", "map", "kind", "anything"):
        with pytest.raises(AttributeError, match="frozen"):
            setattr(a, name, None)
    with pytest.raises(AttributeError, match="frozen"):
        del a.access
    assert a.dat is w.x and a.access is OPP_READ


def test_the_memo_dies_with_its_dat():
    """The memo lives on the dat: nothing process-wide holds a dat, its
    map or a descriptor once the dat's world is dropped."""
    s, t = decl_set(4), decl_set(3)
    m = decl_map(s, t, 1, np.arange(4).reshape(-1, 1) % 3)
    d = decl_dat(t, 1, np.float64)
    a = arg_dat(d, 0, m, OPP_READ)
    assert arg_dat(d, 0, m, OPP_READ) is a and d._args
    dead = [weakref.ref(o) for o in (d, a, m, s, t)]
    del s, t, m, d, a
    gc.collect()
    assert [ref() for ref in dead] == [None] * 5


def test_the_memo_is_bounded():
    from repro.core import args as args_mod
    s = decl_set(2)
    d = decl_dat(s, 1, np.float64)
    for _ in range(3 * args_mod.MAX_ARGS):     # a map rebuilt every step
        arg_dat(d, 0, decl_map(s, s, 1, [[0], [1]]), OPP_READ)
    assert 0 < len(d._args) <= args_mod.MAX_ARGS


@needs_cc
def test_generated_functions_take_one_packed_block():
    """Every generated function is ``opp_loop(a, K, out)``: the block,
    the constant table and the outputs, whatever the loop's arity."""
    import re
    from repro.translator import cgen
    w = World()
    nodes = decl_set(4)
    c2n = decl_map(w.cells, nodes, 2, [[i % 4, (i + 1) % 4]
                                       for i in range(6)])
    charge = decl_dat(nodes, 1, np.float64)
    loops = [
        ParLoop(push_kernel, "Push", w.parts, OPP_ITERATE_ALL,
                [arg_dat(w.x, OPP_RW), arg_dat(w.v, OPP_READ),
                 arg_dat(w.w, w.p2c, OPP_READ)]),
        ParLoop(gather_kernel, "Gather", w.parts, OPP_ITERATE_ALL,
                [arg_dat(w.v, OPP_WRITE), arg_dat(charge, 0, c2n, w.p2c,
                                                  OPP_INC),
                 arg_dat(charge, 1, c2n, w.p2c, OPP_INC)]),
    ]
    sources = []
    for loop in loops:
        objs = []
        sig = cgen.signature(loop.args, objs)
        sources.append(cgen.emit_par_loop(loop.kernel, sig, len(objs)))
    move_args = [arg_dat(w.x, OPP_READ), arg_dat(w.visits, w.p2c, OPP_INC)]
    for foreign in (False, True):
        objs = [w.p2c, w.c2c]
        sig = cgen.signature(move_args, objs)
        sources.append(cgen.emit_move(MoveDecl(
            walk_kernel, "Walk", w.parts, w.c2c, w.p2c, move_args).kernel,
            sig, len(objs), 2, foreign))
    for source in sources:
        head, = re.findall(r"int64_t opp_loop\((.*?)\)\n", source)
        assert head == "const int64_t *a, const double *K, int64_t *out"


# -- moves -------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_move_launch_state_is_not_shared_between_launches(backend):
    def scenario(run):
        w = run(World)

        def declare(ctx, only=None):
            return declare_move(
                ctx, walk_kernel, "Walk", w.parts, w.c2c, w.p2c,
                [arg_dat(w.x, OPP_READ), arg_dat(w.visits, w.p2c, OPP_INC)],
                1000, only_indices=only)

        ctx = run.next_ctx()
        with push_context(ctx):
            full = declare(ctx)
            full.foreign_cell_mask = np.arange(6) >= 4
            full.defer_removal = True
            res = execute_moveloop(full, ctx)
        ctx = run.next_ctx()
        with push_context(ctx):
            part = declare(ctx, np.array([1, 3]))
            assert part.foreign_cell_mask is None and not part.defer_removal
            assert full.only_indices is None
            if not run.fresh:
                assert part.decl is full.decl
                assert isinstance(part.decl, MoveDecl)
            w.x.data[:, 0] = [0.2, 5.5, 0.2, 2.5, 0.2]
            res2 = execute_moveloop(part, ctx)
        return w.state() + [res.foreign_particles, res.foreign_cells,
                            [res.total_hops, res2.total_hops,
                             res2.n_foreign]]

    warm = warm_equals_cold(backend, scenario)
    if backend == "vec" and NATIVE:      # one generated loop per variant
        decl, = warm.ctx.sites.values()
        assert sorted(decl.bindings) == [False, True]


GOLDEN = Path(__file__).parents[1] / "apps" / "golden_histories.json"
#: 2 ranks, 6 steps, recorded at the parent of the call-site memo (plain
#: ``vec`` on the native tier; ``sim`` and ``proc`` agreed); ``field_energy``
#: re-recorded when the KSP solve's reductions became sequential sums
FEMPIC_2R = {
    "n_particles":
        "231767104b3b539626d804f95536be2f530a4246a00f2c6768c310e16ecbac7a",
    "field_energy":
        "531ea12bcad83e57d83fb3f83297d89539ec61d57707c6d6426fdc6fe663cb0d",
    "max_phi":
        "179754f17e6df9821769a12e48fe4150cfb2ec9e2f3ff88a8e956a5b6c147ef7",
    "injected":
        "68f283b57c859a73ddbefc825614d2f9ad52268e3e4021806ef10bb6d907b81f",
    "removed":
        "9242d1c946f48f37b5e3fee1953b62a53c971db5bbabdce2c120f67227a055c2",
}


@needs_cc
@pytest.mark.parametrize("transport", ["sim", "proc"])
@pytest.mark.parametrize("app", ["cabana", "fempic"])
def test_two_rank_histories_with_migration_are_the_recorded_ones(
        app, transport):
    from repro.apps.cabana import CabanaConfig
    from repro.apps.fempic import FemPicConfig
    from repro.dist.driver import run_distributed

    if app == "cabana":
        config, seed = CabanaConfig.smoke().scaled(backend="vec"), None
        want = json.loads(GOLDEN.read_text())["cabana/vec/2r"]
    else:
        config = FemPicConfig.smoke().scaled(dt=0.2, backend="vec")
        seed, want = 5, FEMPIC_2R
    res = run_distributed(app, config, nranks=2, transport=transport,
                          n_steps=6, seed_ppc=seed)
    got = {}
    for key, series in res.history.items():     # as test_golden_histories
        arr = np.asarray(series)
        arr = arr.astype(np.int64 if arr.dtype.kind in "iu" else np.float64)
        got[key] = hashlib.sha256(arr.tobytes()).hexdigest()
    assert {k: got.get(k) for k in want} == want
    moves = [st for st in res.perf.loops.values() if st.is_move]
    # more move launches than rank-steps: particles migrated and resumed
    assert sum(st.calls for st in moves) > 2 * 6


# -- the kernel's static counts ----------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_untranslatable_kernel_is_not_parsed_again(backend, monkeypatch):
    import repro.translator.parser as parser
    parses = []
    real = parser.parse_kernel
    monkeypatch.setattr(parser, "parse_kernel",
                        lambda k: parses.append(k.name) or real(k))
    with push_context(Context(backend)):
        s = decl_set(4)
        x = decl_dat(s, 1, np.float64)

        def launch():
            par_loop(while_kernel, "While", s, OPP_ITERATE_ALL,
                     arg_dat(x, OPP_RW))

        for _ in range(3):
            launch()
        del parses[:]
        for _ in range(50):
            launch()
    assert parses == []
    assert x.data[:, 0].tolist() == [106.0] * 4
