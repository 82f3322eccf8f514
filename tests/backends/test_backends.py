"""Cross-backend consistency: every backend must produce the sequential
reference answer for randomized loop/move workloads (the DSL's core
guarantee), plus backend-specific extras."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_READ, OPP_RW,
                            Context, arg_dat, decl_dat, decl_map,
                            decl_particle_set, decl_set, par_loop,
                            particle_move, push_context)

OTHERS = ["vec", "omp", "cuda", "hip"]


def saxpy_kernel(x, y):
    y[0] = y[0] + 2.5 * x[0]
    y[1] = y[1] - x[1]


def deposit2_kernel(w, a, b):
    a[0] += w[0]
    b[0] += w[0] * 0.5


def walk_kernel(move, p):
    lo = move.cell * 1.0
    if p[0] < lo:
        move.move_to(move.c2c[0])
    elif p[0] >= lo + 1.0:
        move.move_to(move.c2c[1])
    else:
        move.done()


def build_deposit_world(seed, n_parts):
    rng = np.random.default_rng(seed)
    cells = decl_set(6)
    nodes = decl_set(8)
    parts = decl_particle_set(cells, n_parts)
    c2n = decl_map(cells, nodes, 2,
                   rng.integers(0, 8, size=(6, 2)))
    p2c = decl_map(parts, cells, 1,
                   rng.integers(0, 6, size=(n_parts, 1)))
    w = decl_dat(parts, 1, np.float64, rng.normal(size=n_parts))
    nd = decl_dat(nodes, 1, np.float64)
    return parts, c2n, p2c, w, nd


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16), n_parts=st.integers(1, 64),
       backend=st.sampled_from(OTHERS))
def test_property_deposit_matches_seq(seed, n_parts, backend):
    with push_context(Context("seq")):
        parts, c2n, p2c, w, nd = build_deposit_world(seed, n_parts)
        par_loop(deposit2_kernel, "dep", parts, OPP_ITERATE_ALL,
                 arg_dat(w, OPP_READ),
                 arg_dat(nd, 0, c2n, p2c, OPP_INC),
                 arg_dat(nd, 1, c2n, p2c, OPP_INC))
        expected = nd.data.copy()
    with push_context(Context(backend)):
        parts, c2n, p2c, w, nd = build_deposit_world(seed, n_parts)
        par_loop(deposit2_kernel, "dep", parts, OPP_ITERATE_ALL,
                 arg_dat(w, OPP_READ),
                 arg_dat(nd, 0, c2n, p2c, OPP_INC),
                 arg_dat(nd, 1, c2n, p2c, OPP_INC))
        np.testing.assert_allclose(nd.data, expected, rtol=1e-12,
                                   atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16), backend=st.sampled_from(OTHERS))
def test_property_move_matches_seq(seed, backend):
    rng = np.random.default_rng(seed)
    n_cells, n_parts = 8, 40
    positions = rng.uniform(-1.0, n_cells + 1.0, size=n_parts)
    starts = rng.integers(0, n_cells, size=n_parts)

    results = {}
    for be in ("seq", backend):
        with push_context(Context(be)):
            cells = decl_set(n_cells)
            c2c = decl_map(cells, cells, 2,
                           [[i - 1, i + 1 if i + 1 < n_cells else -1]
                            for i in range(n_cells)])
            parts = decl_particle_set(cells, n_parts)
            p2c = decl_map(parts, cells, 1, starts.reshape(-1, 1))
            pos = decl_dat(parts, 1, np.float64, positions)
            res = particle_move(walk_kernel, "walk", parts, c2c, p2c,
                                arg_dat(pos, OPP_READ))
            # survivors identified by their position value (order differs
            # after hole filling)
            results[be] = (res.n_removed,
                           sorted(zip(pos.data[:, 0], p2c.p2c.tolist())))
    assert results["seq"][0] == results[backend][0]
    seq_pairs = results["seq"][1]
    oth_pairs = results[backend][1]
    assert [c for _, c in seq_pairs] == [c for _, c in oth_pairs]
    np.testing.assert_allclose([p for p, _ in seq_pairs],
                               [p for p, _ in oth_pairs])


@pytest.mark.parametrize("backend", OTHERS)
def test_rw_direct_roundtrip(backend):
    with push_context(Context(backend)):
        s = decl_set(5)
        x = decl_dat(s, 2, np.float64, np.arange(10.0).reshape(5, 2))
        y = decl_dat(s, 2, np.float64, np.ones((5, 2)))
        par_loop(saxpy_kernel, "saxpy", s, OPP_ITERATE_ALL,
                 arg_dat(x, OPP_READ), arg_dat(y, OPP_RW))
        expected = np.ones((5, 2))
        expected[:, 0] += 2.5 * np.arange(10.0).reshape(5, 2)[:, 0]
        expected[:, 1] -= np.arange(10.0).reshape(5, 2)[:, 1]
        np.testing.assert_allclose(y.data, expected)


def test_device_backend_reports_extras():
    ctx = Context("cuda")
    with push_context(ctx):
        parts, c2n, p2c, w, nd = build_deposit_world(1, 32)
        par_loop(deposit2_kernel, "dep", parts, OPP_ITERATE_ALL,
                 arg_dat(w, OPP_READ),
                 arg_dat(nd, 0, c2n, p2c, OPP_INC),
                 arg_dat(nd, 1, c2n, p2c, OPP_INC))
    st_ = ctx.perf.get("dep")
    assert st_.extras["device"] == "cuda"
    assert st_.extras["strategy"] == "atomics"
    assert st_.max_collisions >= 1


def test_omp_backend_reports_threads():
    ctx = Context("omp", nthreads=3)
    with push_context(ctx):
        s = decl_set(4)
        x = decl_dat(s, 2, np.float64)
        y = decl_dat(s, 2, np.float64)
        par_loop(saxpy_kernel, "saxpy", s, OPP_ITERATE_ALL,
                 arg_dat(x, OPP_READ), arg_dat(y, OPP_RW))
    assert ctx.perf.get("saxpy").extras["nthreads"] == 3


def int_minmax_kernel(v, mn, mx):
    mn[0] = min(mn[0], v[0])
    mx[0] = max(mx[0], v[0])


@pytest.mark.parametrize("backend", ["seq", "vec", "omp"])
def test_integer_global_min_max(backend, numpy_target):
    """An int64 global MIN used to come back as INT64_MIN: the NumPy
    target seeded its reduction buffer with ``inf`` whatever the dtype."""
    from repro.core.api import OPP_MAX, OPP_MIN, arg_gbl, decl_global
    with push_context(Context(backend)):
        s = decl_set(64)
        v = decl_dat(s, 1, np.int64, np.arange(10, 74))
        mn = decl_global(1, np.int64, [100])
        mx = decl_global(1, np.int64, [-100])
        par_loop(int_minmax_kernel, "int_minmax", s, OPP_ITERATE_ALL,
                 arg_dat(v, OPP_READ), arg_gbl(mn, OPP_MIN),
                 arg_gbl(mx, OPP_MAX))
        assert (mn.data[0], mx.data[0]) == (10, 73)
