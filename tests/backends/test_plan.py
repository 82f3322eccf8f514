"""Loop-plan cache (OP2-style): reuse, correctness, exclusions."""
import numpy as np
import pytest

from repro.core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_READ, OPP_WRITE,
                            Context, arg_dat, decl_dat, decl_map,
                            decl_particle_set, decl_set, par_loop,
                            push_context)


pytestmark = pytest.mark.usefixtures("numpy_target")


def gather_kernel(out, a, b):
    out[0] = a[0] + b[0]


def deposit_kernel(w, n0):
    n0[0] += w[0]


def build_mesh_world():
    cells = decl_set(5)
    nodes = decl_set(6)
    c2n = decl_map(cells, nodes, 2,
                   [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]])
    nd = decl_dat(nodes, 1, np.float64, np.arange(6.0))
    out = decl_dat(cells, 1, np.float64)
    return cells, c2n, nd, out


def run_gather(cells, c2n, nd, out):
    par_loop(gather_kernel, "gather", cells, OPP_ITERATE_ALL,
             arg_dat(out, OPP_WRITE),
             arg_dat(nd, 0, c2n, OPP_READ),
             arg_dat(nd, 1, c2n, OPP_READ))


def test_mesh_loop_plans_are_reused():
    ctx = Context("vec")
    with push_context(ctx):
        world = build_mesh_world()
        run_gather(*world)
        assert ctx.backend.plan.misses == 2   # one per indirect arg
        assert ctx.backend.plan.hits == 0
        for _ in range(3):
            run_gather(*world)
        assert ctx.backend.plan.misses == 2
        assert ctx.backend.plan.hits == 6
        np.testing.assert_allclose(world[3].data[:, 0],
                                   [1.0, 3.0, 5.0, 7.0, 9.0])


def test_particle_loops_never_planned():
    ctx = Context("vec")
    with push_context(ctx):
        cells = decl_set(3)
        nodes = decl_set(3)
        parts = decl_particle_set(cells, 4)
        c2n = decl_map(cells, nodes, 1, [[0], [1], [2]])
        p2c = decl_map(parts, cells, 1, [[0], [1], [1], [2]])
        w = decl_dat(parts, 1, np.float64, np.ones(4))
        nd = decl_dat(nodes, 1, np.float64)
        for _ in range(2):
            par_loop(deposit_kernel, "dep", parts, OPP_ITERATE_ALL,
                     arg_dat(w, OPP_READ),
                     arg_dat(nd, 0, c2n, p2c, OPP_INC))
        assert len(ctx.backend.plan) == 0     # dynamic map → unplannable
        np.testing.assert_allclose(nd.data[:, 0], [2.0, 4.0, 2.0])


def test_plan_respects_owner_compute_window():
    ctx = Context("vec")
    with push_context(ctx):
        cells, c2n, nd, out = build_mesh_world()
        run_gather(cells, c2n, nd, out)
        cells.owned_size = 3                  # different iteration window
        out.fill(0.0)
        run_gather(cells, c2n, nd, out)
        # a second plan entry was built for the smaller window
        assert ctx.backend.plan.misses == 4
        assert out.data[:, 0].tolist() == [1.0, 3.0, 5.0, 0.0, 0.0]


def test_plan_clear():
    ctx = Context("vec")
    with push_context(ctx):
        world = build_mesh_world()
        run_gather(*world)
        ctx.backend.plan.clear()
        assert len(ctx.backend.plan) == 0
        run_gather(*world)                    # rebuilt, still correct
        np.testing.assert_allclose(world[3].data[:, 0],
                                   [1.0, 3.0, 5.0, 7.0, 9.0])


@pytest.mark.parametrize("backend", ["omp", "cuda", "hip"])
def test_all_vec_family_backends_have_plans(backend):
    ctx = Context(backend)
    with push_context(ctx):
        world = build_mesh_world()
        run_gather(*world)
        run_gather(*world)
        assert ctx.backend.plan.hits > 0
