"""The fempic field phase and inlet sampler are bit-equal by construction
to the code they replaced; the old forms live on here as oracles."""
import time
from math import exp

import numpy as np
import pytest
import scipy.sparse as sp

from repro.apps.fempic import FemPicConfig, FemPicSimulation
from repro.apps.fempic.distributed import DistributedFemPic
from repro.apps.fempic.simulation import sample_inlet_positions
from repro.core.api import (CONST, OPP_ITERATE_ALL, OPP_READ, OPP_WRITE,
                            arg_dat, decl_dat, par_loop)
from repro.fem import KSPSolver
from repro.translator import native

NATIVE = native.compiler() is not None


def compute_f1_vector_kernel(f1, kphi, w, phi, vol):
    """Newton residual at a node: stiffness action minus ion charge plus
    the Boltzmann-electron term (all scaled by 1/eps0)."""
    f1[0] = kphi[0] - (w[0] * CONST.spwt * CONST.ion_charge
                       - vol[0] * CONST.n0
                       * exp((phi[0] - CONST.phi0) / CONST.kTe)) \
        * CONST.inv_eps0


def compute_j_matrix_kernel(jd, phi, vol):
    """Diagonal Jacobian contribution of the Boltzmann-electron term."""
    jd[0] = vol[0] * CONST.n0 * CONST.inv_eps0 / CONST.kTe \
        * exp((phi[0] - CONST.phi0) / CONST.kTe)


def fresh_assembly_solve(sim, shift, rhs):
    """Assemble ``K + diag``, slice the free block and build a new solver,
    as ``field_solve`` did before :class:`repro.fem.NewtonSystem`."""
    free = sim.dirichlet.free
    jdiag = np.zeros(sim.K.shape[0])
    jdiag[free] = shift
    a = (sim.K + sp.diags(jdiag)).tocsr()
    return KSPSolver(a[free][:, free], pc="jacobi",
                     rtol=sim.cfg.ksp_rtol).solve(rhs)


class ParLoopNewton:
    """``FemPicSimulation._newton`` as it was before the compiled solve:
    per iteration ``K @ phi``, the ``ComputeF1Vector`` and
    ``ComputeJMatrix`` node loops through ``par_loop``, then one linear
    solve — here on a freshly assembled system.  Records each iteration's
    ``KSPResult``."""

    def __init__(self, sim):
        self.sim, self.results, self.dats = sim, [], None

    def __call__(self, s) -> None:
        sim = self.sim
        if self.dats is None:       # declared in the solve's context
            self.dats = [decl_dat(s.nodes, 1, np.float64, None, name)
                         for name in ("stiffness_action", "f1_vector",
                                      "j_diag")]
        kphi, f1, jdiag = self.dats
        free = sim.dirichlet.free
        for _ in range(sim.cfg.newton_iters):
            kphi.data[:, 0] = sim.K @ s.phi.data[:, 0]
            par_loop(compute_f1_vector_kernel, "ComputeF1Vector",
                     s.nodes, OPP_ITERATE_ALL,
                     arg_dat(f1, OPP_WRITE), arg_dat(kphi, OPP_READ),
                     arg_dat(s.nw, OPP_READ), arg_dat(s.phi, OPP_READ),
                     arg_dat(s.nvol, OPP_READ))
            par_loop(compute_j_matrix_kernel, "ComputeJMatrix",
                     s.nodes, OPP_ITERATE_ALL,
                     arg_dat(jdiag, OPP_WRITE), arg_dat(s.phi, OPP_READ),
                     arg_dat(s.nvol, OPP_READ))
            t0 = time.perf_counter()
            result = fresh_assembly_solve(sim, jdiag.data[free, 0],
                                          -f1.data[free, 0])
            s.phi.data[free, 0] += result.x
            s.ctx.perf.record_loop("Solve", n=free.size,
                                   seconds=time.perf_counter() - t0)
            self.results.append(result)


def build(backend, seed, nranks):
    cfg = FemPicConfig.smoke().scaled(backend=backend, seed=seed)
    if nranks == 1:
        return FemPicSimulation(cfg)
    return DistributedFemPic(cfg, nranks=nranks)


@pytest.mark.parametrize("nranks", [1, 2])
@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("backend", ["seq", "vec"])
def test_history_bit_equal_to_fresh_assembly(backend, seed, nranks):
    """The compiled solve against the kernels it replaced, both with libm
    ``exp``: ``seq`` calls ``math.exp`` per node, the native tier compiles
    it (the NumPy target's ``np.exp`` rounds differently)."""
    if backend == "vec" and not NATIVE:
        pytest.skip("the par_loop oracle is bit-equal on the native tier")
    new = build(backend, seed, nranks)
    old = build(backend, seed, nranks)
    old._newton = ParLoopNewton(old)
    got, want = new.run(6), old.run(6)
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)
    loops = new.ranks[0].ctx.perf.loops
    assert "ComputeF1Vector" not in loops and "ComputeJMatrix" not in loops


@pytest.mark.parametrize("backend", ["seq", "vec"])
def test_history_bit_equal_to_the_par_loop_newton_off_unit_constants(
        backend):
    """As above with ``kTe``, ``eps0``, ``ion_charge`` and ``phi0`` away
    from 1.0 and 0.0, so a regrouped product in the compiled residual or
    Jacobian would round differently from the kernels'."""
    if backend == "vec" and not NATIVE:
        pytest.skip("the par_loop oracle is bit-equal on the native tier")
    cfg = FemPicConfig.smoke().scaled(backend=backend, seed=5, kTe=0.9,
                                      eps0=0.7, ion_charge=1.3, phi0=0.1)
    new, old = FemPicSimulation(cfg), FemPicSimulation(cfg)
    old._newton = ParLoopNewton(old)
    got, want = new.run(6), old.run(6)
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


def test_solve_row_counts_the_cg_iterations():
    """The ``Solve`` row's ``cg_iterations`` is the sum of the per-solve
    iteration counts the par_loop Newton's KSP results report."""
    new = build("seq", 3, 1)
    old = build("seq", 3, 1)
    oracle = old._newton = ParLoopNewton(old)
    new.run(5)
    old.run(5)
    row = new.ctx.perf.loops["Solve"]
    want = sum(r.iterations for r in oracle.results)
    assert want > 0 and row.extras["cg_iterations"] == want
    assert row.calls == 5
    sweeps = sum(max(r.iterations, 1) for r in oracle.results)
    assert row.flops == 2.0 * new.newton.a.nnz * sweeps


def test_distributed_solve_row_has_a_cost_model():
    dist = build("seq", 3, 2)
    dist.run(2)
    row = dist.ranks[0].ctx.perf.loops["Solve"]
    assert row.flops > 0.0 and row.nbytes == 6.0 * row.flops


def choice_sampler(mesh, count, rng):
    """``sample_inlet_positions`` as it was: the table rebuilt and the
    faces drawn with ``rng.choice`` on every call."""
    faces = mesh.tags["inlet_faces"]
    tri = mesh.points[faces[:, 2:]]
    areas = 0.5 * np.linalg.norm(
        np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)
    pick = rng.choice(faces.shape[0], size=count, p=areas / areas.sum())
    r1 = rng.random(count)
    r2 = rng.random(count)
    flip = r1 + r2 > 1.0
    r1[flip] = 1.0 - r1[flip]
    r2[flip] = 1.0 - r2[flip]
    t = tri[pick]
    pos = t[:, 0] + r1[:, None] * (t[:, 1] - t[:, 0]) \
        + r2[:, None] * (t[:, 2] - t[:, 0])
    pos[:, 2] += 1e-9 * mesh.tags["extent"][2]
    return pos, faces[pick, 0]


def test_inlet_sampler_bit_equal_to_rng_choice():
    sim = FemPicSimulation(FemPicConfig.smoke())
    for seed in range(50):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for count in (1, 17, 400):
            pos, cells = sample_inlet_positions(sim.inlet, count, a)
            want_pos, want_cells = choice_sampler(sim.mesh, count, b)
            np.testing.assert_array_equal(pos, want_pos)
            np.testing.assert_array_equal(cells, want_cells)
        assert a.bit_generator.state == b.bit_generator.state


def test_sampling_without_inlet_faces_raises():
    dist = build("seq", 3, 2)
    empty = [rk.inlet for rk in dist.ranks if rk.inlet.cdf.size == 0]
    assert empty, "the z-slab partition leaves rank 1 without inlet faces"
    with pytest.raises(RuntimeError, match="no inlet faces"):
        sample_inlet_positions(empty[0], 4, np.random.default_rng(0))
