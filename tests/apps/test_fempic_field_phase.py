"""The fempic field phase and inlet sampler are bit-equal by construction
to the code they replaced; the old forms live on here as oracles."""
import numpy as np
import pytest
import scipy.sparse as sp

from repro.apps.fempic import FemPicConfig, FemPicSimulation
from repro.apps.fempic.distributed import DistributedFemPic
from repro.apps.fempic.simulation import sample_inlet_positions
from repro.fem import KSPSolver


class FreshAssembly:
    """Stands in for ``sim.newton``: assemble ``K + diag``, slice the free
    block and build a new solver on every call, as ``field_solve`` did
    before :class:`repro.fem.NewtonSystem`."""

    def __init__(self, sim):
        self.k, self.free = sim.K, sim.dirichlet.free
        self.rtol = sim.cfg.ksp_rtol
        self.a = sim.newton.a

    def solve(self, shift, rhs):
        jdiag = np.zeros(self.k.shape[0])
        jdiag[self.free] = shift
        a = (self.k + sp.diags(jdiag)).tocsr()
        a_ff = a[self.free][:, self.free]
        return KSPSolver(a_ff, pc="jacobi", rtol=self.rtol).solve(rhs)


def build(backend, seed, nranks):
    cfg = FemPicConfig.smoke().scaled(backend=backend, seed=seed)
    if nranks == 1:
        return FemPicSimulation(cfg)
    return DistributedFemPic(cfg, nranks=nranks)


@pytest.mark.parametrize("nranks", [1, 2])
@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("backend", ["seq", "vec"])
def test_history_bit_equal_to_fresh_assembly(backend, seed, nranks):
    new = build(backend, seed, nranks)
    old = build(backend, seed, nranks)
    old.newton = FreshAssembly(old)
    got, want = new.run(6), old.run(6)
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


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
