"""2-D sheet model: cold-plasma oscillation at the plasma frequency."""
import numpy as np
import pytest

from repro.apps.twod import (TwoDConfig, TwoDSheetModel,
                             build_tri_stiffness, lumped_node_areas)
from repro.mesh.tri import square_tri_mesh

CFG = TwoDConfig(nx=16, ny=8, ppc=8, dt=0.05, n_steps=0)


def test_tri_stiffness_properties():
    mesh = square_tri_mesh(5, 4, 1.0, 1.0)
    k = build_tri_stiffness(mesh)
    assert abs(k - k.T).max() < 1e-12
    assert np.abs(k @ np.ones(mesh.n_nodes)).max() < 1e-12
    assert lumped_node_areas(mesh).sum() == pytest.approx(1.0)


def test_neutral_plasma_is_quiet():
    """No displacement → only particle-noise fields, clearly below the
    seeded mode's field."""
    sim = TwoDSheetModel(CFG.scaled(displacement=0.0))
    sim.run(1)
    seeded = TwoDSheetModel(CFG.scaled(displacement=0.05))
    seeded.run(1)
    assert sim.history["field_energy"][0] < \
        0.5 * seeded.history["field_energy"][0]


def test_langmuir_oscillation_at_plasma_frequency():
    """The seeded mode's field energy dips every half Langmuir period:
    the minima spacing measures ωp (P1-FEM PIC with a handful of
    particles per cell and slow wall loss lands within ~20%)."""
    cfg = CFG.scaled(n_steps=300)
    sim = TwoDSheetModel(cfg)
    sim.run()
    e = np.array(sim.history["field_energy"])
    mins = np.flatnonzero((e[1:-1] < e[:-2]) & (e[1:-1] < e[2:])) + 1
    assert len(mins) >= 3, "expected several oscillation minima"
    spacing = np.median(np.diff(mins).astype(float))
    omega = np.pi / (spacing * cfg.dt)
    assert omega == pytest.approx(cfg.plasma_frequency, rel=0.2)


def test_particles_mostly_retained():
    cfg = CFG.scaled(n_steps=100)
    sim = TwoDSheetModel(cfg)
    sim.run()
    assert sim.history["n_particles"][-1] > 0.9 * cfg.n_particles
    lc = sim.lc.data[: sim.parts.size]
    np.testing.assert_allclose(lc.sum(axis=1), 1.0, atol=1e-9)
    assert (lc >= -1e-9).all()


@pytest.mark.parametrize("backend", ["seq", "cuda"])
def test_backends_match(backend):
    ref = TwoDSheetModel(CFG)
    ref.run(5)
    other = TwoDSheetModel(CFG.scaled(backend=backend))
    other.run(5)
    np.testing.assert_allclose(other.history["field_energy"],
                               ref.history["field_energy"], rtol=1e-10)
    assert other.history["n_particles"] == ref.history["n_particles"]


@pytest.mark.parametrize("nranks", [1, 2, 3])
def test_distributed_matches_single(nranks):
    from repro.apps.twod.distributed import DistributedTwoD
    cfg = CFG.scaled(n_steps=15)
    single = TwoDSheetModel(cfg)
    single.run()
    dist = DistributedTwoD(cfg, nranks=nranks)
    dist.run()
    a = np.array(dist.history["field_energy"])
    b = np.array(single.history["field_energy"])
    assert np.abs(a - b).max() / b.max() < 1e-12
    assert dist.history["n_particles"] == single.history["n_particles"]
    np.testing.assert_allclose(dist.history["com_x"],
                               single.history["com_x"], rtol=1e-12)
    if nranks == 1:
        # the one-rank case exchanges nothing at all
        assert dist.history == single.history
        assert dist.comm.stats.total_messages == 0
        assert dist.comm.stats.collectives == 0
        assert dist.solve_stats.total_bytes == 0
        return
    # PIC traffic flows (migration + halos); solve ledger is separate
    assert dist.comm.stats.total_messages > 0
    assert dist.solve_stats.total_bytes > 0


def test_lumped_node_areas_bit_equal_to_add_at_form():
    from repro.apps.twod.simulation import lumped_node_areas
    from repro.mesh.tri import square_tri_mesh
    mesh = square_tri_mesh(7, 5, 1.0, 1.0)
    want = np.zeros(mesh.n_nodes)
    np.add.at(want, mesh.cell2node.ravel(), np.repeat(mesh.areas / 3.0, 3))
    assert np.array_equal(lumped_node_areas(mesh), want)
