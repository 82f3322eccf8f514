"""Distributed Mini-FEM-PIC must reproduce the single-rank run exactly
(same injection stream, same physics) for any rank count or partitioner."""
import numpy as np
import pytest

from repro.apps.fempic import FemPicConfig, FemPicSimulation
from repro.apps.fempic.distributed import DistributedFemPic

CFG = FemPicConfig.smoke().scaled(n_steps=8, dt=0.2)


@pytest.fixture(scope="module")
def single():
    sim = FemPicSimulation(CFG)
    sim.run()
    return sim


def _assert_matches(dist, single):
    """What N-rank FemPIC owes the single-rank run: the same history
    keys, integer series exactly, float series to regrouped-sum
    accuracy."""
    assert dist.history.keys() == single.history.keys()
    for key in ("n_particles", "injected", "removed"):
        assert dist.history[key] == single.history[key], key
    for key in ("field_energy", "max_phi"):
        np.testing.assert_allclose(dist.history[key], single.history[key],
                                   rtol=1e-10, err_msg=key)


@pytest.mark.parametrize("nranks", [1, 2, 3, 4])
def test_matches_single_rank(single, nranks):
    dist = DistributedFemPic(CFG, nranks=nranks)
    dist.run()
    _assert_matches(dist, single)


@pytest.mark.parametrize("nranks", [1, 2, 3])
def test_seeded_run_matches_single_rank(nranks):
    """Seeding draws from rank 0's stream, so the injection that follows
    continues where the single-rank run's does (it used to restart the
    stream, and ``n_particles`` drifted from the first step on)."""
    single = FemPicSimulation(CFG)
    single.seed_uniform_plasma(5)
    single.run()
    dist = DistributedFemPic(CFG, nranks=nranks)
    assert dist.seed_uniform_plasma(5) == 5 * CFG.n_cells
    dist.run()
    _assert_matches(dist, single)


def test_injection_count_is_exact_when_face_areas_do_not_sum_to_lx_ly():
    """On a 5x7 inlet the face areas sum to an ulp under lx*ly; rank 0's
    share of the rate must still be exactly 1 (it was 1 - ulp, and
    int(20.0 * share) injected 19)."""
    cfg = CFG.scaled(nx=5, ny=7, n_steps=3)
    single = FemPicSimulation(cfg)
    single.run()
    dist = DistributedFemPic(cfg, nranks=2)
    dist.run()
    assert dist.history["injected"] == single.history["injected"]
    assert dist.history["n_particles"] == single.history["n_particles"]


# -- every config field the one-rank run honours, at N ranks -------------------


@pytest.mark.parametrize("field, value", [
    ("collision_frequency", 2.0), ("injection_temperature", 0.04)])
def test_stochastic_fields_are_honoured(single, field, value):
    """At one rank the streams are the single-rank ones; at two the run
    at least differs from the run with the field left off."""
    cfg = CFG.scaled(**{field: value})
    want = FemPicSimulation(cfg)
    want.run()
    one = DistributedFemPic(cfg, nranks=1)
    one.run()
    assert one.history == want.history
    two = DistributedFemPic(cfg, nranks=2)
    two.run()
    assert two.history["field_energy"] != single.history["field_energy"]
    assert np.isfinite(two.history["field_energy"]).all()


def test_mesh_file_is_loaded_at_n_ranks(single, tmp_path):
    from repro.mesh import duct_mesh
    from repro.mesh.io import save_mesh
    path = save_mesh(duct_mesh(CFG.nx, CFG.ny, CFG.nz, CFG.lx, CFG.ly,
                               CFG.lz), tmp_path / "duct.npz")
    # geometry fields that disagree with the file must not matter
    dist = DistributedFemPic(CFG.scaled(mesh_file=str(path), nz=3),
                             nranks=2)
    dist.run()
    _assert_matches(dist, single)
    # the layers a rebalance may not split come from the mesh, not cfg.nz
    owner = dist._elastic_partition(np.ones(dist.mesh.n_cells))
    assert np.bincount(owner).tolist() == [72, 72]


def test_dh_distributed_matches(single):
    dist = DistributedFemPic(CFG.scaled(move_strategy="dh"), nranks=3)
    dist.run()
    np.testing.assert_allclose(dist.history["field_energy"],
                               single.history["field_energy"], rtol=1e-10)


@pytest.mark.parametrize("method", ["rcb", "graph", "block"])
def test_partitioner_robustness(single, method):
    """Any partitioner must yield a healthy run.  When inlet faces spread
    over several ranks the per-rank injection streams (and rounding
    carries) differ from the single-rank run, so only statistical
    agreement is required."""
    dist = DistributedFemPic(CFG, nranks=2, partition_method=method)
    dist.run()
    n_single = single.history["n_particles"][-1]
    n_dist = dist.history["n_particles"][-1]
    assert abs(n_dist - n_single) <= 2 * CFG.n_steps
    e = np.array(dist.history["field_energy"])
    assert np.isfinite(e).all() and (e > 0).all()
    for rk in dist.ranks:
        live = rk.p2c.p2c[: rk.parts.size]
        assert (live >= 0).all()
        assert (live < rk.rm.n_owned_cells).all()


def test_all_live_particles_in_owned_cells():
    dist = DistributedFemPic(CFG, nranks=3)
    dist.run()
    for rk in dist.ranks:
        live = rk.p2c.p2c[: rk.parts.size]
        assert (live >= 0).all()
        assert (live < rk.rm.n_owned_cells).all()


def test_comm_traffic_recorded():
    dist = DistributedFemPic(CFG, nranks=2)
    dist.run()
    assert dist.comm.stats.total_messages > 0
    assert dist.comm.stats.total_bytes > 0
    assert dist.comm.stats.collectives > 0


def test_busy_seconds_per_rank_reported():
    dist = DistributedFemPic(CFG, nranks=2)
    dist.run()
    busy = dist.busy_seconds_per_rank()
    assert len(busy) == 2
    assert all(b > 0 for b in busy)
