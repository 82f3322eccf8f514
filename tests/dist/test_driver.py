"""run_distributed: one code path, two transports.  Real rank processes
must reproduce the simulated run exactly — histories, comm ledgers,
field-solve ledgers — for every app and for MPI+X backends."""
import numpy as np
import pytest

from repro.apps.cabana import CabanaConfig
from repro.apps.fempic import FemPicConfig
from repro.apps.twod.config import TwoDConfig
from repro.dist.driver import DistResult, run_distributed

CFG_FEM = FemPicConfig.smoke().scaled(n_steps=5, dt=0.2)
CFG_CAB = CabanaConfig.smoke().scaled(n_steps=5)
CFG_2D = TwoDConfig(n_steps=5)


@pytest.fixture(scope="module")
def fem_sim2():
    return run_distributed("fempic", CFG_FEM, nranks=2, transport="sim")


def _assert_histories_equal(a: dict, b: dict):
    assert a.keys() == b.keys()
    for key in a:
        np.testing.assert_array_equal(np.asarray(a[key]),
                                      np.asarray(b[key]))


def test_fempic_proc_matches_sim_exactly(fem_sim2):
    proc = run_distributed("fempic", CFG_FEM, nranks=2, transport="proc")
    _assert_histories_equal(proc.history, fem_sim2.history)
    np.testing.assert_array_equal(proc.stats.msg_count,
                                  fem_sim2.stats.msg_count)
    np.testing.assert_array_equal(proc.stats.msg_bytes,
                                  fem_sim2.stats.msg_bytes)
    assert proc.stats.collectives == fem_sim2.stats.collectives
    assert proc.solve_stats is not None
    assert proc.solve_stats.total_bytes == \
        fem_sim2.solve_stats.total_bytes


def test_fempic_proc_4rank_matches(fem_sim2):
    proc = run_distributed("fempic", CFG_FEM, nranks=4, transport="proc")
    np.testing.assert_allclose(proc.history["field_energy"],
                               fem_sim2.history["field_energy"],
                               rtol=1e-10)
    assert proc.history["n_particles"] == fem_sim2.history["n_particles"]


def test_cabana_proc_matches_sim():
    sim = run_distributed("cabana", CFG_CAB, nranks=2, transport="sim")
    proc = run_distributed("cabana", CFG_CAB, nranks=2, transport="proc")
    _assert_histories_equal(proc.history, sim.history)
    np.testing.assert_array_equal(proc.stats.msg_count,
                                  sim.stats.msg_count)


def test_twod_proc_matches_sim():
    sim = run_distributed("twod", CFG_2D, nranks=3, transport="sim")
    proc = run_distributed("twod", CFG_2D, nranks=3, transport="proc")
    _assert_histories_equal(proc.history, sim.history)


def test_fempic_dh_proc_counts_rma(fem_sim2):
    cfg = CFG_FEM.scaled(move_strategy="dh")
    proc = run_distributed("fempic", cfg, nranks=2, transport="proc")
    sim = run_distributed("fempic", cfg, nranks=2, transport="sim")
    _assert_histories_equal(proc.history, sim.history)
    assert proc.stats.rma_ops == sim.stats.rma_ops > 0
    assert proc.stats.rma_bytes == sim.stats.rma_bytes


def test_mpi_plus_x_proc_ranks_run_omp_backend(fem_sim2):
    """True MPI+X: each rank process runs the omp backend (thread-private
    scatter arrays) on-node; the histories must equal the simulated
    ranks' bit for bit and the plain run's up to reassociation."""
    cfg = CFG_FEM.scaled(backend="omp")
    proc = run_distributed("fempic", cfg, nranks=2, transport="proc")
    sim = run_distributed("fempic", cfg, nranks=2, transport="sim")
    _assert_histories_equal(proc.history, sim.history)
    np.testing.assert_allclose(proc.history["field_energy"],
                               fem_sim2.history["field_energy"],
                               rtol=1e-12)
    assert proc.history["n_particles"] == fem_sim2.history["n_particles"]


def test_dist_result_perf_merge(fem_sim2):
    proc = run_distributed("fempic", CFG_FEM, nranks=2, transport="proc")
    assert isinstance(proc, DistResult)
    busy = proc.busy_seconds_per_rank()
    assert len(busy) == 2 and all(b > 0 for b in busy)
    assert proc.critical_path_seconds == max(busy)
    # rank 0 carries the gathered Newton solve on top of its loops
    assert proc.rank_perf[0].get("Solve") is not None
    assert proc.wall_seconds > 0
    assert len(proc.rank_walls) == 2


def test_run_distributed_validates_inputs():
    with pytest.raises(ValueError, match="transport"):
        run_distributed("fempic", CFG_FEM, nranks=2, transport="tcp")
    with pytest.raises(ValueError, match="config"):
        run_distributed("fempic", None, nranks=2)
    with pytest.raises(ValueError, match="unknown app"):
        run_distributed("nothere", CFG_FEM, nranks=2, transport="sim")
