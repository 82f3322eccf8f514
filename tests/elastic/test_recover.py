"""Snapshots and rank-failure recovery.

Same-rank-count recovery must be bit-exact (the partition is restored
identically, so even float reductions regroup the same way); shrinking
recovery must conserve the assembled state; the proc supervisor must
survive an injected hard rank death and reproduce the uninterrupted
run's history.
"""
import json

import numpy as np
import pytest

from repro.apps.fempic import FemPicConfig
from repro.apps.fempic.distributed import DistributedFemPic
from repro.apps.twod.config import TwoDConfig
from repro.apps.twod.distributed import DistributedTwoD
from repro.dist.driver import run_distributed
from repro.elastic import (latest_snapshot, restore_snapshot,
                           snapshot_step_dir, write_snapshot)
from repro.runtime import SimComm

CFG_FEM = FemPicConfig.smoke().scaled(n_steps=0, dt=0.2)


def _total_particles(app):
    return sum(app.ranks[r].parts.size
               for r in range(app.comm.nranks))


# -- snapshot directory protocol ----------------------------------------------

def test_latest_snapshot_scans_and_prunes(tmp_path):
    app = DistributedTwoD(TwoDConfig(n_steps=0), comm=SimComm(2))
    assert latest_snapshot(tmp_path) is None
    for step in (2, 4):
        app.step()
        write_snapshot(app, step, tmp_path, keep=2)
    step, snap = latest_snapshot(tmp_path)
    assert step == 4 and snap == snapshot_step_dir(tmp_path, 4)
    # keep=2 prunes the oldest once a third lands
    write_snapshot(app, 6, tmp_path, keep=2)
    assert not snapshot_step_dir(tmp_path, 2).exists()
    assert snapshot_step_dir(tmp_path, 4).exists()
    # a manifest-less (in-flight/crashed) dir is invisible
    snapshot_step_dir(tmp_path, 99).mkdir()
    assert latest_snapshot(tmp_path)[0] == 6


def test_manifest_format_mismatch_rejected(tmp_path):
    app = DistributedTwoD(TwoDConfig(n_steps=0), comm=SimComm(2))
    app.step()
    snap = write_snapshot(app, 1, tmp_path)
    manifest = json.loads((snap / "manifest.json").read_text())
    manifest["format"] = 999
    (snap / "manifest.json").write_text(json.dumps(manifest))
    assert latest_snapshot(tmp_path) is None
    fresh = DistributedTwoD(TwoDConfig(n_steps=0), comm=SimComm(2))
    with pytest.raises(ValueError, match="manifest"):
        restore_snapshot(fresh, snap)


def test_pickled_rng_extra_is_rejected_not_unpickled(tmp_path):
    """A rank file is outside input: an RNG stream that is not the JSON
    this version writes (here, format 1's pickle) is a ValueError."""
    import pickle
    cfg = FemPicConfig.smoke().scaled(n_steps=0, dt=0.2)
    app = DistributedFemPic(cfg, comm=SimComm(2))
    app.step()
    snap = write_snapshot(app, 1, tmp_path)
    rank_file = snap / "rank00000.npz"
    with np.load(rank_file) as data:
        payload = {k: data[k] for k in data.files}
    payload["__rng__"] = np.frombuffer(
        pickle.dumps(app.rngs[0].bit_generator.state), dtype=np.uint8)
    np.savez_compressed(rank_file, **payload)
    fresh = DistributedFemPic(cfg, comm=SimComm(2))
    with pytest.raises(ValueError, match="RNG state"):
        restore_snapshot(fresh, snap)


def test_format_2_snapshot_is_rejected_naming_its_format(tmp_path):
    app = DistributedTwoD(TwoDConfig(n_steps=0), comm=SimComm(2))
    app.step()
    snap = write_snapshot(app, 1, tmp_path)
    manifest = json.loads((snap / "manifest.json").read_text())
    manifest["format"] = 2
    (snap / "manifest.json").write_text(json.dumps(manifest))
    fresh = DistributedTwoD(TwoDConfig(n_steps=0), comm=SimComm(2))
    with pytest.raises(ValueError, match="format 2"):
        restore_snapshot(fresh, snap)


def test_snapshot_carries_elastic_state(tmp_path):
    app = DistributedTwoD(TwoDConfig(n_steps=0), comm=SimComm(2))
    app.step()
    state = {"policy": {"mode": "auto"}, "n_rebalances": 3}
    snap = write_snapshot(app, 1, tmp_path, elastic_state=state)
    fresh = DistributedTwoD(TwoDConfig(n_steps=0), comm=SimComm(2))
    step, restored = restore_snapshot(fresh, snap)
    assert step == 1
    assert restored == state


# -- restore paths ------------------------------------------------------------

def test_same_ranks_restore_is_bit_exact(tmp_path):
    ref = DistributedFemPic(CFG_FEM, comm=SimComm(2))
    for _ in range(8):
        ref.step()

    half = DistributedFemPic(CFG_FEM, comm=SimComm(2))
    for _ in range(4):
        half.step()
    write_snapshot(half, 4, tmp_path)

    resumed = DistributedFemPic(CFG_FEM, comm=SimComm(2))
    step, _ = restore_snapshot(resumed, latest_snapshot(tmp_path)[1])
    assert step == 4
    for _ in range(4):
        resumed.step()

    assert ref.history.keys() == resumed.history.keys()
    for key in ref.history:
        np.testing.assert_array_equal(np.asarray(ref.history[key]),
                                      np.asarray(resumed.history[key]),
                                      err_msg=key)
    for r in range(2):
        np.testing.assert_array_equal(
            resumed.ranks[r].phi.data,
            ref.ranks[r].phi.data)
        np.testing.assert_array_equal(
            resumed.ranks[r].pos.data,
            ref.ranks[r].pos.data)


def test_collisional_same_ranks_restore_is_bit_exact(tmp_path):
    """Each rank's collision stream and draw dat are in its rank file."""
    cfg = CFG_FEM.scaled(collision_frequency=2.0)
    ref = DistributedFemPic(cfg, comm=SimComm(2))
    ref.run(8)
    half = DistributedFemPic(cfg, comm=SimComm(2))
    half.run(4)
    write_snapshot(half, 4, tmp_path)

    resumed = DistributedFemPic(cfg, comm=SimComm(2))
    assert restore_snapshot(resumed, snapshot_step_dir(tmp_path, 4))[0] == 4
    resumed.run(4)
    assert resumed.history == ref.history
    assert sum(rk.collisions.total_collisions for rk in ref.ranks) > 0
    for r in range(2):
        np.testing.assert_array_equal(resumed.ranks[r].vel.data,
                                      ref.ranks[r].vel.data)


def test_restore_onto_more_ranks_rejected(tmp_path):
    app = DistributedTwoD(TwoDConfig(n_steps=0), comm=SimComm(2))
    app.step()
    snap = write_snapshot(app, 1, tmp_path)
    grown = DistributedTwoD(TwoDConfig(n_steps=0), comm=SimComm(3))
    with pytest.raises(ValueError, match="growing"):
        restore_snapshot(grown, snap)


def test_shrink_restore_conserves_particles(tmp_path):
    """3-rank snapshot onto 2 ranks: particles and owned rows survive
    the re-scatter, and the shrunken app keeps stepping."""
    cfg = TwoDConfig(n_steps=0)
    app = DistributedTwoD(cfg, comm=SimComm(3))
    for _ in range(3):
        app.step()
    n_before = _total_particles(app)
    snap = write_snapshot(app, 3, tmp_path)

    small = DistributedTwoD(cfg, comm=SimComm(2))
    step, _ = restore_snapshot(small, snap)
    assert step == 3
    assert _total_particles(small) == n_before
    assert small.history == app.history
    # every particle landed on the rank that owns its cell
    for r in range(2):
        rk = small.ranks[r]
        n = rk.parts.size
        gcell = small.meshes[r].cells_global[rk.p2c.p2c[:n]]
        assert (np.asarray(small.cell_owner)[gcell] == r).all()
    small.step()


# -- the proc supervisor ------------------------------------------------------

def test_proc_kill_recovery_bit_equal(tmp_path):
    """Rank 1 dies hard at step 5; the supervisor relaunches from the
    step-4 snapshot and the final history matches the undisturbed run
    bit for bit."""
    base = run_distributed("fempic", CFG_FEM, nranks=3, transport="proc",
                           n_steps=8)
    rec = run_distributed("fempic", CFG_FEM, nranks=3, transport="proc",
                          n_steps=8, checkpoint_every=2,
                          checkpoint_dir=tmp_path, recover=True,
                          kill=(1, 5))
    assert rec.restarts == 1
    assert base.history.keys() == rec.history.keys()
    for key in base.history:
        np.testing.assert_array_equal(np.asarray(base.history[key]),
                                      np.asarray(rec.history[key]),
                                      err_msg=key)


def test_proc_shrink_recovery_completes(tmp_path):
    """Rank 2 dies at step 3; the supervisor restarts on 2 ranks from
    the step-2 snapshot and runs to completion."""
    rec = run_distributed("fempic", CFG_FEM, nranks=3, transport="proc",
                          n_steps=6, checkpoint_every=2,
                          checkpoint_dir=tmp_path, recover=True,
                          recover_ranks=2, kill=(2, 3))
    assert rec.restarts == 1
    for key, vals in rec.history.items():
        assert len(vals) == 6, key


def test_proc_unrecoverable_failure_still_raises(tmp_path):
    """No snapshot on disk yet → the supervisor must re-raise."""
    from repro.dist.transport import RankFailure
    with pytest.raises(RankFailure):
        run_distributed("fempic", CFG_FEM, nranks=2, transport="proc",
                        n_steps=6, checkpoint_every=10,
                        checkpoint_dir=tmp_path, recover=True,
                        kill=(1, 2))
