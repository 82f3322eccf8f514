"""Checkpoint/restart: a restarted run must continue bit-exactly."""
import numpy as np
import pytest

from repro.apps.cabana import CabanaConfig, CabanaSimulation
from repro.apps.fempic import FemPicConfig, FemPicSimulation
from repro.util.checkpoint import load_checkpoint, save_checkpoint


def test_fempic_restart_continues_exactly(tmp_path):
    cfg = FemPicConfig.smoke().scaled(n_steps=0, dt=0.2)
    ref = FemPicSimulation(cfg)
    ref.run(8)

    half = FemPicSimulation(cfg)
    half.run(4)
    ckpt = save_checkpoint(half, tmp_path / "fempic.npz")

    resumed = FemPicSimulation(cfg)
    assert load_checkpoint(resumed, ckpt) == 4
    resumed.run(4)

    np.testing.assert_array_equal(resumed.phi.data, ref.phi.data)
    np.testing.assert_array_equal(resumed.pos.data, ref.pos.data)
    assert resumed.parts.size == ref.parts.size
    # RNG state restored → the same injection stream continued
    assert resumed.history["injected"] == ref.history["injected"][4:]


def test_cabana_restart_continues_exactly(tmp_path):
    cfg = CabanaConfig.smoke()
    ref = CabanaSimulation(cfg)
    ref.run(6)

    half = CabanaSimulation(cfg)
    half.run(3)
    ckpt = save_checkpoint(half, tmp_path / "cabana.npz")
    resumed = CabanaSimulation(cfg)
    load_checkpoint(resumed, ckpt)
    resumed.run(3)

    np.testing.assert_array_equal(resumed.e.data, ref.e.data)
    np.testing.assert_array_equal(resumed.vel.data, ref.vel.data)
    assert resumed.history["e_energy"] == ref.history["e_energy"][3:]


def test_mesh_mismatch_rejected(tmp_path):
    a = FemPicSimulation(FemPicConfig.smoke())
    ckpt = save_checkpoint(a, tmp_path / "a.npz")
    b = FemPicSimulation(FemPicConfig.smoke().scaled(nz=8))
    with pytest.raises(ValueError):
        load_checkpoint(b, ckpt)


def test_non_simulation_rejected(tmp_path):
    class Empty:
        pass
    with pytest.raises(ValueError):
        save_checkpoint(Empty(), tmp_path / "x.npz")


def test_twod_restart_continues_exactly(tmp_path):
    from repro.apps.twod import TwoDConfig, TwoDSheetModel
    cfg = TwoDConfig(n_steps=0)
    ref = TwoDSheetModel(cfg)
    ref.run(6)

    half = TwoDSheetModel(cfg)
    half.run(3)
    ckpt = save_checkpoint(half, tmp_path / "twod.npz")
    resumed = TwoDSheetModel(cfg)
    load_checkpoint(resumed, ckpt)   # twod keeps no step counter
    resumed.run(3)

    np.testing.assert_array_equal(resumed.phi.data, ref.phi.data)
    np.testing.assert_array_equal(resumed.pos.data, ref.pos.data)
    assert resumed.history["field_energy"] == ref.history["field_energy"][3:]


def test_advec_restart_continues_exactly(tmp_path):
    from repro.apps.advec import AdvecConfig, AdvecSimulation
    cfg = AdvecConfig()
    ref = AdvecSimulation(cfg)
    ref.run(6)

    half = AdvecSimulation(cfg)
    half.run(3)
    ckpt = save_checkpoint(half, tmp_path / "advec.npz")
    resumed = AdvecSimulation(cfg)
    assert load_checkpoint(resumed, ckpt) == 3
    resumed.run(3)

    np.testing.assert_array_equal(resumed.pos.data, ref.pos.data)
    np.testing.assert_array_equal(resumed.disp.data, ref.disp.data)
    assert resumed.parts.size == ref.parts.size


def test_format_version_mismatch_rejected(tmp_path):
    from repro.util.checkpoint import CHECKPOINT_FORMAT
    sim = FemPicSimulation(FemPicConfig.smoke())
    ckpt = save_checkpoint(sim, tmp_path / "v.npz")
    with np.load(ckpt) as data:
        payload = {k: data[k] for k in data.files}
    payload["__format__"] = np.array([CHECKPOINT_FORMAT + 1])
    np.savez_compressed(ckpt, **payload)
    fresh = FemPicSimulation(FemPicConfig.smoke())
    with pytest.raises(ValueError, match="format"):
        load_checkpoint(fresh, ckpt)


class _Boom:
    """Unpickling this runs code: the payload a hostile file would carry."""

    fired = False

    def __reduce__(self):
        return (setattr, (_Boom, "fired", True))


def _pickle_payload():
    import pickle
    return np.frombuffer(pickle.dumps(_Boom()), dtype=np.uint8)


def _rewrite(ckpt, **changes):
    with np.load(ckpt) as data:
        payload = {k: data[k] for k in data.files}
    payload.update(changes)
    np.savez_compressed(ckpt, **payload)


@pytest.mark.parametrize("rng_bytes", [
    _pickle_payload(),
    np.frombuffer(b"\xff\xfe not json", dtype=np.uint8),
    np.frombuffer(b"[1, 2, 3]", dtype=np.uint8),
    np.frombuffer(b'{"bit_generator": "PCG64", "state": 7}', dtype=np.uint8),
    np.array([1.5, 2.5])])
def test_rng_payload_is_parsed_never_unpickled(tmp_path, rng_bytes):
    sim = FemPicSimulation(FemPicConfig.smoke())
    ckpt = save_checkpoint(sim, tmp_path / "rng.npz")
    before = sim.rng.bit_generator.state
    _rewrite(ckpt, __rng__=rng_bytes)
    with pytest.raises(ValueError, match="RNG state"):
        load_checkpoint(sim, ckpt)
    assert not _Boom.fired
    assert sim.rng.bit_generator.state == before


def test_format_1_file_is_rejected_before_its_rng_is_read(tmp_path):
    sim = FemPicSimulation(FemPicConfig.smoke())
    ckpt = save_checkpoint(sim, tmp_path / "old.npz")
    _rewrite(ckpt, __format__=np.array([1]), __rng__=_pickle_payload())
    with pytest.raises(ValueError, match="format 1"):
        load_checkpoint(sim, ckpt)
    assert not _Boom.fired


def test_rng_state_round_trips_as_json(tmp_path):
    import json
    sim = FemPicSimulation(FemPicConfig.smoke())
    sim.rng.random(5)
    ckpt = save_checkpoint(sim, tmp_path / "json.npz")
    with np.load(ckpt) as data:       # allow_pickle stays off
        stored = json.loads(data["__rng__"].tobytes())
    assert stored == sim.rng.bit_generator.state
    want = sim.rng.random(3)
    fresh = FemPicSimulation(FemPicConfig.smoke())
    load_checkpoint(fresh, ckpt)
    assert np.array_equal(fresh.rng.random(3), want)


def test_injection_carry_survives_a_checkpoint(tmp_path):
    """A fractional injection count carries from step to step; a
    restored run must inject exactly what the uninterrupted one does."""
    cfg = FemPicConfig.smoke().scaled(n_steps=0, dt=0.2, plasma_den=1234.5)
    ref = FemPicSimulation(cfg)
    ref.run(8)

    half = FemPicSimulation(cfg)
    half.run(4)
    assert half._inject_carry[0] != 0.0
    ckpt = save_checkpoint(half, tmp_path / "carry.npz")
    resumed = FemPicSimulation(cfg)
    load_checkpoint(resumed, ckpt)
    resumed.run(4)
    assert half.history["injected"] + resumed.history["injected"] \
        == ref.history["injected"]
    for key in ref.history:
        assert half.history[key] + resumed.history[key] == ref.history[key]


def test_format_2_file_is_rejected(tmp_path):
    sim = FemPicSimulation(FemPicConfig.smoke())
    ckpt = save_checkpoint(sim, tmp_path / "v2.npz")
    _rewrite(ckpt, __format__=np.array([2]))
    with pytest.raises(ValueError, match="format 2"):
        load_checkpoint(sim, ckpt)


def test_landau_species_restart_continues_exactly(tmp_path):
    """Every species is a particle set the app declared: all of them
    are in the checkpoint."""
    from repro.apps.landau import ElectrostaticSimulation, landau_config
    cfg = landau_config(k_lambda_d=0.5, ppc=20, nz=16)
    ref = ElectrostaticSimulation(cfg)
    ref.run(6)
    half = ElectrostaticSimulation(cfg)
    half.run(3)
    ckpt = save_checkpoint(half, tmp_path / "landau.npz")
    resumed = ElectrostaticSimulation(cfg)
    assert load_checkpoint(resumed, ckpt) == 3
    resumed.run(3)
    assert resumed.history["field_energy"] \
        == ref.history["field_energy"][3:]
    for sp, sp_ref in zip(resumed.species, ref.species):
        np.testing.assert_array_equal(sp.vel.data, sp_ref.vel.data)
