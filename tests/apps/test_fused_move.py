"""Fused move+deposit: the deposit kernel rides along inside the move
loop (per frontier round for cabana's segment currents, at settling time
for FemPIC's node charge) and must reproduce the separate-loop physics.
"""
import numpy as np
import pytest

from repro.apps.cabana import CabanaConfig, CabanaSimulation
from repro.apps.fempic import FemPicConfig, FemPicSimulation

BACKENDS = [("seq", {}), ("vec", {})]


def run_fempic(backend, options, fused, steps=4):
    cfg = FemPicConfig.smoke().scaled(
        backend=backend, backend_options=options, n_steps=steps,
        fuse_move=fused)
    sim = FemPicSimulation(cfg)
    sim.run()
    return sim


def run_cabana(backend, options, fused, steps=4):
    cfg = CabanaConfig.smoke().scaled(
        backend=backend, backend_options=options, n_steps=steps,
        fuse_move=fused)
    sim = CabanaSimulation(cfg)
    sim.run()
    return sim


@pytest.mark.parametrize("backend,options", BACKENDS)
def test_fempic_fused_matches_unfused(backend, options):
    plain = run_fempic(backend, options, fused=False)
    fused = run_fempic(backend, options, fused=True)
    assert fused.parts.size == plain.parts.size
    for attr in ("phi", "ncd", "nw", "ef", "pos", "vel", "lc"):
        np.testing.assert_allclose(
            getattr(fused, attr).data, getattr(plain, attr).data,
            rtol=1e-9, atol=1e-18, err_msg=attr)


def test_fempic_fused_seq_is_bit_identical():
    """seq runs the deposit at the very same program point the unfused
    DepositCharge loop would reach each particle: same FP order."""
    plain = run_fempic("seq", {}, fused=False)
    fused = run_fempic("seq", {}, fused=True)
    assert np.array_equal(fused.nw.data, plain.nw.data)
    assert np.array_equal(fused.phi.data, plain.phi.data)
    assert np.array_equal(fused.pos.data[: fused.parts.size],
                          plain.pos.data[: plain.parts.size])


def test_fempic_fused_records_fused_deposit():
    sim = run_fempic("vec", {}, fused=True, steps=2)
    st = sim.ctx.perf.get("Move")
    assert st is not None
    assert st.extras.get("fused_deposit") == "done"
    # the standalone deposit loop must not have run
    assert sim.ctx.perf.get("DepositCharge") is None


@pytest.mark.parametrize("backend,options", BACKENDS)
def test_cabana_fused_matches_unfused(backend, options):
    plain = run_cabana(backend, options, fused=False)
    fused = run_cabana(backend, options, fused=True)
    for attr in ("acc", "pos", "vel", "e", "b"):
        np.testing.assert_allclose(
            getattr(fused, attr).data, getattr(plain, attr).data,
            rtol=1e-9, atol=1e-18, err_msg=attr)


def test_cabana_fused_seq_is_bit_identical():
    """The hand-fused kernel deposits each hop's current as it walks;
    the split walk+deposit pair replays the identical FP sequence."""
    plain = run_cabana("seq", {}, fused=False)
    fused = run_cabana("seq", {}, fused=True)
    assert np.array_equal(fused.acc.data, plain.acc.data)
    assert np.array_equal(fused.vel.data[: fused.parts.size],
                          plain.vel.data[: plain.parts.size])


def test_fused_move_dirties_particle_order():
    """Relocations inside a fused move must feed the order tracker just
    like a plain move's."""
    sim = run_fempic("vec", {}, fused=True, steps=3)
    assert sim.parts.order.mutations > 0
