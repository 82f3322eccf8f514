"""Mini-FEM-PIC: behaviour, conservation, backend consistency, MH vs DH."""
import numpy as np
import pytest

from repro.apps.fempic import FemPicConfig, FemPicSimulation


@pytest.fixture(scope="module")
def baseline():
    sim = FemPicSimulation(FemPicConfig.smoke().scaled(backend="seq",
                                                       n_steps=10))
    sim.run()
    return sim


def test_particles_injected_at_constant_rate(baseline):
    inj = baseline.history["injected"]
    assert all(i > 0 for i in inj)
    assert max(inj) - min(inj) <= 1   # constant rate up to carry rounding


def test_particle_count_balance(baseline):
    hist = baseline.history
    expected = sum(hist["injected"]) - sum(hist["removed"])
    assert hist["n_particles"][-1] == expected


def test_wall_potential_held(baseline):
    sim = baseline
    wall = sim.mesh.tags["wall_nodes"]
    np.testing.assert_allclose(sim.phi.data[wall, 0],
                               sim.cfg.wall_potential)
    inlet = sim.mesh.tags["inlet_nodes"]
    np.testing.assert_allclose(sim.phi.data[inlet, 0],
                               sim.cfg.inlet_potential)


def test_particles_always_inside_their_cells(baseline):
    """After a move, every particle's stored weights are valid barycentric
    coordinates of its cell."""
    sim = baseline
    lc = sim.lc.data[: sim.parts.size]
    assert (lc >= -1e-9).all()
    np.testing.assert_allclose(lc.sum(axis=1), 1.0, atol=1e-9)


def test_deposited_charge_matches_particle_count(baseline):
    """Charge conservation: Σ node weights == number of particles (each
    deposits barycentric weights summing to one)."""
    sim = baseline
    assert sim.nw.data.sum() == pytest.approx(sim.parts.size, rel=1e-12)


def test_field_energy_positive_and_finite(baseline):
    e = np.array(baseline.history["field_energy"])
    assert (e > 0).all()
    assert np.isfinite(e).all()


@pytest.mark.parametrize("backend", ["vec", "omp", "cuda", "hip"])
def test_backends_match_seq(baseline, backend):
    sim = FemPicSimulation(FemPicConfig.smoke().scaled(backend=backend,
                                                       n_steps=10))
    sim.run()
    np.testing.assert_allclose(sim.history["field_energy"],
                               baseline.history["field_energy"],
                               rtol=1e-12)
    assert sim.history["n_particles"] == baseline.history["n_particles"]


def test_dh_matches_mh_physics():
    cfg = FemPicConfig.smoke().scaled(n_steps=10, dt=0.15)
    mh = FemPicSimulation(cfg.scaled(move_strategy="mh"))
    dh = FemPicSimulation(cfg.scaled(move_strategy="dh"))
    mh.run()
    dh.run()
    np.testing.assert_allclose(dh.history["field_energy"],
                               mh.history["field_energy"], rtol=1e-12)


def test_dh_reduces_hops():
    cfg = FemPicConfig.smoke().scaled(n_steps=10, dt=0.15)
    mh = FemPicSimulation(cfg.scaled(move_strategy="mh"))
    dh = FemPicSimulation(cfg.scaled(move_strategy="dh"))
    mh.run()
    dh.run()
    assert dh.ctx.perf.get("Move").hops < mh.ctx.perf.get("Move").hops


def test_long_run_reaches_quasi_steady_state():
    """Once the first ions reach the outlet, removal starts and the
    population growth slows."""
    cfg = FemPicConfig.smoke().scaled(n_steps=60, dt=0.3)
    sim = FemPicSimulation(cfg)
    sim.run()
    assert sum(sim.history["removed"]) > 0
    n = sim.history["n_particles"]
    half = len(n) // 2
    early_growth = n[half - 1] - n[0]
    late_growth = n[-1] - n[half - 1]
    assert late_growth < early_growth


def test_unknown_move_strategy_rejected():
    with pytest.raises(ValueError):
        FemPicSimulation(FemPicConfig.smoke().scaled(move_strategy="warp"))


def test_perf_breakdown_contains_paper_kernels(baseline):
    names = set(baseline.ctx.perf.loops)
    for kernel in ("CalcPosVel", "Move", "DepositCharge",
                   "ComputeNodeChargeDensity", "ComputeElectricField",
                   "Solve"):
        assert kernel in names
    # the Newton residual and Jacobian run inside the one Solve call
    assert not {"ComputeF1Vector", "ComputeJMatrix"} & names
    assert baseline.ctx.perf.loops["Solve"].extras["cg_iterations"] > 0


def test_thermal_injection():
    """A finite inlet temperature spreads the injected velocities around
    the drift while keeping every ion moving into the duct."""
    from repro.core.api import push_context

    cold = FemPicSimulation(FemPicConfig.smoke().scaled(
        plasma_den=2e4, n0=2e4))
    with push_context(cold.ctx):
        cold.inject()
    np.testing.assert_allclose(cold.vel.data[: cold.parts.size, 2],
                               cold.cfg.injection_velocity)
    assert (cold.vel.data[: cold.parts.size, :2] == 0).all()

    warm = FemPicSimulation(FemPicConfig.smoke().scaled(
        plasma_den=2e4, n0=2e4, injection_temperature=0.04))
    with push_context(warm.ctx):
        warm.inject()
    vz = warm.vel.data[: warm.parts.size, 2]
    vx = warm.vel.data[: warm.parts.size, 0]
    assert vz.std() > 0.05              # spread exists
    assert (vz > 0).all()               # flux points into the duct
    assert abs(vx.mean()) < 0.2         # transverse drift-free


def test_conservation_ledger_smoke():
    """Bounded-drift ledger over a smoke run.  Mini-FEM-PIC is an open
    system (inlet injection, wall absorption) so total energy is not
    conserved — what must hold every step is exact charge accounting:
    deposited node charge per particle stays exactly 1 (each particle's
    barycentric weights sum to one), and the particle balance
    (injected − removed) matches the population."""
    from repro.validate import ConservationLedger

    sim = FemPicSimulation(FemPicConfig.smoke().scaled(n_steps=8))
    charge_per_particle, balance_defect = [], []
    for _ in range(sim.cfg.n_steps):
        sim.step()
        charge_per_particle.append(sim.nw.data.sum() / sim.parts.size)
        hist = sim.history
        balance_defect.append(hist["n_particles"][-1]
                              - (sum(hist["injected"])
                                 - sum(hist["removed"])))
    ledger = ConservationLedger()
    ledger.bound("charge_per_particle", charge_per_particle, 1e-12)
    ledger.bound_constant("particle_balance", balance_defect)
    assert ledger.ok, f"conservation ledger failed:\n{ledger}"
