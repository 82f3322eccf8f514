"""1-D electrostatic validation app: init, conservation, backends."""
import numpy as np
import pytest

from repro.apps.landau import (ElectrostaticSimulation, LandauConfig,
                               SpeciesSpec, landau_config,
                               maxwellian_quantiles, two_beam_config,
                               van_der_corput)

HISTORY_KEYS = ("field_energy", "mode_energy", "kinetic_energy",
                "total_energy", "momentum", "charge", "n_particles")


def test_van_der_corput_low_discrepancy():
    seq = van_der_corput(64)
    assert seq.shape == (64,)
    assert ((seq > 0) & (seq < 1)).all()
    assert np.unique(seq).size == 64
    # star discrepancy of the base-2 sequence is O(log n / n); the
    # empirical CDF of the first 64 points is uniform to ~1/16
    assert abs(np.sort(seq) - (np.arange(64) + 0.5) / 64).max() < 0.1


def test_maxwellian_quantiles_symmetric_unit_variance():
    u = (np.arange(10000) + 0.5) / 10000
    v = maxwellian_quantiles(u)
    assert abs(v.mean()) < 1e-12
    assert v.std() == pytest.approx(1.0, rel=1e-3)
    assert maxwellian_quantiles(np.array([0.5]))[0] == \
        pytest.approx(0.0, abs=1e-12)


def test_quiet_start_is_deterministic():
    cfg = LandauConfig.smoke()
    a = ElectrostaticSimulation(cfg)
    b = ElectrostaticSimulation(cfg)
    for sa, sb in zip(a.species, b.species):
        assert (sa.pos.data == sb.pos.data).all()
        assert (sa.vel.data == sb.vel.data).all()
    a.run(5)
    b.run(5)
    for key in HISTORY_KEYS:
        assert a.history[key] == b.history[key]


def test_quiet_start_seeds_requested_mode():
    cfg = landau_config(nz=32, ppc=50, n_steps=1, perturbation=0.05)
    sim = ElectrostaticSimulation(cfg)
    sim.run()
    # the seeded ripple must dominate the diagnosed mode: energy in
    # mode 1 far above the (zero-RNG) discretization floor of mode 2
    assert sim.mode_energy(1) > 1e3 * sim.mode_energy(2)


def test_landau_smoke_conserves():
    sim = ElectrostaticSimulation(LandauConfig.smoke())
    h = sim.run()
    assert len(h["charge"]) == sim.cfg.n_steps
    q = np.array(h["charge"])
    assert np.abs(q - q[0]).max() < 1e-12 * abs(q[0])
    p = np.array(h["momentum"])
    p_scale = np.sqrt(2.0 * sim.cfg.lz * h["kinetic_energy"][0])
    assert np.abs(p - p[0]).max() < 1e-12 * p_scale
    assert h["n_particles"] == [sim.cfg.n_particles] * sim.cfg.n_steps


def test_two_beam_counter_streams():
    cfg = two_beam_config(nz=16, ppc=20, n_steps=5)
    sim = ElectrostaticSimulation(cfg)
    assert len(sim.species) == 2
    v0 = cfg.species[0].drift
    assert v0 > 0 and cfg.species[1].drift == -v0
    na = sim.species[0].pset.size
    assert sim.species[0].vel.data[:na, 0].mean() == \
        pytest.approx(v0, rel=1e-12)
    sim.run()
    # beams deposit into ONE shared rho: net charge is both species'
    q_expected = sum(s.charge * s.density for s in cfg.species) * cfg.lz
    assert sim.history["charge"][-1] == pytest.approx(q_expected,
                                                      rel=1e-12)


def test_particles_stay_in_their_cells():
    """After every step each particle's p2c cell must contain it."""
    cfg = landau_config(nz=24, ppc=40, n_steps=8, dt=0.3)  # big dt: hops
    sim = ElectrostaticSimulation(cfg)
    for _ in range(cfg.n_steps):
        sim.step()
        for sp in sim.species:
            n = sp.pset.size
            x = sp.pos.data[:n, 0]
            cell = sp.p2c.p2c[:n]
            assert ((x >= cell * cfg.dx) & (x < (cell + 1) * cfg.dx)).all()
            assert ((x >= 0.0) & (x < cfg.lz)).all()


def test_deposit_matches_host_reference():
    """The DSL deposit loop must reproduce a direct CIC host deposit
    (rho holds the deposit of the *pre-push* positions, so deposit
    once without stepping)."""
    from repro.core.api import push_context
    cfg = two_beam_config(nz=16, ppc=30, n_steps=1)
    sim = ElectrostaticSimulation(cfg)
    with push_context(sim.ctx):
        sim.deposit_and_solve()
    rho = np.zeros(cfg.nz)
    for sp in sim.species:
        n = sp.pset.size
        x = sp.pos.data[:n, 0]
        j = np.minimum((x / cfg.dx).astype(np.int64), cfg.nz - 1)
        f = x / cfg.dx - j
        np.add.at(rho, j, sp.qw.data[:n, 0] * (1.0 - f))
        np.add.at(rho, (j + 1) % cfg.nz, sp.qw.data[:n, 0] * f)
    assert np.allclose(sim.rho.data[:, 0], rho, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("backend,options", [
    ("vec", {}),
    ("omp", {}),
])
def test_backends_match_seq_oracle(backend, options):
    """Every backend must reproduce the seq histories on
    both the Maxwellian and the two-set multi-species problem."""
    for maker in (landau_config, two_beam_config):
        base = maker(nz=16, ppc=20, n_steps=6)
        ref = ElectrostaticSimulation(base.scaled(backend="seq"))
        ref.run()
        sim = ElectrostaticSimulation(base.scaled(
            backend=backend, backend_options=dict(options)))
        sim.run()
        assert sim.history["n_particles"] == ref.history["n_particles"]
        for key in HISTORY_KEYS[:-1]:
            assert np.allclose(sim.history[key], ref.history[key],
                               rtol=1e-9, atol=1e-12), (maker.__name__,
                                                        key)


def test_config_properties():
    cfg = landau_config(k_lambda_d=0.5)
    assert cfg.k1 == pytest.approx(0.5)
    assert cfg.plasma_frequency == pytest.approx(1.0)
    assert cfg.n_particles == cfg.nz * cfg.species[0].ppc
    sp = SpeciesSpec(density=4.0, mass=4.0)
    assert sp.plasma_frequency_sq() == pytest.approx(1.0)
