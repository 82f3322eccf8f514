"""Advection mini-app: exact periodic return, rotation, migration."""
import numpy as np
import pytest

from repro.apps.advec import (AdvecConfig, AdvecSimulation,
                              DistributedAdvec, cell_velocity_field)

CFG = AdvecConfig(nx=8, ny=8, vx0=0.25, vy0=0.125, dt=0.1, ppc=2,
                  n_steps=0)


@pytest.mark.parametrize("backend", ["seq", "vec", "cuda"])
def test_uniform_advection_periodic_return(backend):
    """After exactly one x-period every particle is back at its start
    (the advection is exact for a uniform field on a periodic mesh)."""
    sim = AdvecSimulation(CFG.scaled(backend=backend))
    start = sim.positions_xy().copy()
    sim.run(int(round(CFG.lx / (CFG.vx0 * CFG.dt))))       # 40 steps
    np.testing.assert_allclose(sim.positions_xy()[:, 0], start[:, 0],
                               atol=1e-12)


def test_uniform_advection_full_period_both_axes():
    # 80 steps = 2 x-periods = 1 y-period
    sim = AdvecSimulation(CFG)
    start = sim.positions_xy().copy()
    sim.run(80)
    np.testing.assert_allclose(sim.positions_xy(), start, atol=1e-12)


def test_no_particles_lost():
    sim = AdvecSimulation(CFG)
    sim.run(25)
    assert sim.parts.size == CFG.n_particles
    assert (sim.p2c.p2c >= 0).all()
    assert (np.abs(sim.pos.data) <= 1.0 + 1e-12).all()


def test_mean_velocity_matches_flow():
    sim = AdvecSimulation(CFG)
    start = sim.positions_xy().copy()
    sim.run(10)
    delta = sim.positions_xy() - start
    # unwrap the periodic boundary: map each displacement to (-L/2, L/2]
    delta[:, 0] = (delta[:, 0] + CFG.lx / 2) % CFG.lx - CFG.lx / 2
    delta[:, 1] = (delta[:, 1] + CFG.ly / 2) % CFG.ly - CFG.ly / 2
    np.testing.assert_allclose(delta[:, 0], CFG.vx0 * 10 * CFG.dt,
                               rtol=1e-9)
    np.testing.assert_allclose(delta[:, 1], CFG.vy0 * 10 * CFG.dt,
                               rtol=1e-9)


def test_rotation_field_shape():
    cfg = CFG.scaled(flow="rotation", omega=2.0)
    vel = cell_velocity_field(cfg, np.array([[0.75, 0.5], [0.5, 0.75]]))
    # at (0.75, 0.5): r = (0.25, 0) -> v = ω(−0, 0.25·ω)
    np.testing.assert_allclose(vel[0], [0.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(vel[1], [-0.5, 0.0], atol=1e-12)


def test_rotation_preserves_radius():
    """Solid-body rotation keeps particles near their starting radius
    (piecewise-constant cell velocities introduce only a small error)."""
    cfg = AdvecConfig(nx=32, ny=32, flow="rotation", omega=1.0, dt=0.02,
                      ppc=1, n_steps=0)
    sim = AdvecSimulation(cfg)
    centre = np.array([cfg.lx / 2, cfg.ly / 2])
    r0 = np.linalg.norm(sim.positions_xy() - centre, axis=1)
    sim.run(60)
    r1 = np.linalg.norm(sim.positions_xy() - centre, axis=1)
    inner = r0 < 0.3   # avoid the corners where rotation meets the wrap
    assert np.abs(r1[inner] - r0[inner]).max() < 0.08


def test_unknown_flow_rejected():
    with pytest.raises(ValueError):
        AdvecSimulation(CFG.scaled(flow="turbulent"))


@pytest.mark.parametrize("nranks", [2, 4])
def test_distributed_matches_single(nranks):
    single = AdvecSimulation(CFG)
    single.run(30)
    expected = {(round(x, 9), round(y, 9))
                for x, y in single.positions_xy()}

    dist = DistributedAdvec(CFG, nranks=nranks)
    dist.run(30)
    assert dist.total_particles() == CFG.n_particles
    got = set()
    for r, rk in enumerate(dist.ranks):
        cfg = CFG
        rm = dist.meshes[r]
        c = rm.cells_global[rk.p2c.p2c]
        i = c % cfg.nx
        j = (c // cfg.nx) % cfg.ny
        n = rk.parts.size
        x = (i + 0.5 * (rk.pos.data[:n, 0] + 1.0)) * cfg.dx
        y = (j + 0.5 * (rk.pos.data[:n, 1] + 1.0)) * cfg.dy
        got |= {(round(a, 9), round(b, 9)) for a, b in zip(x, y)}
    assert got == expected


def test_distributed_migration_happens():
    dist = DistributedAdvec(CFG, nranks=2)
    dist.run(20)
    assert dist.comm.stats.total_messages > 0
