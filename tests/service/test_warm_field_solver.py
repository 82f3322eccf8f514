"""A warm worker builds FemPIC's field solver once per mesh: the
Dirichlet reduction and the Newton pattern come from the object cache,
and each job owns only the values it writes.

Every job here is held against its cold oracle — the same job built and
run with the object cache disabled — on the C target and on the NumPy
target.  The kernel constants are one process-wide registry, so a test
that steps two simulations alternately re-declares each one's constants
before its step, as a worker's next build does.
"""
import json

import numpy as np
import pytest

from repro.apps.fempic.simulation import declare_fempic_constants
from repro.runtime import objcache
from repro.service import Client, jobs, start_server_thread
from repro.service.server import _json_default

MESH = {"nx": 2, "ny": 2, "nz": 6, "plasma_den": 2000.0, "n0": 2000.0}
#: two physics on the one mesh: the electron temperature, the particle
#: weight, the Newton iteration count and the CG tolerance all differ
PHYSICS = [{"kTe": 1.0, "spwt": 20.0, "newton_iters": 2, "ksp_rtol": 1e-8},
           {"kTe": 2.5, "spwt": 7.0, "newton_iters": 3, "ksp_rtol": 1e-6}]


@pytest.fixture
def warm():
    """The object cache as a pool worker has it, emptied afterwards."""
    assert not objcache.is_enabled()
    objcache.enable()
    try:
        yield
    finally:
        objcache.disable()


def build(params: dict):
    spec = jobs.validate_job({"app": "fempic",
                              "params": {**MESH, **params}})
    return spec, *jobs.build_sim(spec)


def run(params: dict, n_steps: int):
    """``(history, final phi bytes)`` of one job built and run now."""
    spec, sim, history = build(params)
    jobs.run_steps(spec, sim, history, 0, n_steps)
    return history, sim.solver.phi.data.tobytes()


def cold(params: dict, n_steps: int):
    assert not objcache.is_enabled()
    return run(params, n_steps)


def test_two_physics_on_one_mesh_step_alternately(target):
    oracles = [cold(p, 4) for p in PHYSICS]
    objcache.enable()
    try:
        built = [build(p) for p in PHYSICS]
        patterns = {id(sim.newton.pattern) for _spec, sim, _h in built}
        assert len(patterns) == 1
        for _ in range(4):
            for spec, sim, history in built:
                declare_fempic_constants(sim.cfg)
                jobs.step_once(spec, sim, history)
    finally:
        objcache.disable()
    for (_spec, sim, history), oracle in zip(built, oracles):
        assert (history, sim.solver.phi.data.tobytes()) == oracle


def spoil_charge(sim) -> None:
    """Deposit, then plant a NaN in the gathered node charge."""
    sim.inject()
    sim.calc_pos_vel()
    sim.move()
    sim.deposit()
    sim.solver.nw.data[sim.dirichlet.free[3], 0] = np.nan


@pytest.mark.parametrize("spoil", ["nan_charge", "exp_overflow"])
def test_a_failed_field_solve_leaks_nothing_into_the_next_job(target, warm,
                                                              spoil):
    if spoil == "nan_charge":
        spec, sim, history = build(PHYSICS[1])
        jobs.run_steps(spec, sim, history, 0, 2)
        spoil_charge(sim)
        match = "^rhs has non-finite entries$"
    else:
        # exp((phi - phi0) / kTe) overflows at the first free node
        spec, sim, history = build({"phi0": -1000.0})
        match = "^matrix has non-finite diagonal entries$"
    with pytest.raises(ValueError, match=match):
        sim.field_solve()
    got = run(PHYSICS[0], 4)
    objcache.disable(clear_store=False)
    try:
        want = cold(PHYSICS[0], 4)
    finally:
        objcache.enable()
    assert got == want


def test_physics_constants_add_no_cache_entries(warm):
    rng = np.random.default_rng(5)
    run(PHYSICS[0], 1)
    entries = objcache.stats()["entries"]
    for _ in range(50):
        run({"kTe": float(rng.uniform(0.5, 3.0)),
             "spwt": float(rng.uniform(5.0, 40.0)),
             "phi0": float(rng.uniform(-0.5, 0.5)),
             "newton_iters": int(rng.integers(1, 4)),
             "ksp_rtol": float(10.0 ** rng.uniform(-10, -4))}, 1)
        assert objcache.stats()["entries"] == entries


def test_service_worker_survives_a_failed_field_solve():
    """Through the real pool: a job whose field solve overflows fails on
    its own, and the next FemPIC job on that warm worker matches its cold
    oracle through the wire format."""
    payload = {"app": "fempic", "params": {**MESH, "n_steps": 3}}
    spec, sim, history = build(payload["params"])
    jobs.run_steps(spec, sim, history, 0, spec.n_steps)
    oracle = json.loads(json.dumps(history, default=_json_default))
    with start_server_thread(port=0, n_workers=1) as handle:
        with Client(handle.host, handle.port) as client:
            first = client.result(client.submit(dict(payload)), timeout=300)
            doomed = client.result(client.submit(
                {"app": "fempic",
                 "params": {**MESH, "n_steps": 3, "phi0": -1000.0}}),
                timeout=300)
            again = client.result(client.submit(dict(payload)), timeout=300)
            stats = client.stats()
    assert doomed["state"] == "failed"
    assert "non-finite diagonal" in doomed["error"]["error"]
    assert first["result"]["history"] == oracle
    assert again["result"]["history"] == oracle
    assert again["result"]["cache"]["hits"] > first["result"]["cache"]["hits"]
    assert stats["pool"]["respawns"] == 0


def test_a_warm_twod_job_reduces_no_dirichlet_system(target, monkeypatch):
    """twod's grounded-box reduction comes from the object cache: a warm
    job builds no ``DirichletSystem`` and its history is bit-equal to the
    same job built cold."""
    from repro.fem import DirichletSystem
    spec = jobs.validate_job({"app": "twod", "params": {"n_steps": 3}})

    def twod_run():
        sim, history = jobs.build_sim(spec)
        jobs.run_steps(spec, sim, history, 0, spec.n_steps)
        return history, sim.solver.phi.data.tobytes()

    oracle = twod_run()
    built = []
    real = DirichletSystem.__init__
    monkeypatch.setattr(DirichletSystem, "__init__",
                        lambda self, *a: built.append(1) or real(self, *a))
    objcache.enable()
    try:
        twod_run()
        assert built == [1]
        assert twod_run() == oracle
    finally:
        objcache.disable()
    assert built == [1]
