"""Warm-pool determinism conformance (service tenet: cache reuse must
never change physics).

For each app, the oracle is a *cold* in-process run — fresh process
state, object cache disabled, plain ``build_sim`` + step loop.  The
same job submitted twice to a warm service (second run restores into
the simulation the worker held and reuses translated kernels) must
reproduce the oracle history bit-for-bit, through the JSON wire format
(Python float round-trips are exact).
"""
import json

import pytest

from repro.runtime import objcache
from repro.service import Client, jobs, start_server_thread
from repro.service.server import _json_default

CASES = {
    "advec": {"app": "advec",
              "params": {"nx": 6, "ny": 6, "ppc": 2, "n_steps": 8,
                         "flow": "rotation"}},
    "fempic": {"app": "fempic",
               "params": {"nx": 2, "ny": 2, "nz": 6,
                          "plasma_den": 2000.0, "n0": 2000.0,
                          "n_steps": 5}},
    "twod": {"app": "twod",
             "params": {"nx": 4, "ny": 4, "ppc": 2, "n_steps": 5}},
    "cabana": {"app": "cabana",
               "params": {"nx": 8, "ny": 2, "nz": 2, "ppc": 4,
                          "n_steps": 5}},
    "landau": {"app": "landau",
               "params": {"nz": 24, "ppc": 30, "n_steps": 5}},
}


def cold_history(payload: dict) -> dict:
    """The oracle: run the job in-process with caching disabled, and
    push it through the same JSON encoding the service uses."""
    assert not objcache.is_enabled()
    spec = jobs.validate_job(dict(payload))
    sim, history = jobs.build_sim(spec)
    jobs.run_steps(spec, sim, history, 0, spec.n_steps)
    return json.loads(json.dumps(history, default=_json_default))


@pytest.fixture(scope="module")
def service():
    handle = start_server_thread(port=0, n_workers=1)
    yield handle
    handle.stop()


@pytest.mark.parametrize("app", sorted(CASES))
def test_warm_resubmission_matches_cold_oracle(service, app):
    payload = CASES[app]
    oracle = cold_history(payload)
    with Client(service.host, service.port) as client:
        first = client.result(client.submit(dict(payload)),
                              timeout=300)
        second = client.result(client.submit(dict(payload)),
                               timeout=300)
    assert first["state"] == "done" and second["state"] == "done"
    assert first["result"]["history"] == oracle
    assert second["result"]["history"] == oracle
    # the warm rerun must actually have restored into the sim the worker
    # held (counters are cumulative per worker; landau cannot checkpoint,
    # so it builds every job and its counters stay flat)
    if app != "landau":
        assert second["result"]["cache"]["sims"]["hits"] \
            > first["result"]["cache"]["sims"]["hits"]


def test_single_worker_reuses_cache_across_apps(service):
    with Client(service.host, service.port) as client:
        stats = client.stats()
    assert stats["pool"]["respawns"] == 0
    assert stats["counters"]["failed"] == 0
