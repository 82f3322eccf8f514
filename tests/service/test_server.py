"""End-to-end service tests: asyncio server + warm pool + client."""
import time

import pytest

from repro.service import Client, ServiceError, start_server_thread
from repro.service.scheduler import FairShareScheduler

TINY = {"app": "advec",
        "params": {"nx": 6, "ny": 6, "ppc": 2, "n_steps": 10}}
LONG = {"app": "advec",
        "params": {"nx": 8, "ny": 8, "ppc": 4, "n_steps": 5000},
        "checkpoint_every": 250}
FEMPIC = {"app": "fempic",
          "params": {"nx": 2, "ny": 2, "nz": 6, "plasma_den": 2000.0,
                     "n0": 2000.0, "n_steps": 12},
          "checkpoint_every": 3}


@pytest.fixture(scope="module")
def service():
    handle = start_server_thread(
        port=0, n_workers=2,
        scheduler=FairShareScheduler(aging_seconds=5.0,
                                     preempt_margin=1.0))
    yield handle
    handle.stop()


@pytest.fixture
def client(service):
    with Client(service.host, service.port) as c:
        yield c


def test_ping_and_schemas(client):
    assert client.ping()
    assert set(client.schemas()) == {"advec", "cabana", "fempic",
                                     "landau", "twod"}


def test_submit_rejects_bad_jobs_with_structured_errors(client):
    with pytest.raises(ServiceError) as err:
        client.submit({"app": "advec", "params": {"nx": "six"},
                       "priority": 99})
    fields = {e["field"] for e in err.value.response["errors"]}
    assert fields == {"params.nx", "priority"}
    with pytest.raises(ServiceError):
        client.submit({"app": "no-such-app", "params": {}})


def test_retired_backend_is_a_structured_rejection(client):
    """A job asking for a backend outside the servable set is refused on
    the wire with the servable backends named, before any worker runs."""
    with pytest.raises(ServiceError) as err:
        client.submit({"app": "advec", "params": {"backend": "mp"}})
    [entry] = err.value.response["errors"]
    assert entry["field"] == "params.backend"
    assert "'mp' not servable" in entry["error"]
    assert "('seq', 'vec', 'omp')" in entry["error"]


def test_submit_run_result_lifecycle(client):
    job_id = client.submit(dict(TINY, tenant="alice"))
    res = client.result(job_id, timeout=60)
    assert res["state"] == "done"
    assert res["result"]["steps"] == 10
    assert len(res["result"]["history"]["mean_disp"]) == 10
    status = client.status(job_id)
    assert status["state"] == "done"
    assert status["tenant"] == "alice"


def test_mixed_tenant_batch_all_complete(client):
    ids = [client.submit(dict(TINY, tenant=f"t{i % 3}",
                              priority=3 + (i % 5)))
           for i in range(6)]
    ids.append(client.submit(
        {"app": "landau", "tenant": "t9",
         "params": {"nz": 24, "ppc": 30, "n_steps": 8}}))
    states = {j: client.result(j, timeout=120)["state"] for j in ids}
    assert set(states.values()) == {"done"}


def test_watch_streams_diags_then_terminal(client):
    job_id = client.submit(dict(TINY, diag_every=2))
    events = list(client.watch(job_id))
    kinds = [e.get("event") for e in events]
    assert kinds[-1] == "done"
    diags = [e for e in events if e.get("event") == "diag"]
    assert diags and all("metrics" in d for d in diags)
    assert diags[-1]["step"] == 10


def test_watch_after_the_job_finished_replays_every_event(client):
    """``watch`` subscribes to a log, not to the wire: a job that is
    already done still streams every diag and the terminal event."""
    job_id = client.submit(dict(TINY, diag_every=2))
    assert client.result(job_id, timeout=60)["state"] == "done"
    events = list(client.watch(job_id))
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert [e["step"] for e in events if e["event"] == "diag"] \
        == [2, 4, 6, 8, 10]
    assert events[-1]["event"] == "done"
    # from a sequence number on; past the end still ends with `done`
    tail = list(client.watch(job_id, since=events[-2]["seq"]))
    assert tail == events[-2:]
    assert list(client.watch(job_id, since=10 ** 6)) == events[-1:]
    with pytest.raises(ServiceError):
        list(client.watch(job_id, since=-1))


def test_cancel_running_job(client):
    job_id = client.submit(LONG)
    deadline = time.monotonic() + 30
    while client.status(job_id)["state"] == "queued" \
            and time.monotonic() < deadline:
        time.sleep(0.05)
    client.cancel(job_id)
    res = client.result(job_id, timeout=60)
    assert res["state"] == "cancelled"
    assert client.status(job_id)["state"] == "cancelled"


def test_unknown_job_and_unknown_op(client):
    with pytest.raises(ServiceError):
        client.status("job-99999")
    with pytest.raises(ServiceError):
        client.request({"op": "frobnicate"})


def test_kill_recovery_resumes_bit_equal(client):
    baseline = client.result(client.submit(FEMPIC), timeout=300)
    assert baseline["state"] == "done"
    recovered = client.result(
        client.submit(dict(FEMPIC, die_at_step=8)), timeout=300)
    assert recovered["state"] == "done"
    assert recovered["rescues"] >= 1
    assert recovered["result"]["resumed_from"] is not None
    assert recovered["result"]["history"] \
        == baseline["result"]["history"]


def test_preemption_roundtrip_bit_equal(client):
    baseline = client.result(
        client.submit(dict(LONG, priority=2, tenant="bulk")),
        timeout=300)
    lo = client.submit(dict(LONG, priority=2, tenant="bulk"))
    deadline = time.monotonic() + 30
    while client.status(lo)["state"] == "queued" \
            and time.monotonic() < deadline:
        time.sleep(0.05)
    # two workers: occupy the second (at higher priority than lo, so
    # lo is the preemption victim), then send the urgent job from a
    # fresh tenant (no fair-share penalty to overcome)
    filler = client.submit(dict(LONG, priority=3, tenant="bulk"))
    hi = client.submit(dict(TINY, priority=9, tenant="urgent"))
    assert client.result(hi, timeout=120)["state"] == "done"
    res = client.result(lo, timeout=300)
    assert res["state"] == "done"
    assert res["result"]["history"] == baseline["result"]["history"]
    stats = client.stats()
    assert stats["counters"]["preemptions"] >= 1
    client.cancel(filler)
    client.result(filler, timeout=60)


def test_stats_and_resize(client):
    stats = client.stats()
    assert {"counters", "jobs", "scheduler", "pool"} <= set(stats)
    assert client.resize(3) == 3
    deadline = time.monotonic() + 30
    while len(client.stats()["pool"]["workers"]) < 3 \
            and time.monotonic() < deadline:
        time.sleep(0.05)
    assert len(client.stats()["pool"]["workers"]) == 3
    assert client.resize(2) == 2
    with pytest.raises(ServiceError):
        client.resize(0)


def test_server_shutdown_is_clean():
    handle = start_server_thread(port=0, n_workers=1)
    with Client(handle.host, handle.port) as c:
        c.submit(TINY)
        c.shutdown()
    deadline = time.monotonic() + 30
    while handle.server.pool.workers and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not handle.server.pool.workers
    handle.stop()
