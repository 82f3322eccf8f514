"""Staged jobs: a busy worker holds its next job and starts it the moment
its running job ends.  Every history is bit-equal to the same job run
uninterrupted in this process."""
import json
import multiprocessing as mp
import pickle
import resource
import time

import pytest

from repro.dist.proc import (DEFAULT_MAX_FRAME, _recv_control, decode_frame,
                             encode_frame)
from repro.service import Client, jobs, start_server_thread
from repro.service import pool as pool_mod
from repro.service.pool import (PK_CANCEL, PK_DIAG, PK_DONE, PK_DOWN,
                                PK_PREEMPT, PK_RUN, PK_YIELD, WarmPool)
from repro.service.scheduler import FairShareScheduler
from repro.service.server import _json_default

SHORT = {"app": "advec",
         "params": {"nx": 6, "ny": 6, "ppc": 2, "n_steps": 4}}
#: still running when a test acts on it a few hundred steps in
LONG = {"app": "advec",
        "params": {"nx": 8, "ny": 8, "ppc": 4, "n_steps": jobs.MAX_STEPS}}
#: fewer steps than FAST but ≈ 10× its wall time, so the server, which
#: weighs a running job by its steps left, stages behind it first
SLOW = {"app": "advec",
        "params": {"nx": 32, "ny": 32, "ppc": 16, "n_steps": 1000}}


def oracle(payload: dict) -> dict:
    """The job run uninterrupted in this process."""
    spec = jobs.validate_job(dict(payload))
    sim, history = jobs.build_sim(spec)
    jobs.run_steps(spec, sim, history, 0, spec.n_steps)
    return history


def wire(history: dict) -> dict:
    return json.loads(json.dumps(history, default=_json_default))


def short(n_steps: int = 4, **params) -> dict:
    return dict(SHORT, params=dict(SHORT["params"], n_steps=n_steps,
                                   **params))


# -- the worker, in this process ---------------------------------------------------


@pytest.fixture
def wire_pair(monkeypatch):
    """A pipe whose child end a job runs on, with an empty staging list
    and held-sim table."""
    monkeypatch.setattr(pool_mod, "_STAGED", [])
    monkeypatch.setattr(pool_mod, "_HELD", pool_mod.HeldSims())
    parent, child = mp.Pipe(duplex=True)
    yield parent, child
    parent.close()
    child.close()


def post(conn, kind, tag, payload=None):
    conn.send_bytes(encode_frame(kind, -1, 0, tag, payload,
                                 DEFAULT_MAX_FRAME))


def frames(conn):
    out = []
    while conn.poll(0):
        kind, _, _, tag, payload = decode_frame(
            _recv_control(conn, DEFAULT_MAX_FRAME))
        out.append((kind, tag, payload))
    return out


def run_payload(job_id, payload, checkpoint=None):
    return {"job_id": job_id, "spec": jobs.validate_job(dict(payload)),
            "checkpoint": checkpoint}


def test_run_read_mid_job_is_staged_not_lost(wire_pair, monkeypatch):
    """The between-steps poll keeps a PK_RUN it reads instead of
    dropping it, and the worker loop runs it next without reading the
    pipe again."""
    parent, child = wire_pair
    post(parent, PK_RUN, 8, run_payload("b", short(3)))
    pool_mod._run_job(child, 0, 7, run_payload("a", short(4)))
    assert [(t, p["job_id"]) for t, p in pool_mod._STAGED] == [(8, "b")]
    real_send = pool_mod._send

    def send(conn, kind, worker_id, tag, payload):
        real_send(conn, kind, worker_id, tag, payload)
        if kind == PK_DONE:         # "b" is done: let the loop return
            post(parent, pool_mod.PK_SHUTDOWN, 0)

    monkeypatch.setattr(pool_mod, "_send", send)
    pool_mod._serve(child, 0)
    got = frames(parent)
    assert [(k, t) for k, t, _ in got] == [(PK_DONE, 7), (PK_DONE, 8)]
    assert got[0][2]["history"] == oracle(short(4))
    assert got[1][2]["history"] == oracle(short(3))
    assert pool_mod._STAGED == []


@pytest.mark.parametrize("kind,reason", [(PK_PREEMPT, "preempted"),
                                         (PK_CANCEL, "cancelled")])
@pytest.mark.parametrize("resume_at", [None, 2])
def test_withdrawing_a_staged_job_leaves_the_running_one(wire_pair, kind,
                                                         reason, resume_at):
    """A preempt or cancel tagged for the staged job yields that job at
    once, unstarted — a preempted one with the checkpoint it was sent
    with — and the running job runs on to a bit-equal end."""
    parent, child = wire_pair
    staged_job = short(5)
    start = None
    if resume_at is not None:
        spec = jobs.validate_job(dict(staged_job))
        sim, hist = jobs.build_sim(spec)
        jobs.run_steps(spec, sim, hist, 0, resume_at)
        start = jobs.job_checkpoint(spec, sim, hist, resume_at)
    post(parent, PK_RUN, 8, run_payload("b", staged_job, start))
    post(parent, kind, 8)
    pool_mod._run_job(child, 0, 7, run_payload("a", short(4)))
    (k1, t1, yielded), (k2, t2, done) = frames(parent)
    assert (k1, t1, yielded["job_id"], yielded["reason"]) \
        == (PK_YIELD, 8, "b", reason)
    assert (k2, t2) == (PK_DONE, 7)
    assert done["history"] == oracle(short(4))
    assert pool_mod._STAGED == []
    if kind == PK_CANCEL:
        assert yielded["checkpoint"] is None
        return
    assert yielded["step"] == (resume_at or 0)
    assert pickle.dumps(yielded["checkpoint"]) == pickle.dumps(start)
    pool_mod._run_job(child, 0, 8, run_payload("b", staged_job,
                                               yielded["checkpoint"]))
    [(k, _, resumed)] = frames(parent)
    assert k == PK_DONE and resumed["resumed_from"] == resume_at
    assert resumed["history"] == oracle(staged_job)


def test_late_preempt_for_a_finished_job_does_not_touch_its_successor(
        wire_pair):
    """A preempt sent for a job that ended before the worker read it
    names that job's tag, so the job started after it runs to the end."""
    parent, child = wire_pair
    post(parent, PK_PREEMPT, 7)             # for "a", which already ended
    post(parent, PK_CANCEL, 7)
    pool_mod._run_job(child, 0, 8, run_payload("b", short(4)))
    [(kind, tag, done)] = frames(parent)
    assert (kind, tag) == (PK_DONE, 8)
    assert done["history"] == oracle(short(4))


# -- real worker processes ---------------------------------------------------------


def test_pool_stages_on_a_busy_worker_and_runs_it_after():
    """Through a real worker: a job staged while another is mid-run (its
    PK_RUN read by the between-steps poll) runs next, bit-equal."""
    pool = WarmPool(1)
    pool.start()
    try:
        deadline = time.monotonic() + 60
        while not pool.idle_workers() and time.monotonic() < deadline:
            pool.wait_event(10)
        wid = pool.idle_workers()[0].worker_id
        running = short(1500, nx=8, ny=8)
        assert pool.assign(wid, "a", jobs.validate_job(dict(
            running, diag_every=1)), None, tag=1)
        events = []
        while not any(e.kind == PK_DIAG for e in events):
            events += pool.wait_event(10)
        assert pool.assign(wid, "b", jobs.validate_job(short(3)), None,
                           tag=2)
        handle = pool.workers[wid]
        assert (handle.job_id, handle.staged_job_id) == ("a", "b")
        with pytest.raises(RuntimeError):   # the slot holds one job
            pool.assign(wid, "c", jobs.validate_job(short(3)), None, tag=3)
        done = {}
        while len(done) < 2 and time.monotonic() < deadline:
            for e in pool.wait_event(10):
                if e.kind == PK_DONE:
                    done[e.payload["job_id"]] = e.payload
        assert list(done) == ["a", "b"]
        assert done["a"]["history"] == oracle(running)
        assert done["b"]["history"] == oracle(short(3))
        assert handle.state == "idle"
    finally:
        pool.shutdown()


def test_pool_down_names_the_running_and_the_staged_job():
    pool = WarmPool(1)
    pool.start()
    try:
        deadline = time.monotonic() + 60
        while not pool.idle_workers() and time.monotonic() < deadline:
            pool.wait_event(10)
        wid = pool.idle_workers()[0].worker_id
        pool.assign(wid, "a", jobs.validate_job(dict(LONG)), None, tag=1)
        pool.assign(wid, "b", jobs.validate_job(short()), None, tag=2)
        assert pool.kill_worker(wid)
        down = None
        while down is None and time.monotonic() < deadline:
            down = next((e for e in pool.wait_event(10)
                         if e.kind == PK_DOWN), None)
        assert down.payload["job_id"] == "a"
        assert down.payload["staged_job_id"] == "b"
    finally:
        pool.shutdown()


# -- through the server ------------------------------------------------------------


@pytest.fixture
def serve():
    handles = []

    def start(n_workers):
        handle = start_server_thread(
            port=0, n_workers=n_workers,
            scheduler=FairShareScheduler(aging_seconds=5.0,
                                         preempt_margin=1.0))
        handles.append(handle)
        client = Client(handle.host, handle.port)
        wait_for(lambda: client.stats()["pool"]["states"].get("idle")
                 == n_workers)
        return handle, client

    yield start
    for handle in handles:
        handle.stop()


def wait_for(predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


def first_worker(handle, job_id):
    """The worker a job was first placed on."""
    return handle.server.jobs[job_id].placements[0]


def test_killed_worker_rescues_its_running_and_staged_job(serve):
    """One worker runs a job and holds the next one when it dies; both
    are requeued onto the respawned worker and end bit-equal."""
    handle, client = serve(1)
    doomed = short(1000, nx=8, ny=8)
    with client:
        a = client.submit(dict(doomed, checkpoint_every=250,
                               die_at_step=900))
        b = client.submit(short(6))
        assert client.stats()["pool"]["staged"] == 1
        res_a = client.result(a, timeout=120)
        res_b = client.result(b, timeout=120)
    assert res_a["state"] == res_b["state"] == "done"
    assert res_a["rescues"] == res_b["rescues"] == 1
    assert res_a["result"]["resumed_from"] == 750
    assert res_b["result"]["resumed_from"] is None
    assert res_a["result"]["history"] == wire(oracle(doomed))
    assert res_b["result"]["history"] == wire(oracle(short(6)))


def test_rescue_resumes_from_the_checkpoint_the_job_was_placed_with(serve):
    """A job preempted at step k and resumed from there, whose worker dies
    before it streams a newer checkpoint, resumes from k again — not
    from step 0 — and ends bit-equal."""
    handle, client = serve(1)
    job = dict(short(6000, nx=16, ny=16, ppc=8), priority=2,
               tenant="bulk", diag_every=20, die_at_step=5800)
    with client:
        x = client.submit(job)
        wait_for(lambda: client.status(x)["steps_done"] > 0)
        urgent = client.submit(dict(short(4), priority=9, tenant="urgent"))
        assert client.result(urgent, timeout=120)["state"] == "done"
        res = client.result(x, timeout=300)
        events = list(client.watch(x))
    assert res["state"] == "done"
    assert res["preemptions"] == 1 and res["rescues"] == 1
    requeued = [e["resume_step"] for e in events
                if e["event"] == "requeued"]
    assert len(requeued) == 2 and requeued[0] == requeued[1] > 0
    assert res["result"]["resumed_from"] == requeued[0]
    assert res["result"]["history"] == wire(oracle(job))


def test_staged_job_moves_to_a_worker_that_goes_idle(serve):
    """With two workers, a job staged behind a slow job is withdrawn
    when the other worker goes idle with nothing queued, and finishes
    there; it never started behind the slow job, so the withdrawal is
    no preemption."""
    handle, client = serve(2)
    with client:
        slow = client.submit(dict(SLOW))
        wait_for(lambda: client.status(slow)["state"] == "running")
        medium = client.submit(short(3000, nx=8, ny=8))
        job = client.submit(short(7))
        res = client.result(job, timeout=120)
        assert client.result(medium, timeout=120)["state"] == "done"
        assert client.status(slow)["state"] == "running"
        client.cancel(slow)
        assert client.result(slow, timeout=60)["state"] == "cancelled"
    assert res["state"] == "done"
    first, second = res["placements"]
    assert first == first_worker(handle, slow) and second != first
    assert res["preemptions"] == 0
    assert handle.server.counters["withdrawals"] == 1
    assert res["result"]["history"] == wire(oracle(short(7)))


def test_resize_down_withdraws_a_draining_workers_staged_job(serve):
    handle, client = serve(2)
    with client:
        first = client.submit(dict(LONG))
        other = client.submit(dict(LONG))
        wait_for(lambda: client.status(other)["state"] == "running")
        job = client.submit(short(5))
        assert client.stats()["pool"]["staged"] == 1
        staged_on = first_worker(handle, job)
        assert staged_on == first_worker(handle, first)
        assert client.resize(1) == 1
        wait_for(lambda: len(client.status(job)["placements"]) == 2)
        assert client.status(job)["placements"][1] \
            == first_worker(handle, other)
        client.cancel(other)
        res = client.result(job, timeout=120)
        client.cancel(first)
        for long_id in (first, other):
            assert client.result(long_id, timeout=60)["state"] \
                == "cancelled"
        wait_for(lambda: len(client.stats()["pool"]["workers"]) == 1)
    assert res["state"] == "done" and res["preemptions"] == 0
    assert handle.server.counters["withdrawals"] == 1
    assert res["result"]["history"] == wire(oracle(short(5)))


@pytest.mark.parametrize("fast_steps", [1000, 3000],
                         ids=["started-staged", "went-idle"])
def test_a_pick_staged_behind_a_slow_job_is_pulled_by_a_faster_worker(
        serve, fast_steps):
    """Two workers, one busy with a slow job: of three equal jobs queued
    behind a faster one, the first (staged behind the slow job) is
    pulled back as soon as the other worker starts a job picked after
    it — its staged one, or with ``went-idle`` (where it had none) the
    next queued one — and ends before the third, long before the slow
    job."""
    handle, client = serve(2)
    with client:
        slow = client.submit(dict(SLOW))
        wait_for(lambda: client.status(slow)["state"] == "running")
        fast = client.submit(short(fast_steps, nx=8, ny=8))
        wait_for(lambda: client.status(fast)["state"] == "running")
        j1, j2, j3 = (client.submit(short(7)) for _ in range(3))
        assert first_worker(handle, j1) == first_worker(handle, slow)
        results = {j: client.result(j, timeout=120) for j in (j1, j2, j3)}
        assert client.status(slow)["state"] == "running"
        client.cancel(slow)
        client.result(slow, timeout=60)
    jobs_ = handle.server.jobs
    assert jobs_[j1].finished_at < jobs_[j3].finished_at
    assert jobs_[j1].placements == [first_worker(handle, slow),
                                    first_worker(handle, fast)]
    for j in (j1, j2, j3):
        assert results[j]["state"] == "done"
        assert results[j]["preemptions"] == 0
        assert results[j]["result"]["history"] == wire(oracle(short(7)))


def test_a_pick_waits_in_the_queue_rather_than_behind_more_steps(serve):
    """A busy worker is handed a next job only if its running job has no
    more steps left than another busy worker has to run first: a job
    submitted while one worker runs a long job and the other a short
    one waits in the queue, not behind the long job."""
    handle, client = serve(2)
    with client:
        long_id = client.submit(dict(LONG))
        wait_for(lambda: client.status(long_id)["state"] == "running")
        medium = client.submit(short(1500, nx=8, ny=8))
        wait_for(lambda: client.status(medium)["state"] == "running")
        staged, queued = (client.submit(short(7)) for _ in range(2))
        assert first_worker(handle, staged) == first_worker(handle, medium)
        assert client.status(queued)["state"] in ("queued", "running", "done")
        results = [client.result(j, timeout=120) for j in (staged, queued)]
        client.cancel(long_id)
        client.result(long_id, timeout=60)
    assert handle.server.counters["withdrawals"] == 0
    for res in results:
        assert res["placements"] == [first_worker(handle, medium)]
        assert res["result"]["history"] == wire(oracle(short(7)))


@pytest.mark.parametrize("job", [
    {"app": "landau", "params": {"nz": 24, "ppc": 30, "n_steps": 3},
     "preemptible": False},
    dict(short(7), preemptible=False)])
def test_a_pick_no_withdrawal_can_move_is_not_staged(serve, job):
    """A job that may not be preempted is never staged: it waits in
    the queue and starts on the first worker to go idle."""
    handle, client = serve(2)
    with client:
        long_id = client.submit(dict(LONG))
        wait_for(lambda: client.status(long_id)["state"] == "running")
        medium = client.submit(short(1500, nx=8, ny=8))
        wait_for(lambda: client.status(medium)["state"] == "running")
        job_id = client.submit(job)
        assert client.status(job_id)["state"] == "queued"
        assert client.stats()["pool"]["staged"] == 0
        res = client.result(job_id, timeout=120)
        client.cancel(long_id)
        client.result(long_id, timeout=60)
    assert res["state"] == "done"
    assert res["placements"] == [first_worker(handle, medium)]
    assert res["result"]["history"] == wire(oracle(job))


def test_one_idle_worker_pulls_back_one_staged_job(serve):
    """With three workers, a worker that goes idle pulls back one staged
    job, not one more on every frame that comes in before that job is
    back: the other stays staged until the worker is idle again."""
    handle, client = serve(3)
    busy = dict(SLOW, diag_every=1)       # a frame every step
    with client:
        longs = [client.submit(busy) for _ in range(2)]
        wait_for(lambda: all(client.status(j)["state"] == "running"
                             for j in longs))
        medium = client.submit(short(3000, nx=8, ny=8))
        wait_for(lambda: client.status(medium)["state"] == "running")
        a = client.submit(short(1500, nx=8, ny=8))
        b = client.submit(short(7))
        assert client.stats()["pool"]["staged"] == 2
        wait_for(lambda: len(client.status(a)["placements"]) == 2)
        time.sleep(0.05)
        assert client.status(b)["placements"] \
            == [first_worker(handle, longs[1])]
        res = {j: client.result(j, timeout=120) for j in (a, b)}
        for j in longs:
            client.cancel(j)
            client.result(j, timeout=60)
    assert handle.server.counters["withdrawals"] == 2
    assert res[a]["result"]["history"] \
        == wire(oracle(short(1500, nx=8, ny=8)))
    assert res[b]["result"]["history"] == wire(oracle(short(7)))


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


@pytest.mark.parametrize("how", ["retire", "kill"])
def test_the_server_stops_watching_a_gone_worker(serve, how):
    """A worker retired by ``resize`` or killed is unwatched before its
    pipe is closed and reaped: the server keeps exactly the live
    workers' fds and does not spin on the gone one's EOF."""
    handle, client = serve(2)
    with client:
        ids = [client.submit(short(400, nx=8, ny=8)) for _ in range(2)]
        wait_for(lambda: all(client.status(j)["state"] == "running"
                             for j in ids))
        if how == "retire":
            assert client.resize(1) == 1
        else:
            client.kill_worker()
        for j in ids:
            assert client.result(j, timeout=120)["state"] == "done"
        wait_for(lambda: client.stats()["pool"]["states"]
                 == {"idle": 2 if how == "kill" else 1})
        server = handle.server
        assert sorted(server._registered_fds.values()) \
            == sorted(server.pool.workers)
        before = _cpu_seconds()
        time.sleep(0.5)
        assert _cpu_seconds() - before < 0.2
