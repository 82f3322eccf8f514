"""Warm pool mechanics (repro.service.pool): real worker processes."""
import multiprocessing as mp
import pickle
import time

import pytest

from repro.dist.proc import _encode_body
from repro.service import jobs
from repro.service import pool as pool_mod
from repro.service.pool import (PK_CKPT, PK_DIAG, PK_DONE, PK_DOWN,
                                PK_RUN, PK_UP, PK_YIELD, WarmPool)

ADVEC = {"app": "advec",
         "params": {"nx": 6, "ny": 6, "ppc": 2, "n_steps": 10}}
#: a job that is still running when the test interrupts it 0.2 s in: with
#: the compiled loops a few thousand steps finish in about that time
LONG = {"app": "advec",
        "params": {"nx": 8, "ny": 8, "ppc": 4, "n_steps": jobs.MAX_STEPS}}


@pytest.fixture
def pool():
    p = WarmPool(2)
    p.start()
    up = 0
    deadline = time.monotonic() + 60
    while up < 2 and time.monotonic() < deadline:
        up += sum(e.kind == PK_UP for e in p.wait_event(10))
    assert up == 2, "workers never came up"
    yield p
    p.shutdown()


def run_to_done(pool, job_id, spec, checkpoint=None, tag=1,
                timeout=60.0):
    wid = pool.idle_workers()[0].worker_id
    assert pool.assign(wid, job_id, spec, checkpoint, tag=tag)
    events = []
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        events.extend(pool.wait_event(10))
        for e in events:
            if e.kind == PK_DONE and e.payload["job_id"] == job_id:
                return e.payload, events, wid
    raise AssertionError(f"{job_id} never finished; events: "
                         f"{[e.name for e in events]}")


def test_run_streams_diag_and_ckpt_then_done(pool):
    spec = jobs.validate_job(dict(ADVEC, diag_every=5,
                                  checkpoint_every=4))
    done, events, _ = run_to_done(pool, "j1", spec)
    kinds = [e.kind for e in events]
    assert PK_DIAG in kinds and PK_CKPT in kinds
    assert done["steps"] == 10
    assert done["resumed_from"] is None
    assert len(done["history"]["mean_disp"]) == 10


def test_warm_reuse_hits_cache_and_is_bit_equal(pool):
    spec = jobs.validate_job(ADVEC)
    first, _, wid = run_to_done(pool, "a", spec)
    assert first["cache"]["enabled"] and first["cache"]["misses"] >= 1
    # force the second run onto the same (now warm) worker
    others = [h for h in pool.idle_workers() if h.worker_id != wid]
    for h in others:
        h.state = "busy"      # park them so run_to_done picks wid
    try:
        second, _, wid2 = run_to_done(pool, "b", spec, tag=2)
    finally:
        for h in others:
            h.state = "idle"
    assert wid2 == wid
    assert second["cache"]["sims"]["hits"] > first["cache"]["sims"]["hits"]
    assert second["history"] == first["history"]


def test_resume_from_checkpoint_on_other_worker_is_bit_equal(pool):
    spec = jobs.validate_job(ADVEC)
    baseline, _, wid = run_to_done(pool, "base", spec)
    sim, hist = jobs.build_sim(spec)
    jobs.run_steps(spec, sim, hist, 0, 4)
    ckpt = jobs.job_checkpoint(spec, sim, hist, 4)
    other = [h for h in pool.idle_workers() if h.worker_id != wid][0]
    assert pool.assign(other.worker_id, "resumed", spec, ckpt, tag=9)
    deadline = time.monotonic() + 60
    done = None
    while done is None and time.monotonic() < deadline:
        for e in pool.wait_event(10):
            if e.kind == PK_DONE:
                done = e.payload
    assert done["resumed_from"] == 4
    assert done["history"] == baseline["history"]


def test_preempt_yields_checkpoint_and_worker_goes_idle(pool):
    long = jobs.validate_job(LONG)
    wid = pool.idle_workers()[0].worker_id
    pool.assign(wid, "long", long, None, tag=3)
    time.sleep(0.2)
    assert pool.preempt(wid)
    deadline = time.monotonic() + 60
    yielded = None
    while yielded is None and time.monotonic() < deadline:
        for e in pool.wait_event(10):
            if e.kind == PK_YIELD:
                yielded = e.payload
    assert yielded["reason"] == "preempted"
    assert 0 < yielded["step"] < jobs.MAX_STEPS
    assert yielded["checkpoint"]["step"] == yielded["step"]
    assert pool.workers[wid].state == "idle"


def test_kill_worker_surfaces_down_and_respawn(pool):
    spec = jobs.validate_job(LONG)
    wid = pool.idle_workers()[0].worker_id
    pool.assign(wid, "doomed", spec, None, tag=4)
    time.sleep(0.2)
    assert pool.kill_worker(wid)
    deadline = time.monotonic() + 60
    down = None
    while down is None and time.monotonic() < deadline:
        for e in pool.wait_event(10):
            if e.kind == PK_DOWN:
                down = e
    assert down.payload["job_id"] == "doomed"
    assert wid not in pool.workers
    fresh = pool.ensure_target()
    assert len(fresh) == 1 and pool.respawns >= 1


def test_die_at_step_fires_only_on_fresh_runs(pool):
    spec = jobs.validate_job(dict(ADVEC, die_at_step=5,
                                  checkpoint_every=2))
    wid = pool.idle_workers()[0].worker_id
    pool.assign(wid, "inj", spec, None, tag=5)
    deadline = time.monotonic() + 60
    ckpt, down = None, None
    while down is None and time.monotonic() < deadline:
        for e in pool.wait_event(10):
            if e.kind == PK_CKPT:
                ckpt = e.payload["checkpoint"]
            elif e.kind == PK_DOWN:
                down = e
    assert down is not None and ckpt is not None
    assert ckpt["step"] == 4      # last checkpoint before the death
    pool.ensure_target()
    while not pool.idle_workers():
        pool.wait_event(10)
    # resume with the injection cleared (what the server's rescue does)
    spec.die_at_step = None
    wid2 = pool.idle_workers()[0].worker_id
    pool.assign(wid2, "inj", spec, ckpt, tag=6)
    done = None
    deadline = time.monotonic() + 60
    while done is None and time.monotonic() < deadline:
        for e in pool.wait_event(10):
            if e.kind == PK_DONE:
                done = e.payload
    assert done["steps"] == 10 and done["resumed_from"] == 4


def test_resize_grows_and_shrinks(pool):
    assert len(pool.live_workers()) == 2
    fresh = pool.resize(3)
    assert len(fresh) == 1
    assert len(pool.live_workers()) == 3
    pool.resize(1)
    assert len(pool.live_workers()) == 1
    assert pool.target_size == 1


def test_run_frame_at_the_limit_reaches_the_worker(monkeypatch):
    """A ``PK_RUN`` whose body is exactly the frame limit is a legal
    frame: the worker reads the header on top of the body and runs the
    job.  Forked workers inherit the patched limit."""
    if "fork" not in mp.get_all_start_methods():
        pytest.skip("the patched limit reaches the workers through fork")
    limit = 16 * 1024
    monkeypatch.setattr(pool_mod, "DEFAULT_MAX_FRAME", limit)
    spec = jobs.validate_job(dict(ADVEC, params=dict(ADVEC["params"],
                                                     n_steps=1)))
    payload = {"job_id": "edge", "spec": spec, "checkpoint": None,
               "pad": b"x" * 1000}
    payload["pad"] = b"x" * (1000 + limit - len(_encode_body(payload)))
    assert len(_encode_body(payload)) == limit

    p = WarmPool(1)
    p.start()
    try:
        deadline = time.monotonic() + 60
        while not p.idle_workers() and time.monotonic() < deadline:
            p.wait_event(10)
        handle = p.idle_workers()[0]
        assert p._post(handle, PK_RUN, 1, payload)
        handle.state, handle.job_id, handle.tag = "busy", "edge", 1
        events = []
        while time.monotonic() < deadline and not any(
                e.kind in (PK_DONE, PK_DOWN) for e in events):
            events.extend(p.wait_event(10))
        assert [e.kind for e in events] == [PK_DONE], \
            [e.name for e in events]
        assert events[0].payload["job_id"] == "edge"
    finally:
        p.shutdown()


@pytest.mark.parametrize("resume_at", [None, 1])
def test_preempt_before_the_first_step_yields_the_start(monkeypatch,
                                                        resume_at):
    """A job preempted before it ran a step yields the checkpoint it was
    started from (None for a fresh job) without checkpointing again, and
    the job resumed from it ends bit-equal to an uninterrupted run."""
    from repro.dist.proc import (DEFAULT_MAX_FRAME, _recv_control,
                                 decode_frame, encode_frame)
    spec = jobs.validate_job(dict(ADVEC, params=dict(ADVEC["params"],
                                                      n_steps=3)))
    sim, history = jobs.build_sim(spec)
    jobs.run_steps(spec, sim, history, 0, spec.n_steps)
    start = None
    if resume_at is not None:
        sim, hist = jobs.build_sim(spec)
        jobs.run_steps(spec, sim, hist, 0, resume_at)
        start = jobs.job_checkpoint(spec, sim, hist, resume_at)
    # the worker already holds this spec's sim: a miss would take its
    # step-0 snapshot, which is not the checkpoint this test is about
    monkeypatch.setattr(pool_mod, "_HELD", pool_mod.HeldSims())
    pool_mod._HELD.start(spec, None)
    checkpoints = []
    real = pool_mod.job_checkpoint
    monkeypatch.setattr(pool_mod, "job_checkpoint",
                        lambda *a: checkpoints.append(a) or real(*a))

    def run(checkpoint, preempt):
        parent, child = mp.Pipe(duplex=True)
        try:
            if preempt:
                parent.send_bytes(encode_frame(
                    pool_mod.PK_PREEMPT, -1, 0, 7, None, DEFAULT_MAX_FRAME))
            pool_mod._run_job(child, 0, 7, {"job_id": "j", "spec": spec,
                                            "checkpoint": checkpoint})
            kind, _, _, tag, payload = decode_frame(
                _recv_control(parent, DEFAULT_MAX_FRAME))
        finally:
            parent.close()
            child.close()
        assert tag == 7
        return kind, payload

    kind, yielded = run(start, preempt=True)
    assert kind == PK_YIELD and yielded["reason"] == "preempted"
    assert yielded["step"] == (resume_at or 0)
    # through the wire: the same checkpoint, not one taken afresh
    assert pickle.dumps(yielded["checkpoint"]) == pickle.dumps(start)
    assert checkpoints == []
    kind, done = run(yielded["checkpoint"], preempt=False)
    assert kind == PK_DONE and done["steps"] == spec.n_steps
    assert done["resumed_from"] == resume_at
    assert done["history"] == history


def test_draining_worker_retires_once(pool):
    """A draining worker's last DONE retires it: no spurious ``PK_DOWN``
    follows, and the process is reaped once."""
    spec = jobs.validate_job(dict(ADVEC, params=dict(ADVEC["params"],
                                                     n_steps=200)))
    for tag, handle in enumerate(list(pool.idle_workers()), start=1):
        assert pool.assign(handle.worker_id, f"j{tag}", spec, None, tag=tag)
    pool.resize(1)
    [draining] = [h.worker_id for h in pool.workers.values()
                  if h.state == "draining"]
    events = []
    deadline = time.monotonic() + 60
    while sum(e.kind == PK_DONE for e in events) < 2 \
            and time.monotonic() < deadline:
        events += pool.wait_event(10)
    assert [e.kind for e in events if e.worker_id == draining] == [PK_DONE]
    assert draining not in pool.workers
    pool.reap_dead()


def _wait_for(pool, pred, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for e in pool.wait_event(10):
            if pred(e):
                return e.payload
    raise AssertionError("the awaited event never came")


def _cold(spec) -> dict:
    sim, history = jobs.build_sim(spec)
    jobs.run_steps(spec, sim, history, 0, spec.n_steps)
    return history


def test_landau_preempted_on_a_worker_resumes_bit_equal(pool):
    """Landau's species sets are declared state like any other: a
    preempted landau job yields a checkpoint and resumes from it."""
    spec = jobs.validate_job({"app": "landau", "diag_every": 1, "params": {
        "nz": 24, "ppc": 30, "n_steps": 2000}})
    wid = pool.idle_workers()[0].worker_id
    assert pool.assign(wid, "landau", spec, None, tag=5)
    _wait_for(pool, lambda e: e.kind == PK_DIAG)
    assert pool.preempt(wid)
    yielded = _wait_for(pool, lambda e: e.kind == PK_YIELD)
    assert yielded["reason"] == "preempted"
    assert 0 < yielded["step"] < spec.n_steps
    done, _, _ = run_to_done(pool, "landau-resumed", spec,
                             yielded["checkpoint"], tag=6)
    assert done["resumed_from"] == yielded["step"]
    assert done["history"] == _cold(spec)


def test_collisional_fempic_resumes_from_a_streamed_checkpoint(pool):
    """The collision stream is part of the state: a collisional job
    resumed on another worker from its step-2 checkpoint finishes with
    the uninterrupted history."""
    spec = jobs.validate_job({"app": "fempic", "checkpoint_every": 2,
                              "params": {"nx": 2, "ny": 2, "nz": 6,
                                         "plasma_den": 1234.5, "n0": 2000.0,
                                         "n_steps": 6,
                                         "collision_frequency": 2.0}})
    baseline, events, wid = run_to_done(pool, "coll", spec)
    assert baseline["history"] == _cold(spec)
    ckpt = next(e.payload["checkpoint"] for e in events
                if e.kind == PK_CKPT and e.payload["step"] == 2)
    other = [h for h in pool.idle_workers() if h.worker_id != wid][0]
    assert pool.assign(other.worker_id, "coll-resumed", spec, ckpt, tag=7)
    done = _wait_for(pool, lambda e: e.kind == PK_DONE)
    assert done["resumed_from"] == 2
    assert done["history"] == baseline["history"]


class _Proc:
    """A worker process that has or has not exited yet."""

    def __init__(self):
        self.exitcode = None
        self.joins = 0
        self.closed = False

    def join(self, timeout=None):
        self.joins += 1

    def is_alive(self):
        return self.exitcode is None

    def close(self):
        self.closed = True


class _Conn:
    def close(self):
        pass


def test_reap_dead_waits_for_no_live_worker():
    """A retired worker still finishing up is not joined on the
    server's event loop: it stays in ``_dead`` until it has exited."""
    p = WarmPool(1)
    live = pool_mod.WorkerHandle(7, _Proc(), _Conn())
    p._dead.append(live)
    p.reap_dead()
    assert live.proc.joins == 0 and not live.proc.closed
    assert p._dead == [live]
    live.proc.exitcode = 0
    p.reap_dead()
    assert live.proc.closed and p._dead == []
