"""PIC-as-a-service: the asyncio job server.

One process hosts three cooperating pieces:

* a TCP front end speaking **NDJSON** — one JSON object per line, one
  request per line, responses (and ``watch`` streams) as JSON lines
  back;
* the :class:`~repro.service.scheduler.FairShareScheduler` deciding
  *which* validated job runs next (priority + aging + tenant
  fair-share, with preemption);
* the :class:`~repro.service.pool.WarmPool` of persistent worker
  processes actually running simulations, wired into the event loop
  via ``loop.add_reader`` on each worker's pipe fd — no polling task,
  no worker threads in the server.

Failure handling closes the loop with the elastic-runtime work (PR 5):
every ``checkpoint_every`` steps a running job streams a resume point
to the server; if its worker dies (crash, ``kill-worker`` op, injected
``die_at_step``), the job is requeued *with that checkpoint* and
resumes on another worker — same trajectory, bit-for-bit — while the
pool respawns a replacement worker.  Preemption uses the same
machinery: checkpoint, yield, requeue, resume elsewhere.

Requests::

    {"op": "submit", "job": {...}}        -> {"ok": true, "job_id": ...}
    {"op": "status", "job_id": ...}       -> {"ok": true, "state": ...}
    {"op": "result", "job_id": ...}       -> blocks until terminal
    {"op": "watch",  "job_id": ...[, "since": N]}
                                          -> the job's events from
                                             sequence number N (default
                                             0: all retained), then live
    {"op": "cancel", "job_id": ...}
    {"op": "stats"} | {"op": "schemas"} | {"op": "ping"}
    {"op": "kill-worker"[, "job_id"|"worker_id"]}   (fault injection)
    {"op": "resize", "n_workers": N}
    {"op": "shutdown"}
"""
from __future__ import annotations

import asyncio
import collections
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .jobs import JobValidationError, describe_schemas, validate_job
from .pool import (PK_CKPT, PK_DIAG, PK_DONE, PK_DOWN, PK_FAIL, PK_UP,
                   PK_YIELD, WarmPool)
from .scheduler import FairShareScheduler, QueuedJob

__all__ = ["ServiceServer", "start_server_thread", "ServerThread"]

#: a job is abandoned after this many preemption-free restarts
DEFAULT_MAX_RESTARTS = 3

TERMINAL = ("done", "failed", "cancelled")

#: events a job keeps for ``watch`` to replay (oldest dropped first)
MAX_JOB_EVENTS = 4096


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def dumps(obj) -> bytes:
    return (json.dumps(obj, default=_json_default,
                       separators=(",", ":")) + "\n").encode()


@dataclass
class JobRecord:
    """Server-side lifecycle of one submitted job."""

    job_id: str
    item: QueuedJob
    state: str = "queued"        # queued | running | done | failed | cancelled
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    worker_id: Optional[int] = None
    #: workers this job has run on (len > 1 means it migrated)
    placements: List[int] = field(default_factory=list)
    steps_done: int = 0
    result: Optional[dict] = None
    error: Optional[dict] = None
    cancel_requested: bool = False
    preempt_requested: bool = False
    #: order of its staging, from staging until the server has seen its
    #: worker start it (None for a job placed on an idle worker)
    staged_no: Optional[int] = None
    preemptions: int = 0
    rescues: int = 0
    done_event: asyncio.Event = field(default_factory=asyncio.Event)
    watchers: List[asyncio.Queue] = field(default_factory=list)
    #: every published event, each carrying its ``seq`` number
    events: collections.deque = field(
        default_factory=lambda: collections.deque(maxlen=MAX_JOB_EVENTS))
    next_seq: int = 0

    def public(self) -> dict:
        out = {"job_id": self.job_id, "state": self.state,
               "app": self.item.spec.app,
               "tenant": self.item.spec.tenant,
               "priority": self.item.spec.priority,
               "steps_done": self.steps_done,
               "n_steps": self.item.spec.n_steps,
               "placements": self.placements,
               "preemptions": self.preemptions,
               "rescues": self.rescues}
        if self.started_at is not None:
            out["wait_seconds"] = self.started_at - self.submitted_at
        if self.finished_at is not None:
            out["latency_seconds"] = (self.finished_at
                                      - self.submitted_at)
        if self.error is not None:
            out["error"] = self.error
        return out


class ServiceServer:
    """The service: own it with ``async with`` or start()/stop()."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 n_workers: int = 2,
                 scheduler: Optional[FairShareScheduler] = None,
                 default_backend: Optional[str] = None,
                 max_restarts: int = DEFAULT_MAX_RESTARTS):
        self.host = host
        self.port = int(port)          # 0 = ephemeral; real port after start
        self.default_backend = default_backend
        self.max_restarts = int(max_restarts)
        self.scheduler = scheduler or FairShareScheduler()
        self.pool = WarmPool(n_workers)
        self.jobs: Dict[str, JobRecord] = {}
        self._ids = itertools.count(1)
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._registered_fds: Dict[int, int] = {}   # fd -> worker_id
        self._stage_nos = itertools.count(1)
        #: staged job pulled back -> the worker whose slot waits for it
        self._pulls: Dict[str, int] = {}
        #: worker -> the running job it held when its staged job was
        #: pulled away (it takes no staged job while that one runs)
        self._slow: Dict[int, str] = {}
        self._stopping = False
        self.stopped: Optional[asyncio.Event] = None
        self.counters = {"submitted": 0, "rejected": 0, "done": 0,
                         "failed": 0, "cancelled": 0, "preemptions": 0,
                         "rescues": 0, "worker_deaths": 0,
                         "withdrawals": 0}

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.stopped = asyncio.Event()
        for handle in self.pool.start():
            self._register(handle)
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._stopping:
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for fd in list(self._registered_fds):
            self._loop.remove_reader(fd)
        self._registered_fds.clear()
        # unblock anyone awaiting a result
        for record in self.jobs.values():
            if record.state not in TERMINAL:
                self._finish(record, "cancelled",
                             error={"error": "server shut down"})
        self.pool.shutdown()
        self.stopped.set()

    async def serve_forever(self) -> None:
        """Start and block until a ``shutdown`` op (or :meth:`stop`)."""
        await self.start()
        await self.stopped.wait()

    async def __aenter__(self) -> "ServiceServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    def _register(self, handle) -> None:
        fd = handle.conn.fileno()
        self._registered_fds[fd] = handle.worker_id
        self._loop.add_reader(fd, self._on_readable, handle.worker_id,
                              fd)

    def _on_readable(self, worker_id: int, fd: int) -> None:
        events = self.pool.drain(worker_id)
        for event in events:
            self._handle_event(event)
        if worker_id not in self.pool.workers:      # died or retired
            self._reap_gone()
            if not self._stopping:
                for handle in self.pool.ensure_target():
                    self._register(handle)
        self._schedule()

    def _reap_gone(self) -> None:
        """Stop watching the pipes of workers the pool let go, then
        let the pool close and reap them (closing first would leave the
        fd readable in the loop: see ``WarmPool._forget``)."""
        for fd, worker_id in list(self._registered_fds.items()):
            if worker_id not in self.pool.workers:
                self._loop.remove_reader(fd)
                del self._registered_fds[fd]
                self._slow.pop(worker_id, None)
        self.pool.reap_dead()

    # -- event handling ------------------------------------------------------------

    def _record_for(self, payload) -> Optional[JobRecord]:
        if isinstance(payload, dict):
            return self.jobs.get(payload.get("job_id") or "")
        return None

    def _handle_event(self, event) -> None:
        record = self._record_for(event.payload)
        if event.kind == PK_UP:
            return
        if event.kind == PK_DIAG and record is not None:
            record.steps_done = event.payload["step"]
            self._publish(record, {"event": "diag",
                                   "job_id": record.job_id,
                                   "step": event.payload["step"],
                                   "metrics": event.payload["metrics"]})
        elif event.kind == PK_CKPT and record is not None:
            record.steps_done = event.payload["step"]
            record.item.checkpoint = event.payload["checkpoint"]
        elif event.kind == PK_DONE and record is not None:
            record.steps_done = event.payload["steps"]
            record.result = {
                "history": event.payload["history"],
                "steps": event.payload["steps"],
                "resumed_from": event.payload.get("resumed_from"),
                "elapsed": event.payload.get("elapsed"),
                "cache": event.payload.get("cache"),
            }
            self._charge(record, event.payload.get("elapsed"))
            self._finish(record, "done")
        elif event.kind == PK_FAIL and record is not None:
            self._charge(record, event.payload.get("elapsed"))
            self._finish(record, "failed",
                         error={"error": event.payload.get("error"),
                                "traceback":
                                    event.payload.get("traceback")})
        elif event.kind == PK_YIELD and record is not None:
            self._charge(record, event.payload.get("elapsed"))
            if event.payload.get("reason") == "cancelled" \
                    or record.cancel_requested:
                self._finish(record, "cancelled")
            elif event.payload.get("unstarted"):
                # a staged job withdrawn before it started: nothing ran,
                # so it is no preemption and no restart
                self.counters["withdrawals"] += 1
                self._requeue(record, restart=False)
            else:
                record.preemptions += 1
                self.counters["preemptions"] += 1
                if event.payload.get("checkpoint") is not None:
                    record.item.checkpoint = event.payload["checkpoint"]
                self._requeue(record)
        elif event.kind == PK_DOWN:
            self.counters["worker_deaths"] += 1
            self._rescue(record, ran=True)
            self._rescue(self.jobs.get(event.payload["staged_job_id"]
                                       or ""), ran=False)

    def _rescue(self, record: Optional[JobRecord], ran: bool) -> None:
        """Requeue a job whose worker died: the running one resumes from
        its last checkpoint (or, with none streamed yet, restarts from
        scratch); a staged one never started there, so it goes back
        as it was sent."""
        if record is None or record.state in TERMINAL:
            return
        if ran:     # the injected death must not re-fire on the retry
            record.item.spec.die_at_step = None
        record.rescues += 1
        self.counters["rescues"] += 1
        if record.cancel_requested:
            self._finish(record, "cancelled")
        elif ran and record.item.restarts >= self.max_restarts:
            self._finish(record, "failed",
                         error={"error": f"worker died "
                                f"{record.item.restarts + 1} times"})
        else:
            self._requeue(record)

    def _charge(self, record: JobRecord, elapsed) -> None:
        if elapsed:
            self.scheduler.charge(record.item.spec.tenant,
                                  float(elapsed), time.monotonic())

    def _requeue(self, record: JobRecord, restart: bool = True) -> None:
        """Back to the queue, to resume from the checkpoint the item
        keeps (the newest one the job streamed or yielded)."""
        ckpt = record.item.checkpoint
        record.state = "queued"
        record.worker_id = None
        record.preempt_requested = False
        record.staged_no = None
        record.steps_done = 0 if ckpt is None else ckpt["step"]
        self._pulls.pop(record.job_id, None)
        if restart:
            self.scheduler.requeue(record.item)
        else:
            self.scheduler.submit(record.item)
        self._publish(record, {"event": "requeued",
                               "job_id": record.job_id,
                               "restarts": record.item.restarts,
                               "resume_step": record.steps_done})

    def _finish(self, record: JobRecord, state: str,
                error: Optional[dict] = None) -> None:
        record.state = state
        record.error = error
        record.worker_id = None
        record.staged_no = None
        record.finished_at = time.monotonic()
        self._pulls.pop(record.job_id, None)
        self.counters[state] += 1
        event = {"event": state, "job_id": record.job_id}
        if error is not None:
            event.update(error)
        self._publish(record, event, terminal=True)
        record.done_event.set()

    def _publish(self, record: JobRecord, event: dict,
                 terminal: bool = False) -> None:
        event["seq"] = record.next_seq
        record.next_seq += 1
        record.events.append(event)
        for q in record.watchers:
            q.put_nowait(event)
        if terminal:
            record.watchers.clear()

    # -- scheduling ----------------------------------------------------------------

    def _movable(self, job_id: Optional[str]) -> Optional[JobRecord]:
        """The record of a placed job no preempt or cancel is on its way
        to, else None."""
        rec = self.jobs.get(job_id or "")
        if rec is not None and rec.state == "running" \
                and not rec.preempt_requested and not rec.cancel_requested:
            return rec
        return None

    def _running_items(self) -> List[QueuedJob]:
        """Running and staged jobs that may still be preempted."""
        return [rec.item for handle in self.pool.busy_workers()
                for rec in (self._movable(handle.job_id),
                            self._movable(handle.staged_job_id))
                if rec is not None]

    def _schedule(self) -> None:
        """Idle workers take the best picks; then, with every worker
        busy, the best queued job may preempt a running or staged one;
        then each busy worker with an empty staging slot is handed its
        next pick, so it starts that job the moment its running one
        ends — unless its running job has more steps left than another
        busy worker has to run before it is free.  A worker that starts
        a job picked after one still staged elsewhere pulls that one
        back (:meth:`_pull_overtaken`).  A staged pick is made before
        the running job's tenant is charged for it (the charge comes
        with the job's DONE)."""
        if self._stopping:
            return
        now = time.monotonic()
        for handle in self.pool.busy_workers():
            rec = self.jobs.get(handle.job_id or "")
            if rec is not None and rec.staged_no is not None:
                # its worker has started it since the last pass
                started, rec.staged_no = rec.staged_no, None
                self._pull_overtaken(handle, started)
        for handle in self.pool.idle_workers():
            if handle.worker_id in self._pulls.values():
                continue        # the job pulled back for it is on its way
            if not self._place(handle, now):
                break
        if not len(self.scheduler):
            self._withdraw_for_idle()
            return
        if self.pool.idle_workers():
            return
        victim = self.scheduler.pick_victim(self._running_items(), now)
        if victim is not None:
            self._preempt(self.jobs[victim.job_id])
        busy = self.pool.busy_workers()
        reserved = set(self._pulls.values())
        slots = [h for h in busy
                 if h.staged_job_id is None and h.worker_id not in reserved
                 and self._slow.get(h.worker_id) != h.job_id]
        # a worker whose running job is being preempted or cancelled first
        slots.sort(key=lambda h: self._movable(h.job_id) is not None)
        for handle in slots:
            # not behind a job with more steps left than another worker
            # has to run before it is free
            others = [self._steps_left(h.job_id)
                      + self._steps_left(h.staged_job_id)
                      for h in busy if h is not handle]
            if others and self._steps_left(handle.job_id) > min(others):
                continue
            if not self._place(handle, now):
                break

    def _steps_left(self, job_id: Optional[str]) -> int:
        """Steps a placed job has still to run, as far as the server
        knows (0 once a preempt or cancel is on its way to it)."""
        rec = self._movable(job_id)
        return 0 if rec is None else rec.item.spec.n_steps - rec.steps_done

    def _place(self, handle, now: float) -> bool:
        """Send the scheduler's best pick to ``handle``: to run on an
        idle worker, staged on a busy one.  False once the queue is
        empty, or when the pick may not be staged: only a job a
        withdrawal can move (a preemptible one) waits in a staging slot,
        the rest wait in the queue for a free worker."""
        item = self.scheduler.pop(now)
        while item is not None and self.jobs[item.job_id].cancel_requested:
            self._finish(self.jobs[item.job_id], "cancelled")
            item = self.scheduler.pop(now)
        if item is None:
            return False
        staging = handle.state == "busy"
        if staging and not item.spec.preemptible:
            self.scheduler.submit(item)     # ties break on seq, not place
            return False
        record = self.jobs[item.job_id]
        # the item keeps its checkpoint until a newer one replaces it, so
        # a rescue after this placement resumes from it too
        ckpt = item.checkpoint
        if not self.pool.assign(handle.worker_id, item.job_id, item.spec,
                                ckpt, tag=item.seq):
            self.scheduler.submit(item)
            return True
        record.state = "running"
        record.worker_id = handle.worker_id
        record.staged_no = next(self._stage_nos) if staging else None
        if not staging:
            self._pull_overtaken(handle)
        record.placements.append(handle.worker_id)
        if record.started_at is None:
            record.started_at = now
        self._publish(record, {"event": "running",
                               "job_id": record.job_id,
                               "worker": handle.worker_id,
                               "resume_step": 0 if ckpt is None
                               else ckpt["step"]})
        return True

    def _preempt(self, record: JobRecord) -> None:
        record.preempt_requested = True
        self.pool.preempt(record.worker_id, record.item.seq)

    def _pull(self, source, for_worker: int) -> None:
        """Withdraw ``source``'s staged job for ``for_worker``, whose
        slot is kept for it until it is back in the queue.  ``source``
        takes no staged job until its running job ends: that job has
        outlasted another worker's."""
        record = self.jobs[source.staged_job_id]
        self._pulls[record.job_id] = for_worker
        self._slow[source.worker_id] = source.job_id
        self._preempt(record)

    def _pull_overtaken(self, handle, started: Optional[int] = None) \
            -> None:
        """No pick waits behind a long job while another worker runs the
        picks after it: a worker that starts a job picked after a job
        still staged on another worker (a staged job numbered below
        ``started``; any staged job when it starts a fresh pick on going
        idle) pulls the oldest such job back into its own slot.  Workers
        that free up in turn never trigger this.  Its own slot is then
        empty: the check runs before any staging."""
        if handle.worker_id in self._pulls.values():
            return
        older = [(rec.staged_no, h.worker_id)
                 for h in self.pool.live_workers() if h is not handle
                 for rec in (self._movable(h.staged_job_id),)
                 if rec is not None
                 and (started is None or rec.staged_no < started)]
        if older:
            self._pull(self.pool.workers[min(older)[1]], handle.worker_id)

    def _withdraw_for_idle(self) -> None:
        """With the queue empty, no job waits behind another while a
        worker idles: each idle worker no withdrawal is already on its
        way to pulls back one staged job, and takes it when it comes
        back."""
        reserved = set(self._pulls.values())
        idle = [h.worker_id for h in self.pool.idle_workers()
                if h.worker_id not in reserved]
        for handle in self.pool.live_workers():
            if not idle:
                return
            if self._movable(handle.staged_job_id) is not None:
                self._pull(handle, idle.pop())

    # -- the NDJSON front end ------------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            while not reader.at_eof():
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    req = json.loads(line)
                    if not isinstance(req, dict):
                        raise ValueError("request must be an object")
                except ValueError as exc:
                    writer.write(dumps({"ok": False,
                                        "error": f"bad request: {exc}"}))
                    await writer.drain()
                    continue
                stop_after = await self._dispatch(req, writer)
                await writer.drain()
                if stop_after:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # only raised at shutdown (the drain in ServerThread
            # cancels parked handler tasks); finishing normally keeps
            # asyncio's streams done-callback — which calls
            # task.exception() on a *cancelled* task — from logging a
            # spurious error during loop teardown
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                pass

    async def _dispatch(self, req: dict,
                        writer: asyncio.StreamWriter) -> bool:
        op = req.get("op")
        if op == "ping":
            writer.write(dumps({"ok": True, "pong": True}))
        elif op == "schemas":
            writer.write(dumps({"ok": True,
                                "apps": describe_schemas()}))
        elif op == "submit":
            writer.write(dumps(self._op_submit(req.get("job"))))
        elif op == "status":
            record = self.jobs.get(req.get("job_id") or "")
            if record is None:
                writer.write(dumps({"ok": False,
                                    "error": "unknown job_id"}))
            else:
                writer.write(dumps({"ok": True, **record.public()}))
        elif op == "result":
            await self._op_result(req, writer)
        elif op == "watch":
            await self._op_watch(req, writer)
        elif op == "cancel":
            writer.write(dumps(self._op_cancel(req.get("job_id"))))
        elif op == "stats":
            writer.write(dumps({"ok": True, **self._op_stats()}))
        elif op == "kill-worker":
            writer.write(dumps(self._op_kill(req)))
        elif op == "resize":
            writer.write(dumps(self._op_resize(req)))
        elif op == "shutdown":
            writer.write(dumps({"ok": True, "stopping": True}))
            await writer.drain()
            asyncio.get_running_loop().call_soon(
                lambda: asyncio.ensure_future(self.stop()))
            return True
        else:
            writer.write(dumps({"ok": False,
                                "error": f"unknown op {op!r}"}))
        return False

    def _op_submit(self, raw) -> dict:
        if isinstance(raw, dict) and self.default_backend \
                and isinstance(raw.get("params"), dict):
            raw["params"].setdefault("backend", self.default_backend)
        try:
            spec = validate_job(raw)
        except JobValidationError as exc:
            self.counters["rejected"] += 1
            return {"ok": False, "error": "validation failed",
                    "errors": exc.errors}
        now = time.monotonic()
        job_id = f"job-{next(self._ids):05d}"
        item = QueuedJob(job_id=job_id, spec=spec, enqueued_at=now)
        record = JobRecord(job_id=job_id, item=item, submitted_at=now)
        self.jobs[job_id] = record
        self.scheduler.submit(item)
        self.counters["submitted"] += 1
        self._schedule()
        return {"ok": True, "job_id": job_id,
                "queued": self.scheduler.queued_ids()}

    async def _op_result(self, req: dict,
                         writer: asyncio.StreamWriter) -> None:
        record = self.jobs.get(req.get("job_id") or "")
        if record is None:
            writer.write(dumps({"ok": False, "error": "unknown job_id"}))
            return
        timeout = req.get("timeout")
        try:
            await asyncio.wait_for(record.done_event.wait(),
                                   timeout=timeout)
        except asyncio.TimeoutError:
            writer.write(dumps({"ok": False, "error": "timeout",
                                **record.public()}))
            return
        # ok reflects the *op* (a terminal answer was produced), not the
        # job outcome — read "state" for that
        writer.write(dumps({"ok": True, **record.public(),
                            "result": record.result}))

    async def _op_watch(self, req: dict,
                        writer: asyncio.StreamWriter) -> None:
        record = self.jobs.get(req.get("job_id") or "")
        if record is None:
            writer.write(dumps({"ok": False, "error": "unknown job_id"}))
            return
        since = req.get("since", 0)
        if not isinstance(since, int) or isinstance(since, bool) \
                or since < 0:
            writer.write(dumps({"ok": False, "error": "since must be a "
                                "non-negative integer"}))
            return
        # replay and subscription happen with no await in between, so no
        # event falls between the log and the live queue
        q: asyncio.Queue = asyncio.Queue()
        if record.state in TERMINAL:
            # a finished job always ends its stream with the terminal event
            since = min(since, record.next_seq - 1)
        else:
            record.watchers.append(q)
        for event in record.events:
            if event["seq"] >= since:
                q.put_nowait(event)
        writer.write(dumps({"ok": True, "watching": record.job_id,
                            "state": record.state}))
        await writer.drain()
        while True:
            event = await q.get()
            writer.write(dumps(event))
            await writer.drain()
            if event.get("event") in TERMINAL:
                return

    def _op_cancel(self, job_id) -> dict:
        record = self.jobs.get(job_id or "")
        if record is None:
            return {"ok": False, "error": "unknown job_id"}
        if record.state in TERMINAL:
            return {"ok": True, "state": record.state}
        if record.state == "queued":
            if self.scheduler.cancel(record.job_id) is not None:
                self._finish(record, "cancelled")
            else:   # queued record not in queue: about to be requeued
                record.cancel_requested = True
            return {"ok": True, "state": record.state}
        record.cancel_requested = True
        if record.worker_id is not None:
            self.pool.cancel(record.worker_id, record.item.seq)
        return {"ok": True, "state": "cancelling"}

    def _op_stats(self) -> dict:
        now = time.monotonic()
        states: Dict[str, int] = {}
        for record in self.jobs.values():
            states[record.state] = states.get(record.state, 0) + 1
        return {"counters": dict(self.counters),
                "jobs": states,
                "scheduler": self.scheduler.stats(now),
                "pool": self.pool.stats()}

    def _op_kill(self, req: dict) -> dict:
        worker_id = req.get("worker_id")
        if worker_id is None and req.get("job_id"):
            record = self.jobs.get(req["job_id"])
            if record is None or record.worker_id is None:
                return {"ok": False,
                        "error": "job is not running on any worker"}
            worker_id = record.worker_id
        if worker_id is None:
            busy = self.pool.busy_workers()
            if not busy:
                return {"ok": False, "error": "no busy worker to kill"}
            worker_id = busy[0].worker_id
        if worker_id not in self.pool.workers:
            return {"ok": False, "error": f"unknown worker {worker_id}"}
        self.pool.kill_worker(worker_id)
        return {"ok": True, "killed": worker_id}

    def _op_resize(self, req: dict) -> dict:
        n = req.get("n_workers")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            return {"ok": False,
                    "error": "n_workers must be a positive integer"}
        for handle in self.pool.resize(n):
            self._register(handle)
        self._reap_gone()       # the idle workers it retired
        # a draining worker takes no next job: withdraw the one it holds
        for handle in self.pool.live_workers():
            rec = self._movable(handle.staged_job_id)
            if handle.state == "draining" and rec is not None:
                self._preempt(rec)
        self._schedule()
        return {"ok": True, "target_size": self.pool.target_size}


# -- thread wrapper (tests, benchmarks, CLI) ---------------------------------------


class ServerThread:
    """A :class:`ServiceServer` running on a dedicated event-loop
    thread, for synchronous callers (tests, benchmarks)."""

    def __init__(self, **kwargs):
        self._kwargs = kwargs
        self.server: Optional[ServiceServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self, timeout: float = 60.0) -> "ServerThread":
        self._thread = threading.Thread(target=self._run,
                                        name="pic-service",
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("service did not start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self.server = ServiceServer(**self._kwargs)
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.stop())
            # drain (don't abandon) outstanding tasks — connection
            # handlers, result waits — so nothing is GC'd mid-flight
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            self._loop.run_until_complete(
                self._loop.shutdown_asyncgens())
            self._loop.close()

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is None or not self._thread.is_alive():
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_server_thread(**kwargs) -> ServerThread:
    """Start a service on a background thread; returns the running
    :class:`ServerThread` (``.host``/``.port``/``.stop()``)."""
    return ServerThread(**kwargs).start()
