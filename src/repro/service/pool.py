"""Warm worker pool: persistent simulation processes behind pipes.

This is what makes the service a *service* rather than a script runner:
worker processes are spawned once and reused across jobs, so the
per-job cost of process spawn, module import, kernel translation and
mesh/stiffness construction (via :mod:`repro.runtime.objcache`, enabled
inside every worker) is paid once per worker instead of once per job.

Frames reuse the :mod:`repro.dist.proc` wire codec — same header, same
numpy/pickle body encoding — with a disjoint kind range (32+), so a
service frame can never be mistaken for an SPMD rank frame.  Each
worker runs one job at a time and may **hold one more, staged**: a
``PK_RUN`` the server sent while the running job was still stepping.
Between steps the worker polls its pipe for control frames, which is
what makes preemption, cancellation and fault-injection (``PK_DIE``)
responsive without threads in the worker; a ``PK_RUN`` it reads there
is kept and run as soon as the running job has sent its terminal frame,
so queued jobs run back to back instead of each waiting for the
server's answer to the last one's ``PK_DONE``.  A ``PK_PREEMPT`` or
``PK_CANCEL`` acts on the job whose tag it carries — the running one,
or the staged one, which yields at once without starting — and a frame
whose tag names neither (a late one for a job that already ended) is
ignored.

A worker also keeps the simulations it built (:class:`HeldSims`): a
job whose app and parameters it has run before restores a state into
that simulation — its step-0 snapshot, or the job's own checkpoint —
instead of declaring the sets, maps, dats and loops again.

Worker death (crash, kill-worker op, injected ``die_at_step``) surfaces
as a clean EOF on the parent end, which :meth:`WarmPool.drain` turns
into a synthetic ``PK_DOWN`` event naming the running and the staged
job; the server rescues the running job from its last checkpoint,
requeues the staged one, and :meth:`WarmPool.ensure_target`
respawns a replacement.  Workers are spawned strictly one at a time
(pipe → fork → close child end) so no sibling ever inherits another
worker's child pipe end — the EOF arrives the moment the worker dies.
"""
from __future__ import annotations

import itertools
import json
import os
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import multiprocessing as mp

from ..dist.proc import (DEFAULT_MAX_FRAME, FrameError, _recv_control,
                         decode_frame, encode_frame, reap_procs)
from ..util.checkpoint import state_nbytes
from .jobs import JobSpec, build_sim, job_checkpoint, restore_job, step_once

__all__ = ["WarmPool", "WorkerHandle", "PoolEvent", "HeldSims",
           "MAX_HELD_BYTES", "PK_RUN",
           "PK_PREEMPT", "PK_SHUTDOWN", "PK_DIE", "PK_CANCEL", "PK_UP",
           "PK_DIAG", "PK_CKPT", "PK_YIELD", "PK_DONE", "PK_FAIL",
           "PK_DOWN", "KIND_NAMES"]

# parent -> worker
PK_RUN = 32       # start (or resume) a job; body = {job_id, spec, checkpoint}
PK_PREEMPT = 33   # yield the tagged job back with its resume point
PK_SHUTDOWN = 34  # finish up and exit cleanly
PK_DIE = 35       # fault injection: hard-exit immediately, no goodbye
PK_CANCEL = 36    # abandon the tagged job

# worker -> parent
PK_UP = 40        # worker process is ready; body = {pid}
PK_DIAG = 41      # streamed diagnostics; body = {job_id, step, metrics}
PK_CKPT = 42      # streamed resume point; body = {job_id, step, checkpoint}
PK_YIELD = 43     # job preempted/cancelled; body = {job_id, reason, ...}
PK_DONE = 44      # job finished; body = {job_id, steps, history, ...}
PK_FAIL = 45      # job raised; body = {job_id, error, traceback}

#: synthetic event (never on the wire): worker's pipe hit EOF
PK_DOWN = 46

KIND_NAMES = {PK_RUN: "run", PK_PREEMPT: "preempt",
              PK_SHUTDOWN: "shutdown", PK_DIE: "die",
              PK_CANCEL: "cancel", PK_UP: "up", PK_DIAG: "diag",
              PK_CKPT: "ckpt", PK_YIELD: "yield", PK_DONE: "done",
              PK_FAIL: "fail", PK_DOWN: "down"}

_EXIT_INJECTED = 17   # die_at_step fired
_EXIT_KILLED = 13     # PK_DIE received

#: bytes a worker's held simulations may keep alive — their dats and
#: particle maps at capacity plus their step-0 snapshots; past it the
#: least recently used are dropped
MAX_HELD_BYTES = 64 << 20


# -- worker process ----------------------------------------------------------------


@dataclass
class _Held:
    sim: object
    #: the job state at step 0 (:func:`job_checkpoint`), the kernel
    #: constants the build declared included
    step0: dict
    nbytes: int = 0


class HeldSims:
    """The simulations a worker keeps between jobs, least recently used
    first, keyed on the app and its canonical parameters.

    OP-PIC declares a simulation once and loops over it many times; a
    worker does the same across jobs.  A repeat spec restores a state
    into the simulation built for it — its declared sets, RNG streams,
    extras, step count, constants and a fresh history — so its sets,
    dats, maps, context, solver, ``Arg`` memos and native bindings are
    the ones the last job warmed.
    """

    def __init__(self):
        self.max_bytes = MAX_HELD_BYTES
        self.clear()

    def clear(self) -> None:
        self._sims: "OrderedDict[tuple, _Held]" = OrderedDict()
        self._key = None        # the last started job's
        self.hits = self.misses = 0

    def start(self, spec: JobSpec, ckpt: Optional[dict]):
        """``(sim, history, start_step)`` for a job that starts fresh
        (``ckpt`` is None) or from its checkpoint."""
        key = self._key = (spec.app, json.dumps(spec.params, sort_keys=True))
        held = self._sims.get(key)
        if held is None:
            self.misses += 1
            sim, history = build_sim(spec)
            held = self._sims[key] = _Held(
                sim, job_checkpoint(spec, sim, history, 0))
            if ckpt is None:
                return sim, history, 0
        else:
            self.hits += 1
            self._sims.move_to_end(key)
        history, start = restore_job(spec, held.sim,
                                     held.step0 if ckpt is None else ckpt)
        return held.sim, history, start

    def keep(self) -> None:
        """The last started job left its sim between steps: the sim
        stays held if the table's bytes allow."""
        held = self._sims.get(self._key)
        if held is None:
            return
        held.nbytes = state_nbytes(held.sim) + sum(
            a.nbytes for a in held.step0["state"].values())
        while self.nbytes > self.max_bytes:
            self._sims.popitem(last=False)

    def drop(self) -> None:
        """The last started job raised: its sim may be anywhere in a
        step."""
        self._sims.pop(self._key, None)

    @property
    def nbytes(self) -> int:
        return sum(h.nbytes for h in self._sims.values())

    def stats(self) -> dict:
        return {"held": len(self._sims), "hits": self.hits,
                "misses": self.misses}


#: this worker process's table (a forked worker empties what it inherits)
_HELD = HeldSims()


#: ``(tag, payload)`` of each PK_RUN read while another job ran, in the
#: order they came; the worker loop runs them before it reads its pipe
_STAGED: List[tuple] = []


def _close_conns(handles) -> None:
    for handle in handles:
        try:
            handle.conn.close()
        except OSError:
            pass


class _Preempted(Exception):
    def __init__(self, reason: str):
        self.reason = reason


class _ExitWorker(Exception):
    pass


def _send(conn, kind: int, worker_id: int, tag: int, payload) -> None:
    conn.send_bytes(encode_frame(kind, worker_id, -1, tag, payload,
                                 DEFAULT_MAX_FRAME))


def _yield_unstarted(conn, worker_id: int, tag: int, payload: dict,
                     reason: str) -> None:
    """A staged job withdrawn before it started: it yields what it was
    started from (None for a fresh job), marked ``unstarted`` since no
    step of it ran."""
    ckpt = payload.get("checkpoint") if reason == "preempted" else None
    _send(conn, PK_YIELD, worker_id, tag,
          {"job_id": payload["job_id"], "reason": reason,
           "step": 0 if ckpt is None else ckpt["step"],
           "checkpoint": ckpt, "history": None, "unstarted": True})


def _check_control(conn, worker_id: int, tag: Optional[int]) -> None:
    """Between-steps control poll; raises to unwind the step loop of the
    job tagged ``tag`` (None: no job is running).  A PK_RUN is staged; a
    preempt or cancel for a staged job yields that job and leaves this
    one running."""
    while conn.poll(0):
        blob = _recv_control(conn, DEFAULT_MAX_FRAME)
        if blob is None:                 # the parent is gone
            raise _ExitWorker
        kind, _, _, frame_tag, payload = decode_frame(blob)
        if kind == PK_DIE:
            os._exit(_EXIT_KILLED)
        if kind == PK_SHUTDOWN:
            raise _ExitWorker
        if kind == PK_RUN:
            _STAGED.append((frame_tag, payload))
        elif kind in (PK_PREEMPT, PK_CANCEL):
            reason = "preempted" if kind == PK_PREEMPT else "cancelled"
            if frame_tag == tag:
                raise _Preempted(reason)
            for i, (staged_tag, staged) in enumerate(_STAGED):
                if staged_tag == frame_tag:
                    del _STAGED[i]
                    _yield_unstarted(conn, worker_id, staged_tag, staged,
                                     reason)
                    break
            # else: late, for a job that already ended — ignored


def _run_job(conn, worker_id: int, tag: int, payload: dict) -> None:
    from ..runtime import objcache

    job_id = payload["job_id"]
    spec: JobSpec = payload["spec"]
    ckpt = payload.get("checkpoint")
    try:
        t0 = time.perf_counter()
        sim, history, start = _HELD.start(spec, ckpt)
        n_steps = spec.n_steps
        step = start
        try:
            while step < n_steps:
                _check_control(conn, worker_id, tag)
                if spec.die_at_step is not None \
                        and step == spec.die_at_step:
                    os._exit(_EXIT_INJECTED)
                step_once(spec, sim, history)
                step += 1
                if spec.diag_every and step % spec.diag_every == 0:
                    _send(conn, PK_DIAG, worker_id, tag,
                          {"job_id": job_id, "step": step,
                           "metrics": {k: v[-1] for k, v in
                                       history.items() if v}})
                if spec.checkpoint_every and step < n_steps \
                        and step % spec.checkpoint_every == 0:
                    _send(conn, PK_CKPT, worker_id, tag,
                          {"job_id": job_id, "step": step,
                           "checkpoint": job_checkpoint(
                               spec, sim, history, step)})
        except _Preempted as p:
            out = {"job_id": job_id, "reason": p.reason, "step": step,
                   "checkpoint": None, "history": None}
            if p.reason == "preempted":
                # preempted before its first step here: nothing ran, so
                # it yields what it was started from (None: a fresh job)
                out["checkpoint"] = ckpt if step == start else \
                    job_checkpoint(spec, sim, history, step)
            _HELD.keep()
            _send(conn, PK_YIELD, worker_id, tag, out)
            return
        _HELD.keep()
        _send(conn, PK_DONE, worker_id, tag,
              {"job_id": job_id, "steps": step,
               "resumed_from": start if ckpt is not None else None,
               "history": history,
               "elapsed": time.perf_counter() - t0,
               "cache": dict(objcache.stats(), sims=_HELD.stats())})
    except _ExitWorker:
        raise
    except BaseException as exc:  # noqa: BLE001 - shipped to the server
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        _HELD.drop()
        try:
            _send(conn, PK_FAIL, worker_id, tag,
                  {"job_id": job_id, "error": repr(exc),
                   "traceback": traceback.format_exc()})
        except Exception:
            pass


def _serve(conn, worker_id: int) -> None:
    """Run jobs until told to exit: a staged one first, else the next
    PK_RUN off the pipe."""
    while True:
        try:    # a withdrawal sent while the last job ran applies first
            _check_control(conn, worker_id, None)
        except _ExitWorker:
            return
        if _STAGED:
            tag, payload = _STAGED.pop(0)
        else:
            blob = _recv_control(conn, DEFAULT_MAX_FRAME)
            if blob is None:
                return
            kind, _, _, tag, payload = decode_frame(blob)
            if kind == PK_SHUTDOWN:
                return
            if kind == PK_DIE:
                os._exit(_EXIT_KILLED)
            if kind != PK_RUN:
                continue    # preempt/cancel for a job that already ended
        try:
            _run_job(conn, worker_id, tag, payload)
        except _ExitWorker:
            return


def _worker_main(worker_id: int, conn) -> None:
    """Persistent worker process: serve jobs, then exit."""
    from ..runtime import objcache
    objcache.enable()
    _HELD.clear()
    _STAGED.clear()
    try:
        _send(conn, PK_UP, worker_id, 0, {"pid": os.getpid()})
        _serve(conn, worker_id)
    finally:
        objcache.disable()
        try:
            conn.close()
        except OSError:
            pass
    os._exit(0)


# -- parent-side pool --------------------------------------------------------------


@dataclass
class PoolEvent:
    """One decoded worker frame (or a synthetic ``PK_DOWN``)."""

    kind: int
    worker_id: int
    tag: int
    payload: object

    @property
    def name(self) -> str:
        return KIND_NAMES.get(self.kind, str(self.kind))


@dataclass
class WorkerHandle:
    worker_id: int
    proc: object
    conn: object
    state: str = "starting"      # starting | idle | busy | draining | dead
    job_id: Optional[str] = None
    tag: int = 0
    #: the job sent to run next, while ``job_id`` still runs
    staged_job_id: Optional[str] = None
    staged_tag: int = 0
    jobs_done: int = 0
    spawned_at: float = field(default_factory=time.monotonic)


class WarmPool:
    """Spawns, feeds, drains, respawns and reaps worker processes.

    Synchronous and event-loop-agnostic: the server wires each handle's
    ``conn.fileno()`` into asyncio with ``loop.add_reader`` and calls
    :meth:`drain` when it fires; tests drive it directly with blocking
    polls.
    """

    def __init__(self, n_workers: int = 2):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.target_size = int(n_workers)
        self._ctx = mp.get_context("fork" if "fork"
                                   in mp.get_all_start_methods()
                                   else "spawn")
        self._ids = itertools.count()
        self.workers: Dict[int, WorkerHandle] = {}
        #: workers that died or were retired, not yet closed and reaped
        self._dead: List[WorkerHandle] = []
        self.respawns = 0

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> List[WorkerHandle]:
        return [self._spawn() for _ in range(self.target_size)]

    def _spawn(self) -> WorkerHandle:
        wid = next(self._ids)
        parent_end, child_end = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(target=_worker_main,
                                 args=(wid, child_end),
                                 name=f"pic-worker-{wid}")
        proc.start()
        child_end.close()
        handle = WorkerHandle(wid, proc, parent_end)
        self.workers[wid] = handle
        return handle

    def live_workers(self) -> List[WorkerHandle]:
        return [h for h in self.workers.values() if h.state != "dead"]

    def idle_workers(self) -> List[WorkerHandle]:
        return [h for h in self.workers.values() if h.state == "idle"]

    def busy_workers(self) -> List[WorkerHandle]:
        return [h for h in self.workers.values() if h.state == "busy"]

    def ensure_target(self) -> List[WorkerHandle]:
        """Respawn/grow back to ``target_size``; returns new handles so
        the server can register their pipe fds."""
        fresh = []
        while len(self.live_workers()) < self.target_size:
            fresh.append(self._spawn())
        # every ensure_target spawn is a replacement or a growth step;
        # the initial batch goes through start() and is not counted
        self.respawns += len(fresh)
        return fresh

    def resize(self, n_workers: int) -> List[WorkerHandle]:
        """Grow immediately; shrink by retiring idle workers first and
        draining busy ones as their jobs finish (the server withdraws a
        draining worker's staged job)."""
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.target_size = int(n_workers)
        excess = len(self.live_workers()) - self.target_size
        for handle in self.idle_workers():
            if excess <= 0:
                break
            self.retire(handle.worker_id)
            excess -= 1
        for handle in self.busy_workers():
            if excess <= 0:
                break
            handle.state = "draining"
            excess -= 1
        return self.ensure_target()

    # -- sending -------------------------------------------------------------------

    def _post(self, handle: WorkerHandle, kind: int, tag: int,
              payload) -> bool:
        try:
            handle.conn.send_bytes(
                encode_frame(kind, -1, handle.worker_id, tag, payload,
                             DEFAULT_MAX_FRAME))
            return True
        except (BrokenPipeError, OSError):
            return False

    def assign(self, worker_id: int, job_id: str, spec: JobSpec,
               checkpoint: Optional[dict], tag: int) -> bool:
        """Run the job on an idle worker, or stage it on a busy one
        whose staging slot is empty: the worker starts it as soon as
        its running job has ended."""
        handle = self.workers[worker_id]
        staging = handle.state == "busy" and handle.staged_job_id is None
        if handle.state != "idle" and not staging:
            raise RuntimeError(f"worker {worker_id} is {handle.state}, "
                               "cannot assign")
        ok = self._post(handle, PK_RUN, tag,
                        {"job_id": job_id, "spec": spec,
                         "checkpoint": checkpoint})
        if ok and staging:
            handle.staged_job_id, handle.staged_tag = job_id, tag
        elif ok:
            handle.state = "busy"
            handle.job_id, handle.tag = job_id, tag
        return ok

    def preempt(self, worker_id: int, tag: Optional[int] = None) -> bool:
        """Yield the job tagged ``tag`` (default: the running one)."""
        handle = self.workers[worker_id]
        return self._post(handle, PK_PREEMPT,
                          handle.tag if tag is None else tag, None)

    def cancel(self, worker_id: int, tag: Optional[int] = None) -> bool:
        handle = self.workers[worker_id]
        return self._post(handle, PK_CANCEL,
                          handle.tag if tag is None else tag, None)

    def kill_worker(self, worker_id: int) -> bool:
        """Fault injection: the worker hard-exits without a goodbye."""
        handle = self.workers[worker_id]
        return self._post(handle, PK_DIE, handle.tag, None)

    def retire(self, worker_id: int) -> None:
        """Graceful single-worker shutdown (used by shrink)."""
        handle = self.workers[worker_id]
        self._post(handle, PK_SHUTDOWN, 0, None)
        handle.state = "dead"
        self._forget(handle)

    # -- receiving -----------------------------------------------------------------

    def drain(self, worker_id: int) -> List[PoolEvent]:
        """Decode every frame currently readable on one worker's pipe.
        EOF (worker died) yields a final synthetic ``PK_DOWN`` event."""
        handle = self.workers.get(worker_id)
        if handle is None or handle.state == "dead":
            return []
        events: List[PoolEvent] = []
        while True:
            try:
                if not handle.conn.poll(0):
                    break
                blob = _recv_control(handle.conn, DEFAULT_MAX_FRAME)
            except (EOFError, OSError):
                blob = None
            if blob is None:
                events.append(self._down(handle))
                return events
            try:
                kind, _, _, tag, payload = decode_frame(blob)
            except FrameError as exc:  # pragma: no cover - defensive
                events.append(self._down(handle, error=str(exc)))
                return events
            if kind == PK_UP and handle.state == "starting":
                handle.state = "idle"
            elif kind in (PK_DONE, PK_FAIL, PK_YIELD):
                handle.jobs_done += kind == PK_DONE
                if handle.staged_job_id is not None \
                        and tag == handle.staged_tag:
                    handle.staged_job_id = None   # withdrawn unstarted
                elif handle.staged_job_id is not None:
                    # the worker has started its staged job
                    handle.job_id, handle.tag = (handle.staged_job_id,
                                                 handle.staged_tag)
                    handle.staged_job_id = None
                elif handle.state == "draining":
                    handle.job_id = None
                    self.retire(worker_id)
                else:
                    handle.job_id = None
                    handle.state = "idle"
            events.append(PoolEvent(kind, worker_id, tag, payload))
            if handle.state == "dead":      # retired: its pipe is closed
                return events
        return events

    def _down(self, handle: WorkerHandle, **extra) -> PoolEvent:
        """The worker is gone: one ``PK_DOWN`` naming both its jobs."""
        handle.state = "dead"
        self._forget(handle)
        return PoolEvent(PK_DOWN, handle.worker_id, handle.tag,
                         {"job_id": handle.job_id,
                          "staged_job_id": handle.staged_job_id, **extra})

    def wait_event(self, timeout: float = 30.0) -> List[PoolEvent]:
        """Blocking drain across all workers (test/bench convenience —
        the server uses asyncio readers instead)."""
        from multiprocessing import connection as mpc
        conns = {id(h.conn): h.worker_id
                 for h in self.workers.values() if h.state != "dead"}
        if not conns:
            return []
        ready = mpc.wait([h.conn for h in self.workers.values()
                          if h.state != "dead"], timeout=timeout)
        events: List[PoolEvent] = []
        for conn in ready:
            events.extend(self.drain(conns[id(conn)]))
        return events

    def _forget(self, handle: WorkerHandle) -> None:
        """Drop a worker that died or was retired.  Its pipe end stays
        open until :meth:`reap_dead`, so an event loop can stop watching
        the fd first: workers forked later hold copies of this end, so a
        closed fd would stay in the loop's epoll set, readable at EOF
        for as long as they live."""
        self._dead.append(handle)
        self.workers.pop(handle.worker_id, None)

    # -- teardown ------------------------------------------------------------------

    def reap_dead(self) -> None:
        """Close the pipes of retired/crashed workers and reap those
        whose process has exited (call whenever a worker went away,
        after no one watches their pipes any more).  It never waits: a
        retired worker still finishing up is reaped by a later call, or
        by :meth:`shutdown`."""
        _close_conns(self._dead)
        running, gone = [], []
        for h in self._dead:
            (running if h.proc.exitcode is None else gone).append(h)
        self._dead = running
        reap_procs([h.proc for h in gone])

    def shutdown(self) -> None:
        """Stop every worker and deterministically reap all processes."""
        procs = []
        for handle in list(self.workers.values()):
            self._post(handle, PK_SHUTDOWN, 0, None)
            try:
                handle.conn.close()
            except OSError:
                pass
            procs.append(handle.proc)
        self.workers.clear()
        _close_conns(self._dead)
        reap_procs(procs + [h.proc for h in self._dead])
        self._dead = []

    def stats(self) -> dict:
        states = {}
        for handle in self.workers.values():
            states[handle.state] = states.get(handle.state, 0) + 1
        return {"target_size": self.target_size,
                "workers": {str(h.worker_id): h.state
                            for h in self.workers.values()},
                "states": states,
                "staged": sum(h.staged_job_id is not None
                              for h in self.workers.values()),
                "respawns": self.respawns,
                "jobs_done": sum(h.jobs_done
                                 for h in self.workers.values())}
