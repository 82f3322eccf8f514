"""Warm worker pool: persistent simulation processes behind pipes.

This is what makes the service a *service* rather than a script runner:
worker processes are spawned once and reused across jobs, so the
per-job cost of process spawn, module import, kernel translation and
mesh/stiffness construction (via :mod:`repro.runtime.objcache`, enabled
inside every worker) is paid once per worker instead of once per job.

Frames reuse the :mod:`repro.dist.proc` wire codec — same header, same
numpy/pickle body encoding — with a disjoint kind range (32+), so a
service frame can never be mistaken for an SPMD rank frame.  Each
worker runs **one job at a time**; between steps it polls its pipe for
control frames, which is what makes preemption, cancellation and
fault-injection (``PK_DIE``) responsive without threads in the worker.

A worker also keeps the simulations it built (:class:`HeldSims`): a
job whose app and parameters it has run before restores a state into
that simulation — its step-0 snapshot, or the job's own checkpoint —
instead of declaring the sets, maps, dats and loops again.

Worker death (crash, kill-worker op, injected ``die_at_step``) surfaces
as a clean EOF on the parent end, which :meth:`WarmPool.drain` turns
into a synthetic ``PK_DOWN`` event; the server rescues the running job
from its last streamed checkpoint and :meth:`WarmPool.ensure_target`
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
from ..core.kernel import CONST
from ..util.checkpoint import state_nbytes
from .jobs import JobSpec, build_sim, job_checkpoint, restore_job, step_once

__all__ = ["WarmPool", "WorkerHandle", "PoolEvent", "HeldSims",
           "MAX_HELD_BYTES", "PK_RUN",
           "PK_PREEMPT", "PK_SHUTDOWN", "PK_DIE", "PK_CANCEL", "PK_UP",
           "PK_DIAG", "PK_CKPT", "PK_YIELD", "PK_DONE", "PK_FAIL",
           "PK_DOWN", "KIND_NAMES"]

# parent -> worker
PK_RUN = 32       # start (or resume) a job; body = {job_id, spec, checkpoint}
PK_PREEMPT = 33   # yield the running job back with its resume point
PK_SHUTDOWN = 34  # finish up and exit cleanly
PK_DIE = 35       # fault injection: hard-exit immediately, no goodbye
PK_CANCEL = 36    # abandon the running job

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
    #: the job state at step 0 (:func:`job_checkpoint`) and the constants
    #: the build declared (``decl_const`` is process-global, so another
    #: app's build in between overwrites them)
    step0: dict
    consts: dict
    nbytes: int = 0


class HeldSims:
    """The simulations a worker keeps between jobs, least recently used
    first, keyed on the app and its canonical parameters.

    OP-PIC declares a simulation once and loops over it many times; a
    worker does the same across jobs.  A repeat of a checkpointable spec
    restores a state into the simulation built for it — constants, DSL
    state, RNG, extras, step count and a fresh history — so its sets,
    dats, maps, context, solver, ``Arg`` memos and native bindings are
    the ones the last job warmed.  Apps that cannot checkpoint build
    every job afresh.
    """

    def __init__(self):
        self.max_bytes = MAX_HELD_BYTES
        self.clear()

    def clear(self) -> None:
        self._sims: "OrderedDict[tuple, _Held]" = OrderedDict()
        self._key = None        # the last started job's, if it is held
        self.hits = self.misses = 0

    def start(self, spec: JobSpec, ckpt: Optional[dict]):
        """``(sim, history, start_step)`` for a job that starts fresh
        (``ckpt`` is None) or from its checkpoint."""
        self._key = None
        if not spec.adapter.checkpointable:
            sim, history = build_sim(spec)
            return sim, history, 0
        key = self._key = (spec.app, json.dumps(spec.params, sort_keys=True))
        held = self._sims.get(key)
        if held is None:
            self.misses += 1
            sim, history = build_sim(spec)
            held = self._sims[key] = _Held(
                sim, job_checkpoint(spec, sim, history, 0), CONST.snapshot())
            if ckpt is None:
                return sim, history, 0
        else:
            self.hits += 1
            self._sims.move_to_end(key)
            CONST.restore(held.consts)
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


class _Preempted(Exception):
    def __init__(self, reason: str):
        self.reason = reason


class _ExitWorker(Exception):
    pass


def _send(conn, kind: int, worker_id: int, tag: int, payload) -> None:
    conn.send_bytes(encode_frame(kind, worker_id, -1, tag, payload,
                                 DEFAULT_MAX_FRAME))


def _check_control(conn, worker_id: int, tag: int) -> None:
    """Between-steps control poll; raises to unwind the step loop."""
    while conn.poll(0):
        blob = _recv_control(conn, DEFAULT_MAX_FRAME)
        if blob is None:                 # the parent is gone
            raise _ExitWorker
        kind, _, _, _, _ = decode_frame(blob)
        if kind == PK_DIE:
            os._exit(_EXIT_KILLED)
        if kind == PK_PREEMPT:
            raise _Preempted("preempted")
        if kind == PK_CANCEL:
            raise _Preempted("cancelled")
        if kind == PK_SHUTDOWN:
            raise _ExitWorker


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


def _worker_main(worker_id: int, conn) -> None:
    """Persistent worker: serve PK_RUN frames until told to exit."""
    from ..runtime import objcache
    objcache.enable()
    _HELD.clear()
    try:
        _send(conn, PK_UP, worker_id, 0, {"pid": os.getpid()})
        while True:
            blob = _recv_control(conn, DEFAULT_MAX_FRAME)
            if blob is None:
                break
            kind, _, _, tag, payload = decode_frame(blob)
            if kind == PK_SHUTDOWN:
                break
            if kind == PK_DIE:
                os._exit(_EXIT_KILLED)
            if kind == PK_RUN:
                try:
                    _run_job(conn, worker_id, tag, payload)
                except _ExitWorker:
                    break
            # stray preempt/cancel for a job that already ended: ignore
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
        self._dead_procs: List[object] = []
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
        draining busy ones as their jobs finish."""
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
        handle = self.workers[worker_id]
        if handle.state not in ("idle",):
            raise RuntimeError(f"worker {worker_id} is {handle.state}, "
                               "cannot assign")
        ok = self._post(handle, PK_RUN, tag,
                        {"job_id": job_id, "spec": spec,
                         "checkpoint": checkpoint})
        if ok:
            handle.state = "busy"
            handle.job_id = job_id
            handle.tag = tag
        return ok

    def preempt(self, worker_id: int) -> bool:
        handle = self.workers[worker_id]
        return self._post(handle, PK_PREEMPT, handle.tag, None)

    def cancel(self, worker_id: int) -> bool:
        handle = self.workers[worker_id]
        return self._post(handle, PK_CANCEL, handle.tag, None)

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
                events.append(PoolEvent(PK_DOWN, worker_id, handle.tag,
                                        {"job_id": handle.job_id}))
                handle.state = "dead"
                self._forget(handle)
                return events
            try:
                kind, _, _, tag, payload = decode_frame(blob)
            except FrameError as exc:  # pragma: no cover - defensive
                events.append(PoolEvent(PK_DOWN, worker_id, handle.tag,
                                        {"job_id": handle.job_id,
                                         "error": str(exc)}))
                handle.state = "dead"
                self._forget(handle)
                return events
            if kind == PK_UP and handle.state == "starting":
                handle.state = "idle"
            elif kind in (PK_DONE, PK_FAIL, PK_YIELD):
                handle.jobs_done += kind == PK_DONE
                handle.job_id = None
                if handle.state == "draining":
                    self.retire(worker_id)
                else:
                    handle.state = "idle"
            events.append(PoolEvent(kind, worker_id, tag, payload))
        return events

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
        try:
            handle.conn.close()
        except OSError:
            pass
        self._dead_procs.append(handle.proc)
        self.workers.pop(handle.worker_id, None)

    # -- teardown ------------------------------------------------------------------

    def reap_dead(self) -> None:
        """Join processes of retired/crashed workers (cheap, call
        whenever a worker went away)."""
        if self._dead_procs:
            reap_procs(self._dead_procs, join_timeout=2.0)
            self._dead_procs = []

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
        reap_procs(procs + self._dead_procs)
        self._dead_procs = []

    def stats(self) -> dict:
        states = {}
        for handle in self.workers.values():
            states[handle.state] = states.get(handle.state, 0) + 1
        return {"target_size": self.target_size,
                "workers": {str(h.worker_id): h.state
                            for h in self.workers.values()},
                "states": states,
                "respawns": self.respawns,
                "jobs_done": sum(h.jobs_done
                                 for h in self.workers.values())}
