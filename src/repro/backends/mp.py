"""True shared-memory multiprocess backend (``mp``).

Every other CPU backend in this reproduction *simulates* its scheduling
(the ``omp`` backend runs thread chunks sequentially because Python
threads serialise on the GIL).  This backend executes OP-PIC's OpenMP
strategy for real:

* a **persistent worker pool** (``multiprocessing`` processes, forked
  lazily on first use) executes contiguous chunks of each loop's
  iteration space concurrently;
* dats and maps are migrated into ``multiprocessing.shared_memory``
  segments (:meth:`~repro.core.dats.Dat.adopt_raw`), so workers read
  mesh/particle data **zero-copy** and write direct (unique-row)
  results in place;
* indirect ``OPP_INC`` scatters go into **per-worker private scatter
  arrays** — shared segments owned by one worker each — and the master
  merges them after the chunk barrier, exactly the thread-private
  scatter-array reduction of paper Figure 2(b);
* particle moves run **frontier-partitioned**: each worker multi-hops
  its slice of the particle set to completion (writing its own rows of
  the particle-to-cell map), and the master reconciles removals and
  rank-migrations through the existing hole-filling path;
* loops that cannot be parallelised safely or profitably (tiny
  iteration spaces, unresolvable kernels, indirect ``WRITE``/``RW``)
  degrade to the :class:`~repro.backends.vec.VecBackend` path, as does
  the whole backend when shared memory or process spawning is
  unavailable or ``nworkers == 1`` — results stay ``np.allclose``
  -identical to ``seq`` either way.

Work is described to workers by value (slice bounds, segment names,
access modes) and by reference (kernels cross the process boundary as
``(module, qualname)`` import references; each worker re-generates the
vectorised code once and caches it).
"""
from __future__ import annotations

import atexit
import os
import queue
import traceback
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.args import ArgKind
from ..core.kernel import CONST, kernel_ref
from ..core.loops import ParLoop
from ..core.move import MoveLoop, MoveResult
from ..core.types import AccessMode
from .blocked import reduce_init
from .vec import VecBackend

__all__ = ["MpBackend"]

#: chunk sizes are rounded up to a multiple of this (cache-line-friendly
#: blocks, mirroring the OP2 plan's block granularity)
_BLOCK = 64


def _shared_memory():
    """The SharedMemory class, or None when the platform lacks it."""
    try:
        from multiprocessing import shared_memory
        return shared_memory.SharedMemory
    except (ImportError, OSError):  # pragma: no cover - exotic platforms
        return None


# =========================================================================
# Worker side
# =========================================================================
#
# Everything below runs inside the pool processes.  A worker owns a cache
# of attached shared-memory segments and of generated kernels; tasks are
# plain dicts (picklable scalars, strings and small arrays only).


class _Unresolvable(Exception):
    """Kernel cannot be rebuilt in the worker — master must fall back."""


def _attach(attached: dict, spec: Tuple[str, tuple, str]) -> np.ndarray:
    """Attach (cached) a shared segment and view it as an ndarray."""
    name, shape, dtype = spec
    ent = attached.get(name)
    if ent is None:
        SharedMemory = _shared_memory()
        shm = SharedMemory(name=name)
        ent = attached[name] = (shm, np.ndarray(shape, dtype=np.dtype(dtype),
                                                buffer=shm.buf))
    return ent[1]


def _worker_kernel(ref: Tuple[str, str]):
    """Resolve + translate a kernel reference (cached via as_kernel)."""
    from ..core.kernel import kernel_from_ref
    try:
        kern = kernel_from_ref(ref[0], ref[1])
    except Exception as exc:
        raise _Unresolvable(f"{ref[0]}:{ref[1]}: {exc}") from exc
    return kern.generated("vec")


def _arg_rows(attached: dict, d: dict, idx: np.ndarray,
              cells: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
    """Target rows for one argument chunk (None = direct slice access)."""
    kind = d["kind"]
    if kind == ArgKind.DIRECT:
        return None if cells is None else idx
    if kind == ArgKind.INDIRECT:
        mv = _attach(attached, d["map"])[: d["map_live"]]
        return mv[idx, d["map_idx"]]
    if cells is None:
        p2c = _attach(attached, d["p2c"])[: d["p2c_live"], 0]
        cells = p2c[idx]
    if kind == ArgKind.P2C:
        return cells
    mv = _attach(attached, d["map"])[: d["map_live"]]
    return mv[cells, d["map_idx"]]  # DOUBLE


def _zero_scatters(attached: dict, scatters: List) -> List[np.ndarray]:
    views = []
    for spec in scatters:
        view = _attach(attached, spec)
        view[:] = 0
        views.append(view)
    return views


def _worker_inc(d: dict, target: np.ndarray, rows: np.ndarray,
                buf: np.ndarray) -> None:
    """One indirect-INC accumulation inside a worker.

    When the master forced the ``sparse_csr`` strategy the chunk's
    scatter lowers to the Matrix-PIC one-shot product (``P.T @ buf``);
    the per-chunk operator is throwaway because workers hold no state
    between tasks.  Integer data stays on exact ``np.add.at`` inside
    ``sparse_deposit`` itself.
    """
    if d.get("sparse_inc"):
        from .sparse_ops import sparse_deposit
        sparse_deposit(target, rows, buf)
    else:
        np.add.at(target, rows, buf)


def _run_parloop_chunk(msg: dict, attached: dict) -> dict:
    gen = _worker_kernel(msg["kernel"])
    CONST.restore(msg["const"])
    lo, hi = msg["lo"], msg["hi"]
    n = hi - lo
    idx = np.arange(lo, hi, dtype=np.int64)
    scatters = _zero_scatters(attached, msg["scatters"])

    params: List[np.ndarray] = []
    writeback = []
    for d in msg["args"]:
        if d["role"] == "gbl":
            if d["access"] == "READ":
                params.append(d["data"].reshape(1, -1))
                continue
            buf = np.full((n, d["dim"]),
                          reduce_init(AccessMode[d["access"]],
                                      d["data"].dtype),
                          dtype=d["data"].dtype)
            params.append(buf)
            writeback.append((d, buf, None))
            continue
        data = _attach(attached, d["dat"])[: d["live"]]
        rows = _arg_rows(attached, d, idx)
        if d["kind"] == ArgKind.DIRECT and d["access"] == "READ":
            params.append(data[lo:hi])      # zero-copy shared view
            continue
        if d["access"] in ("READ", "RW"):
            buf = data[rows] if rows is not None else data[lo:hi].copy()
        else:                               # WRITE / INC: clean buffer
            buf = np.zeros((n, d["dim"]), dtype=data.dtype)
        params.append(buf)
        if d["access"] != "READ":
            writeback.append((d, buf, rows))

    t0 = perf_counter()
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        gen.fn(*params)
    kernel_seconds = perf_counter() - t0

    max_coll = 0
    globals_out: Dict[int, np.ndarray] = {}
    for d, buf, rows in writeback:
        if d["role"] == "gbl":
            red = {"INC": buf.sum(axis=0), "MIN": buf.min(axis=0),
                   "MAX": buf.max(axis=0)}[d["access"]]
            globals_out[d["pos"]] = red
            continue
        data = _attach(attached, d["dat"])[: d["live"]]
        if d["kind"] == ArgKind.DIRECT:
            if d["access"] == "INC":
                data[lo:hi] += buf
            else:
                data[lo:hi] = buf
            continue
        if d.get("shared_inc"):
            # segment decomposition: this worker's particles cover whole
            # cells, so its p2c target rows are disjoint from every other
            # worker's — increment the shared dat directly, no merge
            _worker_inc(d, data, rows, buf)
        else:
            # indirect INC → this worker's private scatter array
            scatter = scatters[d["scatter_group"]][: d["live"]]
            _worker_inc(d, scatter, rows, buf)
        if rows.size:
            max_coll = max(max_coll, int(np.bincount(rows).max()))
    return {"globals": globals_out, "collisions": max_coll,
            "kernel_seconds": kernel_seconds}


def _run_move_deposit(dep: dict, gen, attached: dict, scatters: List,
                      dpart: np.ndarray, dcells: np.ndarray) -> int:
    """One fused-deposit round inside a worker's move chunk."""
    params: List[np.ndarray] = []
    writeback = []
    for d in dep["args"]:
        if d["role"] == "gbl":
            params.append(d["data"].reshape(1, -1))
            continue
        data = _attach(attached, d["dat"])[: d["live"]]
        rows = _arg_rows(attached, d, dpart, dcells)
        if rows is None:
            rows = dpart
        if d["access"] in ("READ", "RW"):
            buf = data[rows]
        else:
            buf = np.zeros((dpart.size, d["dim"]), dtype=data.dtype)
        params.append(buf)
        if d["access"] != "READ":
            writeback.append((d, buf, rows))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        gen.fn(*params)
    max_coll = 0
    for d, buf, rows in writeback:
        data = _attach(attached, d["dat"])[: d["live"]]
        if d["access"] == "INC":
            if d["kind"] == ArgKind.DIRECT:
                data[rows] += buf       # particle rows are unique
            else:
                scatter = scatters[d["scatter_group"]][: d["live"]]
                _worker_inc(d, scatter, rows, buf)
                if rows.size:
                    max_coll = max(max_coll, int(np.bincount(rows).max()))
        else:
            data[rows] = buf
    return max_coll


def _run_move_chunk(msg: dict, attached: dict) -> dict:
    gen = _worker_kernel(msg["kernel"])
    if not gen.is_move:
        raise _Unresolvable(f"{msg['kernel']}: not a move kernel")
    CONST.restore(msg["const"])
    from ..translator.codegen import VecMoveContext

    scatters = _zero_scatters(attached, msg["scatters"])
    p2c = _attach(attached, msg["p2c"])[: msg["p2c_live"], 0]
    c2c = _attach(attached, msg["c2c"])[: msg["c2c_live"]]
    foreign = msg["foreign"]

    idx = np.arange(msg["lo"], msg["hi"], dtype=np.int64)
    alive = p2c[idx] >= 0
    active = idx[alive]
    cells = p2c[active].copy()

    dep = msg.get("deposit")
    dep_gen = _worker_kernel(dep["kernel"]) if dep is not None else None

    removed_parts: List[np.ndarray] = []
    foreign_parts: List[np.ndarray] = []
    foreign_cells: List[np.ndarray] = []
    total_hops = 0
    max_coll = 0
    hop = 0
    relocated = 0
    kernel_seconds = 0.0

    while active.size:
        if hop >= msg["max_hops"]:
            raise RuntimeError(
                f"{active.size} particles exceeded {msg['max_hops']} hops "
                f"in mp move chunk [{msg['lo']}, {msg['hi']})")
        if foreign is not None:
            fmask = foreign[cells]
            if fmask.any():
                stopped = active[fmask]
                p2c[stopped] = cells[fmask]
                foreign_parts.append(stopped)
                foreign_cells.append(cells[fmask])
                active = active[~fmask]
                cells = cells[~fmask]
                if active.size == 0:
                    break

        params: List[np.ndarray] = []
        writeback = []
        for d in msg["args"]:
            if d["role"] == "gbl":
                params.append(d["data"].reshape(1, -1))
                continue
            data = _attach(attached, d["dat"])[: d["live"]]
            rows = _arg_rows(attached, d, active, cells)
            if rows is None:
                rows = active
            if d["access"] in ("READ", "RW"):
                buf = data[rows]
            else:
                buf = np.zeros((active.size, d["dim"]), dtype=data.dtype)
            params.append(buf)
            if d["access"] != "READ":
                writeback.append((d, buf, rows))

        mctx = VecMoveContext(cells, c2c[cells], hop)
        t0 = perf_counter()
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            gen.fn(mctx, *params)
        kernel_seconds += perf_counter() - t0
        total_hops += active.size

        for d, buf, rows in writeback:
            data = _attach(attached, d["dat"])[: d["live"]]
            if d["access"] == "INC":
                if d["kind"] == ArgKind.DIRECT:
                    data[rows] += buf       # particle rows are unique
                else:
                    scatter = scatters[d["scatter_group"]][: d["live"]]
                    _worker_inc(d, scatter, rows, buf)
                    if rows.size:
                        max_coll = max(max_coll,
                                       int(np.bincount(rows).max()))
            else:
                data[rows] = buf

        status = mctx.status
        done = status == 0
        gone = status == 2
        moving = status == 1
        if hop == 0:
            relocated = (int(np.count_nonzero(moving))
                         + int(np.count_nonzero(gone)))
        if dep_gen is not None:
            if dep["when"] == "hop":
                dpart, dcells = active, cells
            else:                       # "done": settled this round
                dpart, dcells = active[done], cells[done]
            if dpart.size:
                coll = _run_move_deposit(dep, dep_gen, attached, scatters,
                                         dpart, dcells)
                max_coll = max(max_coll, coll)
        p2c[active[done]] = cells[done]
        if gone.any():
            dead = active[gone]
            p2c[dead] = -1
            removed_parts.append(dead)
        active = active[moving]
        cells = mctx.next_cell[moving]
        hop += 1

    def _cat(parts):
        return (np.concatenate(parts) if parts
                else np.empty(0, dtype=np.int64))

    return {"removed": _cat(removed_parts),
            "foreign_particles": _cat(foreign_parts),
            "foreign_cells": _cat(foreign_cells),
            "hops": total_hops, "collisions": max_coll,
            "relocated": relocated,
            "kernel_seconds": kernel_seconds}


def _worker_main(worker_id: int, task_q, result_q) -> None:
    """Pool process entry point: execute tasks until poisoned."""
    attached: dict = {}
    while True:
        msg = task_q.get()
        if msg is None:
            break
        out = {"worker": worker_id}
        try:
            t0 = perf_counter()
            if msg["kind"] == "parloop":
                out.update(_run_parloop_chunk(msg, attached))
            else:
                out.update(_run_move_chunk(msg, attached))
            out["seconds"] = perf_counter() - t0
        except _Unresolvable as exc:
            out["unresolvable"] = str(exc)
        except BaseException:
            out["error"] = traceback.format_exc()
        result_q.put(out)
    for shm, _view in attached.values():
        try:
            shm.close()
        except OSError:  # pragma: no cover
            pass


# =========================================================================
# Master side
# =========================================================================


class _Arena:
    """Shared-memory home for dat/map backing buffers + scatter scratch.

    ``share`` adopts an object's backing array into a shared segment
    (copy-in happens once; afterwards master writes and worker reads hit
    the same pages).  When the object re-allocates (particle capacity
    grow), the stale segment is dropped and a fresh one adopted.
    """

    def __init__(self):
        # id(obj) -> (shm, arr, weakref-to-owner)
        self._owned: Dict[int, tuple] = {}
        self._scatter: Dict[tuple, tuple] = {}   # (id(dat), w) -> (shm, arr)
        self.SharedMemory = _shared_memory()

    def share(self, obj) -> Tuple[str, tuple, str]:
        """Adopt ``obj._raw`` into a shared segment; returns its spec."""
        import weakref
        raw = obj.raw
        ent = self._owned.get(id(obj))
        if ent is None or ent[1] is not raw:
            if ent is not None:
                self._drop(ent)
            shm = self.SharedMemory(create=True, size=max(raw.nbytes, 1))
            arr = np.ndarray(raw.shape, dtype=raw.dtype, buffer=shm.buf)
            obj.adopt_raw(arr)
            ent = self._owned[id(obj)] = (shm, arr, weakref.ref(obj))
        shm, arr = ent[0], ent[1]
        return (shm.name, arr.shape, arr.dtype.str)

    def scatter(self, dat, worker: int) -> Tuple[str, tuple, str]:
        """Private scatter segment for (dat, worker), grown on demand."""
        shape = dat.raw.shape
        dtype = dat.raw.dtype
        key = (id(dat), worker)
        ent = self._scatter.get(key)
        # CPython reuses object ids, so a key hit may be a *different*
        # dat than the one that created the segment: any component-shape
        # or dtype mismatch must recreate, not reuse
        if ent is None or ent[1].shape[0] < shape[0] \
                or ent[1].shape[1:] != shape[1:] \
                or ent[1].dtype != dtype:
            if ent is not None:
                self._drop(ent)
            nbytes = int(np.prod(shape)) * dtype.itemsize
            shm = self.SharedMemory(create=True, size=max(nbytes, 1))
            arr = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
            ent = self._scatter[key] = (shm, arr)
        shm, arr = ent
        return (shm.name, arr.shape, arr.dtype.str)

    def scatter_view(self, dat, worker: int) -> np.ndarray:
        return self._scatter[(id(dat), worker)][1]

    @staticmethod
    def _drop(ent) -> None:
        shm = ent[0]
        try:
            shm.close()
            shm.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover
            pass

    def close(self) -> None:
        # Give adopted buffers back to private memory before the segments
        # die — dats keep working, they just stop being shared.
        for shm, arr, owner_ref in list(self._owned.values()):
            owner = owner_ref()
            if owner is not None and owner.raw is arr:
                owner.adopt_raw(np.array(arr))
            self._drop((shm, arr))
        for ent in self._scatter.values():
            self._drop(ent)
        self._owned.clear()
        self._scatter.clear()


class _Pool:
    """Persistent worker processes with per-worker task queues."""

    def __init__(self, nworkers: int, start_method: Optional[str] = None):
        import multiprocessing as mp
        if start_method is None:
            start_method = ("fork" if "fork" in mp.get_all_start_methods()
                            else None)
        # Start the resource tracker *before* forking so every worker
        # shares the master's tracker: attach-time registrations
        # (bpo-38119 on <= 3.12) then dedupe against the master's own,
        # and the single unlink at arena close leaves the tracker clean.
        try:
            from multiprocessing import resource_tracker
            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker API shifted
            pass
        self.ctx = mp.get_context(start_method)
        self.nworkers = nworkers
        self.task_qs = [self.ctx.Queue() for _ in range(nworkers)]
        self.result_q = self.ctx.Queue()
        self.procs = []
        for i in range(nworkers):
            p = self.ctx.Process(target=_worker_main,
                                 args=(i, self.task_qs[i], self.result_q),
                                 daemon=True, name=f"opp-mp-worker-{i}")
            p.start()
            self.procs.append(p)

    def submit(self, worker: int, msg: dict) -> None:
        self.task_qs[worker].put(msg)

    def collect(self, n: int) -> List[dict]:
        out = []
        while len(out) < n:
            try:
                out.append(self.result_q.get(timeout=1.0))
            except queue.Empty:
                if not all(p.is_alive() for p in self.procs):
                    raise RuntimeError(
                        "mp backend: a worker process died unexpectedly")
        return out

    def close(self) -> None:
        for q in self.task_qs:
            try:
                q.put(None)
            except (OSError, ValueError):  # pragma: no cover
                pass
        for p in self.procs:
            p.join(timeout=2.0)
            if p.is_alive():  # pragma: no cover - stuck worker
                p.terminate()
                p.join(timeout=1.0)
        self.procs = []


class MpBackend(VecBackend):
    """Shared-memory multiprocess executor (OP-PIC's OpenMP strategy,
    scheduled for real across OS processes)."""

    name = "mp"

    #: small pool + tiny chunks so conformance mini-meshes actually
    #: cross the parallel-dispatch threshold
    conformance_options = {"nworkers": 2, "min_chunk": 16}

    def __init__(self, nworkers: Optional[int] = None,
                 strategy: str = "atomics", min_chunk: int = 512,
                 small_chunk: int = 24,
                 start_method: Optional[str] = None, **strategy_options):
        super().__init__(strategy=strategy, **strategy_options)
        if nworkers is None:
            nworkers = min(4, os.cpu_count() or 1)
        self.nworkers = max(int(nworkers), 1)
        self.min_chunk = max(int(min_chunk), 1)
        #: chunk floor for *small direct* loops (no indirect-INC args):
        #: dispatch overhead is just the task round-trip, so loops far
        #: below ``min_chunk`` still parallelise instead of degrading
        self.small_chunk = max(int(small_chunk), 1)
        self.start_method = start_method
        self._pool: Optional[_Pool] = None
        self._arena: Optional[_Arena] = None
        self._disabled = False
        #: loops the workers reported as unresolvable — skip re-dispatch
        self._unresolvable: set = set()
        #: counters exposed for tests / diagnostics
        self.stats = {"parallel_loops": 0, "fallback_loops": 0,
                      "parallel_moves": 0, "fallback_moves": 0,
                      "small_parallel_loops": 0, "segment_loops": 0}
        #: loop name -> why it last degraded to the vec path
        self.fallback_reasons: Dict[str, str] = {}

    # -- pool / arena lifecycle ------------------------------------------------

    def _ensure_pool(self) -> bool:
        if self._disabled or self.nworkers < 2:
            return False
        if self._pool is not None:
            if all(p.is_alive() for p in self._pool.procs):
                return True
            self._pool = None  # pragma: no cover - crashed pool
        if _shared_memory() is None:
            self._disabled = True
            return False
        try:
            self._arena = self._arena or _Arena()
            self._pool = _Pool(self.nworkers, self.start_method)
        except (OSError, ValueError, ImportError,
                DeprecationWarning):  # pragma: no cover - degraded platform
            self._disabled = True
            self._pool = None
            return False
        atexit.register(self.close)
        return True

    def close(self) -> None:
        """Shut the pool down and return adopted buffers to private
        memory (idempotent; also runs via atexit)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._arena is not None:
            self._arena.close()
            self._arena = None
        atexit.unregister(self.close)

    def __del__(self):  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    # -- chunking --------------------------------------------------------------

    def _chunks(self, start: int, end: int,
                small_ok: bool = False) -> List[Tuple[int, int]]:
        n = end - start
        min_chunk = self.min_chunk
        if small_ok and n < 2 * min_chunk:
            min_chunk = min(min_chunk, self.small_chunk)
        nchunks = min(self.nworkers, max(n // min_chunk, 1))
        if nchunks < 2:
            return []
        per = -(-n // nchunks)                       # ceil
        if per >= _BLOCK:
            per = -(-per // _BLOCK) * _BLOCK         # block-align
        bounds = []
        lo = start
        while lo < end:
            hi = min(lo + per, end)
            bounds.append((lo, hi))
            lo = hi
        return bounds

    def _segment_chunks(self, loop: ParLoop) -> Optional[List[Tuple[int,
                                                                    int]]]:
        """Chunk a cell-sorted particle loop on cell-segment boundaries.

        Each worker then owns *whole cells*: its particle→cell ``OPP_INC``
        target rows are disjoint from every other worker's, so those
        increments go straight into the shared dat (no private scatter
        arrays, no merge pass).
        """
        pset = loop.iterset
        if not (pset.is_particle_set and pset.p2c_map is not None
                and loop.start == 0 and loop.end == pset.size):
            return None
        if not pset.order.is_valid():
            return None
        n = pset.size
        nchunks = min(self.nworkers, max(n // self.min_chunk, 1))
        if nchunks < 2:
            return None
        _counts, offsets, _nonempty, _starts = self.plan.segments(pset)
        ideal = np.linspace(0, n, nchunks + 1)[1:-1]
        cuts = offsets[np.searchsorted(offsets, ideal)]
        bounds_at = np.unique(np.concatenate(([0], cuts, [n])))
        if bounds_at.size < 3:          # snapped down to a single chunk
            return None
        return list(zip(bounds_at[:-1].tolist(), bounds_at[1:].tolist()))

    # -- opp_par_loop ----------------------------------------------------------

    def execute(self, loop: ParLoop) -> Optional[dict]:
        plan, reason = self._plan_parloop(loop)
        if plan is None:
            return self._fallback_parloop(loop, reason)
        try:
            return self._execute_parloop(loop, *plan)
        except _UnresolvableOnWorkers:
            self._unresolvable.add(kernel_ref(loop.kernel.fn))
            return self._fallback_parloop(loop, "kernel-unresolvable")

    def _fallback_parloop(self, loop: ParLoop, reason: str) -> dict:
        self.stats["fallback_loops"] += 1
        self.fallback_reasons[loop.name] = reason
        extras = super().execute(loop) or {}
        extras.setdefault("mp_fallback", True)
        extras.setdefault("mp_fallback_reason", reason)
        return extras

    def _plan_parloop(self, loop: ParLoop):
        if loop.n_iter == 0:
            return None, "empty"
        ref = kernel_ref(loop.kernel.fn)
        if ref is None:
            return None, "kernel-unref"
        if ref in self._unresolvable:
            return None, "kernel-unresolvable"
        if not loop.kernel.generated("vec").vectorized:
            return None, "not-vectorized"
        has_indirect_inc = False
        for a in loop.args:
            if a.is_indirect and a.access in (AccessMode.WRITE,
                                              AccessMode.RW):
                return None, "indirect-write"   # cross-worker races
            if a.is_indirect and a.access is AccessMode.INC:
                has_indirect_inc = True
        decomp = "block"
        small = False
        chunks = self._segment_chunks(loop)
        if chunks:
            decomp = "segment"
        else:
            # loops without indirect-INC scatters are cheap to dispatch:
            # let small direct mesh loops parallelise instead of degrading
            small = (not has_indirect_inc
                     and loop.n_iter < 2 * self.min_chunk)
            chunks = self._chunks(loop.start, loop.end, small_ok=small)
        if not chunks:
            return None, f"tiny(n={loop.n_iter})"
        if not self._ensure_pool():
            return None, "no-pool"
        return (ref, chunks, decomp, small), None

    def _execute_parloop(self, loop: ParLoop, ref, chunks,
                         decomp: str = "block", small: bool = False) -> dict:
        arena = self._arena
        const = CONST.snapshot()
        nchunks = len(chunks)

        # scatter groups: one private array per (INC-target dat, worker)
        groups: List = []                 # group idx -> dat
        group_of: Dict[int, int] = {}     # id(dat) -> group idx
        descs = []
        for pos, a in enumerate(loop.args):
            if a.is_global:
                descs.append({"role": "gbl", "pos": pos,
                              "access": a.access.name,
                              "dim": a.dat.dim,
                              "data": np.array(a.dat.data)})
                continue
            d = {"role": "dat", "kind": a.kind, "access": a.access.name,
                 "dim": a.dat.dim, "dat": arena.share(a.dat),
                 "live": a.dat.set.size}
            if a.map is not None:
                d["map"] = arena.share(a.map)
                d["map_idx"] = a.map_idx
                d["map_live"] = a.map.from_set.size
            if a.p2c is not None:
                d["p2c"] = arena.share(a.p2c)
                d["p2c_live"] = a.p2c.from_set.size
            if a.is_indirect and a.access is AccessMode.INC:
                if decomp == "segment" and a.kind == ArgKind.P2C:
                    # segment chunks own whole cells → p2c target rows
                    # are worker-disjoint; increment the shared dat
                    d["shared_inc"] = True
                else:
                    g = group_of.get(id(a.dat))
                    if g is None:
                        g = group_of[id(a.dat)] = len(groups)
                        groups.append(a.dat)
                    d["scatter_group"] = g
                if self.strategy_name == "sparse_csr":
                    d["sparse_inc"] = True
            descs.append(d)

        for w, (lo, hi) in enumerate(chunks):
            self._pool.submit(w, {
                "kind": "parloop", "kernel": ref, "const": const,
                "lo": lo, "hi": hi, "args": descs,
                "scatters": [arena.scatter(dat, w) for dat in groups],
            })
        results = self._collect(nchunks)

        # merge: private scatter arrays, then global reductions
        for g, dat in enumerate(groups):
            target = dat.data
            for w in range(nchunks):
                target += arena.scatter_view(dat, w)[: target.shape[0]]
        for pos, a in enumerate(loop.args):
            if not a.is_global or a.access is AccessMode.READ:
                continue
            parts = [r["globals"][pos] for r in results
                     if pos in r["globals"]]
            if not parts:
                continue
            stack = np.stack(parts)
            if a.access is AccessMode.INC:
                a.dat.data += stack.sum(axis=0)
            elif a.access is AccessMode.MIN:
                np.minimum(a.dat.data, stack.min(axis=0), out=a.dat.data)
            else:
                np.maximum(a.dat.data, stack.max(axis=0), out=a.dat.data)

        self.stats["parallel_loops"] += 1
        if small:
            self.stats["small_parallel_loops"] += 1
        if decomp == "segment":
            self.stats["segment_loops"] += 1
        worker_seconds = [0.0] * nchunks
        for r in results:
            worker_seconds[r["worker"]] = r["seconds"]
        return {"collisions": max(r["collisions"] for r in results),
                "strategy": ("shared_segments" if decomp == "segment"
                             else "scatter_arrays"),
                "decomposition": decomp,
                "nworkers": nchunks,
                "worker_seconds": worker_seconds}

    # -- opp_particle_move -----------------------------------------------------

    def execute_move(self, loop: MoveLoop) -> MoveResult:
        plan, reason = self._plan_move(loop)
        if plan is None:
            return self._fallback_move(loop, reason)
        try:
            return self._execute_move(loop, *plan)
        except _UnresolvableOnWorkers:
            self._unresolvable.add(kernel_ref(loop.kernel.fn))
            return self._fallback_move(loop, "kernel-unresolvable")

    def _fallback_move(self, loop: MoveLoop, reason: str) -> MoveResult:
        self.stats["fallback_moves"] += 1
        self.fallback_reasons[loop.name] = reason
        result = super().execute_move(loop)
        result.extras.setdefault("mp_fallback", True)
        result.extras.setdefault("mp_fallback_reason", reason)
        return result

    def _plan_move(self, loop: MoveLoop):
        if loop.only_indices is not None:
            return None, "resume-subset"
        if loop.pset.size == 0:
            return None, "empty"
        ref = kernel_ref(loop.kernel.fn)
        if ref is None:
            return None, "kernel-unref"
        if ref in self._unresolvable:
            return None, "kernel-unresolvable"
        gen = loop.kernel.generated("vec")
        if not gen.vectorized:
            return None, "not-vectorized"
        if not gen.is_move:
            return None, "non-move-kernel"
        for a in loop.args:
            if a.is_indirect and a.access in (AccessMode.WRITE,
                                              AccessMode.RW):
                return None, "indirect-write"
            if a.is_global and a.access is not AccessMode.READ:
                return None, "global-reduction"
        dep = loop.deposit
        dep_ref = None
        if dep is not None:
            dep_ref = kernel_ref(dep.kernel.fn)
            if dep_ref is None or dep_ref in self._unresolvable \
                    or not dep.kernel.generated("vec").vectorized:
                return None, "deposit-kernel"
        chunks = self._chunks(0, loop.pset.size)
        if not chunks:
            return None, f"tiny(n={loop.pset.size})"
        if not self._ensure_pool():
            return None, "no-pool"
        return (ref, chunks, dep_ref), None

    def _execute_move(self, loop: MoveLoop, ref, chunks,
                      dep_ref=None) -> MoveResult:
        arena = self._arena
        const = CONST.snapshot()
        nchunks = len(chunks)

        groups: List = []
        group_of: Dict[int, int] = {}

        def mk_desc(a) -> dict:
            if a.is_global:
                return {"role": "gbl", "access": "READ",
                        "dim": a.dat.dim, "data": np.array(a.dat.data)}
            d = {"role": "dat", "kind": a.kind, "access": a.access.name,
                 "dim": a.dat.dim, "dat": arena.share(a.dat),
                 "live": a.dat.set.size}
            if a.map is not None:
                d["map"] = arena.share(a.map)
                d["map_idx"] = a.map_idx
                d["map_live"] = a.map.from_set.size
            if a.p2c is not None:
                d["p2c"] = arena.share(a.p2c)
                d["p2c_live"] = a.p2c.from_set.size
            if a.is_indirect and a.access is AccessMode.INC:
                g = group_of.get(id(a.dat))
                if g is None:
                    g = group_of[id(a.dat)] = len(groups)
                    groups.append(a.dat)
                d["scatter_group"] = g
                if self.strategy_name == "sparse_csr":
                    d["sparse_inc"] = True
            return d

        descs = [mk_desc(a) for a in loop.args]
        dep_msg = None
        if dep_ref is not None:
            # deposit INC targets share the same per-worker scatter
            # arrays (group numbering continues across both arg lists)
            dep_msg = {"kernel": dep_ref, "when": loop.deposit.when,
                       "args": [mk_desc(a) for a in loop.deposit.args]}

        p2c_spec = arena.share(loop.p2c_map)
        c2c_spec = arena.share(loop.c2c_map)
        foreign = loop.foreign_cell_mask
        for w, (lo, hi) in enumerate(chunks):
            self._pool.submit(w, {
                "kind": "move", "kernel": ref, "const": const,
                "lo": lo, "hi": hi, "args": descs,
                "deposit": dep_msg,
                "p2c": p2c_spec, "p2c_live": loop.pset.size,
                "c2c": c2c_spec, "c2c_live": loop.c2c_map.from_set.size,
                "foreign": (None if foreign is None else np.array(foreign)),
                "max_hops": loop.max_hops,
                "scatters": [arena.scatter(dat, w) for dat in groups],
            })
        results = self._collect(nchunks)

        for g, dat in enumerate(groups):
            target = dat.data
            for w in range(nchunks):
                target += arena.scatter_view(dat, w)[: target.shape[0]]

        result = MoveResult()
        result.total_hops = sum(r["hops"] for r in results)
        result.max_collisions = max(r["collisions"] for r in results)

        def _cat(key):
            parts = [r[key] for r in results if r[key].size]
            return (np.concatenate(parts) if parts
                    else np.empty(0, dtype=np.int64))

        result.foreign_particles = _cat("foreign_particles")
        result.foreign_cells = _cat("foreign_cells")
        loop.pset.order.note_relocated(
            sum(r["relocated"] for r in results))
        removed = _cat("removed")
        result.n_removed = int(removed.size)
        if removed.size and not loop.defer_removal:
            loop.pset.remove_particles(removed)
        else:
            result.removed_indices = removed

        self.stats["parallel_moves"] += 1
        worker_seconds = [0.0] * nchunks
        for r in results:
            worker_seconds[r["worker"]] = r["seconds"]
        result.extras = {"worker_seconds": worker_seconds,
                         "nworkers": nchunks,
                         "strategy": "scatter_arrays"}
        return result

    # -- result collection -----------------------------------------------------

    def _collect(self, nchunks: int) -> List[dict]:
        results = self._pool.collect(nchunks)
        unresolved = [r for r in results if "unresolvable" in r]
        errors = [r for r in results if "error" in r]
        if errors:
            raise RuntimeError("mp worker failed:\n" + errors[0]["error"])
        if unresolved:
            # resolution fails before any memory is touched, so falling
            # back and re-running on the vec path is safe
            raise _UnresolvableOnWorkers(unresolved[0]["unresolvable"])
        return results

    def __repr__(self) -> str:
        state = "disabled" if self._disabled else \
            ("idle" if self._pool is None else "running")
        return f"<MpBackend nworkers={self.nworkers} {state}>"


class _UnresolvableOnWorkers(Exception):
    """All workers failed to import the kernel — run the loop locally."""
