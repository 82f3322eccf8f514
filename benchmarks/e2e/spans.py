"""Span wrappers installed from outside ``src/`` for the traced round.

A traced round patches each layer's public entry points with wrappers that
record ``(name, layer, start, end, parent, op id)`` into an in-memory
:class:`SpanRecorder`; nothing in ``src/repro`` knows about it.  At the end
of the round the lanes (one per process/rank/thread) are rolled up:

* a span's **self time** is its duration minus its direct children's, so
  the layer rows plus the explicit ``unaccounted`` row (self time of the
  ``op`` spans) sum exactly to the op span;
* the lanes are written as one Chrome trace (``chrome://tracing`` or
  https://ui.perfetto.dev), one ``pid`` per lane.

``time.perf_counter`` is CLOCK_MONOTONIC on Linux and therefore shared by
all processes of a round, so lanes line up on one time axis.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict

__all__ = ["SpanRecorder", "install", "load_worker_lanes", "rollup",
           "chrome_trace"]

_now = time.perf_counter


class SpanRecorder:
    """In-memory spans of one process; one stack per thread."""

    def __init__(self, lane: str):
        self.reset(lane)

    def reset(self, lane: str) -> None:
        """Start an empty lane (called first thing in a forked process,
        which inherits the parent's recorder)."""
        self.lane = lane
        self.pid = os.getpid()
        self.spans = []          # [name, layer, t0, t1, parent, op, tid]
        self.counts = []         # (t, key, value)
        self.op = -1
        self._tls = threading.local()
        self._flushed = 0

    def _stack(self):
        try:
            return self._tls.stack
        except AttributeError:
            self._tls.stack = []
            return self._tls.stack

    def begin(self, name: str, layer: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, layer, _now(), 0.0,
                           stack[-1] if stack else -1, self.op,
                           threading.get_ident()])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = _now()
        self._stack().pop()

    def count(self, key: str, value) -> None:
        self.counts.append((_now(), key, value))

    def wrap(self, fn, name: str, layer: str, count=None, label=None):
        """``fn`` with a span around it; ``count(result, args)`` may return
        ``{counter: increment}`` read off the call (iterations, rows…) and
        ``label(args)`` a suffix for the span name (the loop's name)."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = begin(name if label is None
                          else f"{name}:{label(args)}", layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(index)
            if count is not None:
                for key, value in count(result, args).items():
                    self.count(key, value)
            return result

        wrapper.__wrapped_by_e2e__ = True
        return wrapper

    def dump(self) -> dict:
        return {"lane": self.lane, "pid": self.pid, "spans": self.spans,
                "counts": self.counts}

    def append_to(self, path) -> None:
        """Append what was recorded since the last call as one JSON line
        (pool workers leave through ``os._exit`` and have no exit hook)."""
        new_spans = self.spans[self._flushed:]
        if not new_spans and not self.counts:
            return
        with open(path, "a") as fh:
            fh.write(json.dumps({"lane": self.lane, "pid": self.pid,
                                 "spans": new_spans,
                                 "counts": self.counts}) + "\n")
        self._flushed = len(self.spans)
        self.counts = []


# -- installation -----------------------------------------------------------------


def _patch_function(rec, func, name, layer, count=None, label=None) -> None:
    """Replace ``func`` in every loaded ``repro`` module that holds it
    (apps bind ``par_loop`` etc. by name at import)."""
    wrapped = rec.wrap(func, name, layer, count, label)
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is func:
                setattr(mod, attr, wrapped)


def _patch_method(rec, cls, method, layer, name=None, count=None) -> None:
    func = cls.__dict__.get(method)
    if func is None or getattr(func, "__wrapped_by_e2e__", False):
        return
    setattr(cls, method, rec.wrap(func, name or f"{cls.__name__}.{method}",
                                  layer, count))


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def install(rec: SpanRecorder, worker_trace_path=None) -> None:
    """Wrap every layer's public entry points.  Call after the modules a
    workload uses are imported and before anything forks."""
    import repro.apps.advec.simulation as advec
    import repro.apps.cabana.distributed as cabana_dist
    import repro.apps.cabana.simulation as cabana
    import repro.apps.fempic.simulation as fempic
    import repro.backends  # noqa: F401  (registers every backend)
    import repro.service.pool as pool
    import repro.service.server as server
    from repro.backends.base import Backend
    from repro.backends.plan import PlanCache
    from repro.backends.reduction import ReductionStrategy
    from repro.core import loops, move
    from repro.core.kernel import Kernel
    from repro.dist.proc import ProcTransport
    from repro.fem import KSPSolver
    from repro.mesh import HexMesh, duct_mesh
    from repro.runtime import exchange, halo, objcache
    from repro.service.client import Client
    from repro.service.scheduler import FairShareScheduler

    launch = lambda _result, _args: {"core.launches": 1}  # noqa: E731
    loop_name = lambda args: args[1]  # noqa: E731
    _patch_function(rec, loops.par_loop, "par_loop", "core", launch,
                    loop_name)
    _patch_function(rec, move.particle_move, "particle_move", "core", launch,
                    loop_name)

    for cls in _all_subclasses(Backend):
        _patch_method(rec, cls, "execute", "backends", "Backend.execute")
        _patch_method(rec, cls, "execute_move", "backends",
                      "Backend.execute_move")
    for cls in _all_subclasses(ReductionStrategy):
        _patch_method(rec, cls, "apply", "backends",
                      "ReductionStrategy.apply")
    _patch_method(rec, PlanCache, "rows", "backends")
    _patch_method(rec, Kernel, "generated", "translator")
    _patch_method(rec, KSPSolver, "solve", "fem", count=lambda res, _a:
                  {"fem.cg_iters": int(res.iterations)})
    _patch_function(rec, duct_mesh, "duct_mesh", "mesh")
    _patch_method(rec, HexMesh, "__init__", "mesh", "HexMesh")

    for fn in (halo.push_cell_halos, halo.push_node_halos,
               halo.push_halos_grouped, halo.reduce_cell_halos,
               halo.reduce_node_halos):
        _patch_function(rec, fn, fn.__name__, "runtime")
    # the distributed move drives Backend.execute_move itself, so it is
    # one launch of its own
    _patch_function(rec, exchange.mpi_particle_move, "mpi_particle_move",
                    "runtime", launch)
    _patch_function(rec, exchange.migrate, "migrate", "runtime",
                    lambda res, _a: {"runtime.migrated": sum(
                        len(r) for r in res if r is not None)})
    _patch_function(rec, objcache.get_or_build, "objcache.get_or_build",
                    "runtime")
    for method in ("send", "recv", "allreduce", "alltoall_counts", "barrier"):
        _patch_method(rec, ProcTransport, method, "dist")

    phases = {
        fempic.FemPicSimulation: ("step", "inject", "calc_pos_vel", "move",
                                  "deposit", "field_solve",
                                  "compute_electric_field", "field_energy"),
        cabana.CabanaSimulation: ("step", "interpolate", "move_deposit",
                                  "accumulate_current", "advance_b",
                                  "advance_e", "energies"),
        cabana_dist.DistributedCabana: ("step", "_update_ghosts"),
        advec.AdvecSimulation: ("step",),
    }
    for cls, methods in phases.items():
        for method in methods:
            _patch_method(rec, cls, method, "apps")

    _patch_method(rec, Client, "submit", "service")
    _patch_method(rec, Client, "result", "service")
    _patch_method(rec, FairShareScheduler, "submit", "service")
    _patch_method(rec, FairShareScheduler, "pop", "service")
    _patch_method(rec, pool.WarmPool, "assign", "service")
    _patch_method(rec, pool.WarmPool, "drain", "service")
    _patch_function(rec, server.dumps, "server.dumps", "service")
    for fn in (pool.build_sim, pool.step_once, pool.job_checkpoint):
        _patch_function(rec, fn, f"jobs.{fn.__name__}", "service")
    # the worker's frame send and job loop are module-private, but they
    # are where a job's result leaves the worker and where it starts
    _patch_function(rec, pool._send, "pool.send", "service",
                    label=lambda args: pool.KIND_NAMES.get(args[1], args[1]))
    run_job = rec.wrap(pool._run_job, "pool.run_job", "service",
                       label=lambda args: args[3]["job_id"])

    def traced_run_job(conn, worker_id, tag, payload):
        if rec.pid != os.getpid():          # first job in a forked worker
            rec.reset(f"worker{worker_id}")
        try:
            return run_job(conn, worker_id, tag, payload)
        finally:
            if worker_trace_path is not None:
                rec.append_to(worker_trace_path)

    pool._run_job = traced_run_job


# -- roll-up ----------------------------------------------------------------------


def load_worker_lanes(path) -> list:
    """Re-assemble lanes from the JSON lines pool workers appended."""
    lanes = {}
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        for line in fh:
            chunk = json.loads(line)
            lane = lanes.setdefault(
                (chunk["lane"], chunk["pid"]),
                {"lane": chunk["lane"], "pid": chunk["pid"], "spans": [],
                 "counts": []})
            lane["spans"].extend(chunk["spans"])
            lane["counts"].extend(chunk["counts"])
    return list(lanes.values())


def rollup(lanes, t0: float, t1: float) -> dict:
    """Self time by layer and inclusive time / calls by name for the spans
    inside ``[t0, t1]`` (the timed block), per lane; a process with more
    than one thread yields ``lane`` (the thread that ran the ops, or the
    first seen) and ``lane:t1``, ``lane:t2``…"""
    out = {}
    for lane in lanes:
        spans = lane["spans"]
        inside = [i for i, s in enumerate(spans)
                  if s[2] >= t0 and 0.0 < s[3] <= t1]
        threads = []
        for i in inside:
            thread = spans[i][6]
            if thread not in threads:
                if spans[i][0] == "op":
                    threads.insert(0, thread)
                else:
                    threads.append(thread)
        child_sum = defaultdict(float)
        for i in inside:
            parent = spans[i][4]
            if parent >= 0:
                child_sum[parent] += spans[i][3] - spans[i][2]
        for k, thread in enumerate(threads or [None]):
            layer_self = defaultdict(float)
            by_name = defaultdict(lambda: [0.0, 0.0, 0])  # incl, self, calls
            by_edge = defaultdict(float)      # "parent>name" -> inclusive
            for i in inside:
                name, layer, a, b = spans[i][:4]
                if spans[i][6] != thread:
                    continue
                self_time = (b - a) - child_sum[i]
                layer_self["unaccounted" if name == "op" else layer] \
                    += self_time
                row = by_name[name]
                row[0] += b - a
                row[1] += self_time
                row[2] += 1
                if spans[i][4] >= 0:
                    by_edge[f"{spans[spans[i][4]][0]}>{name}"] += b - a
            counts = defaultdict(float)
            if k == 0:
                for t, key, value in lane["counts"]:
                    if t0 <= t <= t1:
                        counts[key] += value
            out[lane["lane"] + (f":t{k}" if k else "")] = {
                "layer_self_s": dict(layer_self),
                "by_name": {n: {"incl_s": v[0], "self_s": v[1],
                                "calls": v[2]} for n, v in by_name.items()},
                "by_edge": dict(by_edge), "counts": dict(counts),
                "op_span_s": by_name["op"][0] if "op" in by_name else 0.0,
            }
    return out


def chrome_trace(lanes, path) -> None:
    """One ``pid`` per lane, one ``tid`` per thread, complete events."""
    events = []
    for pid, lane in enumerate(lanes):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": lane["lane"]}})
        tids = {}
        for name, layer, a, b, _parent, op, thread in lane["spans"]:
            if b <= 0.0:
                continue
            tid = tids.setdefault(thread, len(tids))
            events.append({"name": name, "cat": layer, "ph": "X",
                           "ts": a * 1e6, "dur": (b - a) * 1e6,
                           "pid": pid, "tid": tid, "args": {"op": op}})
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
