"""The repo benchmark: four workloads, three end-to-end metrics, a per-layer
ledger from one traced round.  See README.md beside this file.

    python3 benchmarks/e2e/run.py --workload fempic_particles --seed 1 \\
        --seconds 28 --trace 0

A run is ``R`` rounds (``--seconds`` only scales ``R``); each round is a
fresh child process (``rounds.py``) in its own process group.  Every time
is reported as the median over ops of ``op wall / mirror probe`` times a
frozen reference constant (``probes.py``).  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  Exit code 1 when any op failed.

``--sets N`` calibrates the regression bounds exactly as the driver will
read them and rewrites ``BENCHMARK.json`` and ``calibration.json``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from probes import OP_PROBES, PROBE_NAMES, normalised_ms, percentile  # noqa: E402
from rounds import WORKLOADS  # noqa: E402

RUN_SECONDS = 28           # what BENCHMARK.json asks the driver to pass
ROUNDS_PER_SECOND = 0.4    # 11 rounds at --seconds 28
ROUND_TIMEOUT = 75.0
RUN_DEADLINE = 165.0       # the contract allows one invocation 180 s
OUT_DIR = HERE / "out"
RUNS_PER_SET = 10          # the driver's; --sets reads the benchmark as it does
BOUND_FLOOR, BOUND_CAP = 0.03, 0.10
#: bump when sizes, probes or estimators change: bounds are derived only from
#: the calibration records taken under the current protocol
PROTOCOL = 3

WHY = {
    "fempic_particles":
        "particle-bound rung: 115k seeded ions, Move/CalcPosVel/Deposit are "
        ">90% of a 75-80 ms step; kernel, layout and reduction changes show",
    "fempic_dispatch":
        "dispatch-bound rung: same app with ~400 ions, a 5 ms step is par_loop"
        " declaration, plan lookup, Solve and host code; kernels do not show",
    "cabana_dist_2r":
        "CabanaPIC 49k electrons over 2 rank processes: halo, migration and "
        "the proc transport wire are on the step; comm changes show only here",
    "service_batch":
        "closed loop of 8 short jobs (1-2 steps) on one warm worker: queue, "
        "dispatch, objcache build, checkpoint stream and result codec show",
}

END_TO_END = [
    # name, unit, better, starting bound (calibrated by --sets)
    ("setup_s", "s", "lower", 0.10),
    ("op_ms", "ms", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.03),
]

PER_LAYER = [
    ("apps.inject_ms", "ms", "lower"),
    ("apps.push_ms", "ms", "lower"),
    ("apps.move_ms", "ms", "lower"),
    ("apps.deposit_ms", "ms", "lower"),
    ("apps.field_ms", "ms", "lower"),
    ("apps.host_self_ms", "ms", "lower"),
    ("apps.op_p90_over_median", "ratio", "lower"),
    ("core.launches_per_op", "count", "lower"),
    ("core.dispatch_us_per_launch", "us", "lower"),
    ("core.hops_per_particle", "count", "lower"),
    ("backends.execute_ms", "ms", "lower"),
    ("backends.reduce_ms", "ms", "lower"),
    ("backends.plan_hit_ratio", "ratio", "higher"),
    ("backends.ns_per_particle_step", "ns", "lower"),
    ("backends.computed_bytes_per_op", "bytes", "lower"),
    ("backends.computed_gbps", "GB/s", "higher"),
    ("backends.flops_per_byte", "flop/byte", "higher"),
    ("translator.cold_translate_ms", "ms", "lower"),
    ("translator.kernels", "count", "lower"),
    ("translator.generated_calls_per_op", "count", "lower"),
    ("program.eager_over_fuse_ratio", "ratio", "higher"),
    ("program.fused_groups", "count", "higher"),
    ("fem.solve_ms", "ms", "lower"),
    ("fem.cg_iters_per_op", "count", "lower"),
    ("mesh.build_ms", "ms", "lower"),
    ("runtime.halo_ms", "ms", "lower"),
    ("runtime.halo_msgs_per_op", "count", "lower"),
    ("runtime.halo_bytes_per_op", "bytes", "lower"),
    ("runtime.migrate_ms", "ms", "lower"),
    ("runtime.migrated_per_op", "count", "lower"),
    ("runtime.objcache_hit_ratio", "ratio", "higher"),
    ("dist.wait_ms", "ms", "lower"),
    ("dist.send_ms", "ms", "lower"),
    ("dist.collectives_per_op", "count", "lower"),
    ("dist.rank_imbalance", "ratio", "lower"),
    ("dist.proc_over_sim_ratio", "ratio", "lower"),
    ("dist.launch_ms", "ms", "lower"),
    ("service.queue_wait_ms", "ms", "lower"),
    ("service.dispatch_ms", "ms", "lower"),
    ("service.build_ms", "ms", "lower"),
    ("service.run_ms", "ms", "lower"),
    ("service.return_ms", "ms", "lower"),
    ("service.job_latency_ms", "ms", "lower"),
    ("service.cold_job_ms", "ms", "lower"),
    ("service.overhead_share", "ratio", "lower"),
    ("service.jobs_failed", "count", "lower"),
    ("trace.unaccounted_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("machine.probe_pic_ms", "ms", "lower"),
    ("machine.probe_dispatch_ms", "ms", "lower"),
    ("machine.probe_p90_over_p10", "ratio", "lower"),
]


def manifest(bounds=None) -> dict:
    """``BENCHMARK.json`` — generated so names and units cannot drift from
    what this file prints."""
    bounds = bounds or {}
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WHY[name]} for name in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b,
                        "bound": bounds.get(n, start)}
                       for n, u, b, start in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


# -- running rounds ---------------------------------------------------------------------


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _port_open(port: int) -> bool:
    with socket.socket() as sock:
        sock.settimeout(0.5)
        return sock.connect_ex(("127.0.0.1", port)) == 0


def run_child(spec: dict, timeout: float) -> dict:
    """One ``rounds.py`` child in its own process group.  Returns its JSON
    or ``{"errors": [...]}``; a child that leaves a descendant, a shared
    memory segment or a listening port behind is an error."""
    shm_before = _shm_entries()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rounds.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True, cwd=str(ROOT))
    errors = []
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        errors.append(f"round timed out after {timeout:.0f} s")
    if _group_alive(proc.pid):
        errors.append("round left descendant processes behind")
        os.killpg(proc.pid, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while _group_alive(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
    leaked = _shm_entries() - shm_before
    if leaked:
        errors.append(f"round left shared memory behind: {sorted(leaked)}")
    out = None
    if proc.returncode == 0 and not errors:
        try:
            out = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            errors.append("round printed no JSON result")
    elif proc.returncode != 0:
        errors.append(f"round exited {proc.returncode}: "
                      + stderr.strip()[-600:])
    if out is None:
        return {"errors": errors}
    if out.get("port") and _port_open(out["port"]):
        out["errors"].append(f"port {out['port']} still open")
    return out


def n_rounds(seconds: float, trace: bool) -> int:
    rounds = max(1, round(seconds * ROUNDS_PER_SECOND))
    # a traced run spends half its rounds on the traced round and extras
    return max(1, rounds // 2) if trace else rounds


# -- aggregation ------------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


#: a set-up mixes import/translation, construction and a first op
SETUP_PROBES = dict.fromkeys(PROBE_NAMES, 1 / 3)


def op_ratios(rnd: dict, probes: dict) -> list:
    return [normalised_ms(op["wall"], op["before"], op["after"], probes)
            for op in rnd["ops"]]


def aggregate(workload: str, rounds: list) -> dict:
    """End-to-end numbers of one workload from its untraced rounds."""
    wl = WORKLOADS[workload]
    expected = wl["timed_ops"]
    good = [r for r in rounds if not r.get("errors") and "ops" in r]
    # rounds of one seed do identical work: same history, same work count
    votes = Counter((r["digest"], r["work"]) for r in good)
    messages = []
    if votes:
        winner = votes.most_common(1)[0][0]
        for r in good:
            if (r["digest"], r["work"]) != winner:
                r.setdefault("errors", []).append(
                    "history digest or work count differs from other rounds")
        good = [r for r in good if not r.get("errors")]
    for i, r in enumerate(rounds):
        messages += [f"round {i}: {e}" for e in r.get("errors", [])]
    attempted = expected * len(rounds)
    failed = expected * (len(rounds) - len(good))
    ratios = [x for r in good for x in op_ratios(r, wl["probes"])]
    walls = [op["wall"] * 1e3 for r in good for op in r["ops"]]
    setups = [sum(normalised_ms(ph["wall"], ph["before"], ph["after"],
                                SETUP_PROBES) for ph in r["setup"]) / 1e3
              for r in good]
    op_ms = _median(ratios)
    work_per_op = _median([r["work"] / expected for r in good])
    return {
        "attempted": attempted, "failed": failed, "messages": messages,
        "metrics": {"setup_s": _median(setups), "op_ms": op_ms,
                    "peak_rss_mb": max([r["rss_mb"] for r in good],
                                       default=0.0)},
        "derived": {
            "op_wall_ms": _median(walls),
            "op_wall_p90_ms": percentile(walls, 0.9) if walls else 0.0,
            # the same ops read against each probe alone: matched or not
            "op_ms_by_probe": {
                probe: _median([x for r in good
                                for x in op_ratios(r, {probe: 1.0})])
                for probe in OP_PROBES},
            "setup_wall_s": _median([sum(ph["wall"] for ph in r["setup"])
                                     for r in good]),
            "work_per_s": work_per_op / op_ms * 1e3 if op_ms else 0.0,
            "work_unit": wl["work_unit"], "ops": len(ratios),
            "cold_samples": len(setups)},
        "ratios": ratios, "good": good,
    }


def layer_metrics(workload: str, agg: dict, traced: dict, extras: dict,
                  out_dir: Path) -> dict:
    """The per-layer ledger of one traced round (value 0 where the workload
    does not exercise the layer).  Every time is scaled by ``reference /
    median probe burst`` of the traced round, so it reads in the same
    reference milliseconds as ``op_ms``."""
    import spans

    wl = WORKLOADS[workload]
    tr = traced["trace"]
    n_ops = wl["timed_ops"]
    op_lanes = tr["op_lanes"]
    n_rank = len(op_lanes)
    block = spans.rollup(tr["lanes"], *tr["block"])
    whole = spans.rollup(tr["lanes"], 0.0, float("inf"))

    def total(roll, field, prefixes, key="incl_s"):
        prefixes = (prefixes,) if isinstance(prefixes, str) else prefixes
        return sum(row[key] for lane in roll.values()
                   for name, row in lane[field].items()
                   if any(name == p or name.startswith(p + ":")
                          for p in prefixes))

    def edge(parent, child):
        return sum(v for lane in block.values()
                   for name, v in lane["by_edge"].items()
                   if name.split(">")[0] == parent
                   and name.split(">")[1].split(":")[0] == child)

    def layer_self(layer):
        return sum(lane["layer_self_s"].get(layer, 0.0)
                   for lane in block.values())

    def count(key):
        return sum(lane["counts"].get(key, 0.0) for lane in block.values())

    probe = next(iter(wl["probes"]))
    # what 1 ms of this round's wall clock is worth in reference ms
    scale = _median([normalised_ms(1e-3, op["before"], op["after"],
                                   wl["probes"]) for op in traced["ops"]])
    ms = lambda seconds: seconds * 1e3 * scale                  # noqa: E731
    per_op_ms = lambda seconds: ms(seconds) / n_ops / n_rank    # noqa: E731
    incl = lambda *names: total(block, "by_name", names)        # noqa: E731

    perf = tr.get("perf", {})
    nbytes = sum(r["nbytes"] for r in perf.values())
    flops = sum(r["flops"] for r in perf.values())
    loop_s = sum(r["seconds"] for r in perf.values())
    moves = [r for r in perf.values() if r["is_move"]]
    execute_s = incl("Backend.execute", "Backend.execute_move")
    launches = count("core.launches")

    m = dict.fromkeys((name for name, _u, _b in PER_LAYER), 0.0)
    m["apps.inject_ms"] = per_op_ms(incl("FemPicSimulation.inject"))
    m["apps.push_ms"] = per_op_ms(incl("FemPicSimulation.calc_pos_vel"))
    m["apps.move_ms"] = per_op_ms(incl(
        "FemPicSimulation.move", "CabanaSimulation.move_deposit",
        "mpi_particle_move"))
    m["apps.deposit_ms"] = per_op_ms(incl("FemPicSimulation.deposit"))
    m["apps.field_ms"] = per_op_ms(
        incl("FemPicSimulation.field_solve",
             "FemPicSimulation.compute_electric_field",
             "FemPicSimulation.field_energy", "CabanaSimulation.interpolate",
             "CabanaSimulation.accumulate_current",
             "CabanaSimulation.advance_b", "CabanaSimulation.advance_e",
             "CabanaSimulation.energies")
        + edge("DistributedCabana.step", "par_loop"))
    m["apps.host_self_ms"] = per_op_ms(layer_self("apps"))
    if agg["ratios"]:
        m["apps.op_p90_over_median"] = (percentile(agg["ratios"], 0.9)
                                        / _median(agg["ratios"]))
    m["core.launches_per_op"] = launches / n_ops / n_rank
    if launches:
        m["core.dispatch_us_per_launch"] = (ms(layer_self("core")) * 1e3
                                            / launches)
    if moves and sum(r["n_total"] for r in moves):
        m["core.hops_per_particle"] = (sum(r["hops"] for r in moves)
                                       / sum(r["n_total"] for r in moves))
    m["backends.execute_ms"] = per_op_ms(execute_s)
    m["backends.reduce_ms"] = per_op_ms(incl("ReductionStrategy.apply"))
    lookups = tr.get("plan_hits", 0) + tr.get("plan_misses", 0)
    if lookups:
        m["backends.plan_hit_ratio"] = tr["plan_hits"] / lookups
    if tr.get("particles"):
        m["backends.ns_per_particle_step"] = (ms(execute_s) * 1e6 / n_ops
                                              / tr["particles"])
    m["backends.computed_bytes_per_op"] = nbytes / n_ops
    if loop_s:
        m["backends.computed_gbps"] = nbytes / loop_s / 1e9
    if nbytes:
        m["backends.flops_per_byte"] = flops / nbytes
    translate = tr.get("translate", {})
    m["translator.cold_translate_ms"] = ms(translate.get("cold_translate_s",
                                                         0.0))
    m["translator.kernels"] = float(translate.get("kernels", 0))
    m["translator.generated_calls_per_op"] = (
        total(block, "by_name", "Kernel.generated", "calls") / n_ops / n_rank)
    m["program.eager_over_fuse_ratio"] = extras.get("eager_over_fuse_ratio", 0.0)
    m["program.fused_groups"] = extras.get("fused_groups", 0.0)
    m["fem.solve_ms"] = per_op_ms(incl("KSPSolver.solve"))
    m["fem.cg_iters_per_op"] = count("fem.cg_iters") / n_ops
    m["mesh.build_ms"] = ms(total(whole, "by_name",
                                  ("duct_mesh", "HexMesh"))) / n_rank
    halos = ("push_cell_halos", "push_node_halos", "push_halos_grouped",
             "reduce_cell_halos", "reduce_node_halos")
    m["runtime.halo_ms"] = per_op_ms(total(block, "by_name", halos, "self_s"))
    exact = traced.get("exact", {})
    m["runtime.halo_msgs_per_op"] = exact.get("msgs", 0) / n_ops
    m["runtime.halo_bytes_per_op"] = exact.get("bytes", 0) / n_ops
    m["runtime.migrate_ms"] = per_op_ms(
        total(block, "by_name", "migrate", "self_s"))
    m["runtime.migrated_per_op"] = count("runtime.migrated") / n_ops
    waits = ("ProcTransport.recv", "ProcTransport.allreduce",
             "ProcTransport.alltoall_counts", "ProcTransport.barrier")
    m["dist.wait_ms"] = per_op_ms(incl(*waits))
    m["dist.send_ms"] = per_op_ms(incl("ProcTransport.send"))
    m["dist.collectives_per_op"] = exact.get("collectives", 0) / n_ops
    if n_rank > 1:
        busy = [block[lane]["op_span_s"]
                - sum(row["incl_s"] for name, row
                      in block[lane]["by_name"].items() if name in waits)
                for lane in op_lanes]
        m["dist.rank_imbalance"] = max(busy) / statistics.fmean(busy)
        m["dist.launch_ms"] = ms(tr["launch_s"])
        if extras.get("sim_op_ms"):
            m["dist.proc_over_sim_ratio"] = (agg["metrics"]["op_ms"]
                                             / extras["sim_op_ms"])

    jobs = tr.get("jobs")
    if jobs:
        cache = tr["cache"] or {}
        if cache.get("hits", 0) + cache.get("misses", 0):
            m["runtime.objcache_hit_ratio"] = cache["hits"] / (
                cache["hits"] + cache["misses"])
        starts, sends = {}, {}
        for lane in tr["lanes"]:
            job = None
            for name, _layer, a, _b, *_ in lane["spans"]:
                if name.startswith("pool.run_job:"):
                    job = name.split(":", 1)[1]
                    starts[job] = a
                elif name == "pool.send:done" and job is not None:
                    sends[job] = a
        dispatch, returns = [], []
        for _batch, job_id, _app, wait, latency, _elapsed, t_submit in jobs:
            if job_id in starts and job_id in sends:
                dispatch.append(starts[job_id] - t_submit - wait)
                returns.append(t_submit + latency - sends[job_id])
        service_s = sum(j[4] - j[3] for j in jobs)     # latency - queue wait
        m["service.queue_wait_ms"] = ms(statistics.fmean(j[3] for j in jobs))
        m["service.job_latency_ms"] = ms(statistics.fmean(j[4] for j in jobs))
        if dispatch:
            m["service.dispatch_ms"] = ms(statistics.fmean(dispatch))
            m["service.return_ms"] = ms(statistics.fmean(returns))
        m["service.build_ms"] = ms(incl("jobs.build_sim")) / len(jobs)
        m["service.run_ms"] = ms(incl("jobs.step_once")) / len(jobs)
        m["service.overhead_share"] = 1.0 - incl("jobs.step_once") / service_s
        m["service.cold_job_ms"] = ms(statistics.fmean(
            j[4] - j[3] for j in tr["cold_jobs"]))
        m["service.jobs_failed"] = float(
            n_ops * wl["jobs_per_op"] - len(jobs))

    op_span = sum(block[lane]["op_span_s"] for lane in op_lanes)
    unaccounted = sum(block[lane]["layer_self_s"].get("unaccounted", 0.0)
                      for lane in op_lanes)
    m["trace.unaccounted_share"] = unaccounted / op_span if op_span else 0.0
    traced_ms = _median(op_ratios(traced, wl["probes"]))
    if agg["metrics"]["op_ms"]:
        m["trace.overhead_ratio"] = traced_ms / agg["metrics"]["op_ms"]
    rounds = agg["good"] + [traced]
    for name in ("pic", "dispatch"):
        m[f"machine.probe_{name}_ms"] = _median(
            [ph[k][name] * 1e3 for r in rounds for ph in r["setup"]
             for k in ("before", "after")])
    bursts = [op["before"][probe] for r in agg["good"] for op in r["ops"]]
    if bursts:
        m["machine.probe_p90_over_p10"] = percentile(bursts, 0.9) / percentile(bursts, 0.1)

    out_dir.mkdir(parents=True, exist_ok=True)
    spans.chrome_trace(tr["lanes"], out_dir / f"{workload}.trace.json")
    ledger = {
        "workload": workload, "ops": n_ops, "op_lanes": op_lanes,
        "particles": tr.get("particles", 0),
        "scale_to_reference_ms": scale,
        "op_span_ms_per_op": per_op_ms(op_span),
        "layer_self_ms_per_op": {
            lane: {layer: ms(s) / n_ops
                   for layer, s in sorted(roll["layer_self_s"].items())}
            for lane, roll in block.items()},
        "by_name_ms_per_op": {
            lane: {name: {"incl": ms(row["incl_s"]) / n_ops,
                          "self": ms(row["self_s"]) / n_ops,
                          "calls": row["calls"] / n_ops}
                   for name, row in sorted(roll["by_name"].items())
                   if not name.startswith("pool.run_job:")}
            for lane, roll in block.items()},
        "loop_timers_ms_per_op": {name: per_op_ms(row["seconds"])
                                  for name, row in perf.items()},
        "metrics": m,
    }
    (out_dir / f"{workload}.rollup.json").write_text(
        json.dumps(ledger, indent=1))
    return m


# -- one invocation ---------------------------------------------------------------------


def add_traced_round(name: str, agg: dict, seed: int, timeout,
                     out_dir: Path) -> None:
    """One more round with the span wrappers on, plus the workload's side
    measurement; fills ``agg["layer"]``.  Its ops count as attempted, and
    as failed when the round errs or leaves the untraced trajectory."""
    out_dir.mkdir(parents=True, exist_ok=True)
    n_ops = WORKLOADS[name]["timed_ops"]
    agg["attempted"] += n_ops
    traced = run_child({"workload": name, "seed": seed, "trace": True,
                        "out": str(out_dir)}, timeout())
    bad = list(traced.get("errors", []))
    extras = {}
    kind = {"fempic_dispatch": "program", "cabana_dist_2r": "sim"}.get(name)
    if kind and not bad:
        extras = run_child({"workload": name, "seed": seed, "extras": kind},
                           timeout())
        bad += extras.get("errors", [])
    if not bad and not (agg["good"]
                        and traced["digest"] == agg["good"][0]["digest"]):
        bad.append("history differs from the untraced rounds")
    if bad:
        agg["messages"] += [f"traced round: {e}" for e in bad]
        agg["failed"] += n_ops
        agg["layer"] = dict.fromkeys((n for n, _u, _b in PER_LAYER), 0.0)
    else:
        agg["layer"] = layer_metrics(name, agg, traced, extras, out_dir)


def run_workloads(names, seed: int, seconds: float, trace: bool,
                  inject_failure: bool, out_dir: Path) -> dict:
    """Untraced rounds round-major over ``names``; then, when tracing, one
    traced round per workload."""
    started = time.monotonic()
    remaining = lambda: RUN_DEADLINE - (time.monotonic() - started)  # noqa: E731
    timeout = lambda: min(ROUND_TIMEOUT, max(remaining(), 1.0))      # noqa: E731
    rounds = {name: [] for name in names}
    for i in range(n_rounds(seconds, trace)):
        for name in names:
            if remaining() < 10.0:
                rounds[name].append({"errors": ["run deadline reached"]})
                continue
            rounds[name].append(run_child(
                {"workload": name, "seed": seed, "oracle": i == 0,
                 "inject_failure": inject_failure and i == 0}, timeout()))
    results = {}
    for name in names:
        results[name] = aggregate(name, rounds[name])
        if trace:
            add_traced_round(name, results[name], seed, timeout, out_dir)
    return results


def result_line(agg: dict, trace: bool) -> dict:
    if trace:
        metrics = {n: {"value": agg["layer"][n], "unit": u}
                   for n, u, _b in PER_LAYER}
    else:
        metrics = {n: {"value": agg["metrics"][n], "unit": u}
                   for n, u, _b, _bound in END_TO_END}
    return {"correct": agg["failed"] == 0, "attempted": agg["attempted"],
            "failed": agg["failed"], "metrics": metrics}


def report(name: str, agg: dict, trace: bool) -> None:
    d = agg["derived"]
    print(f"== {name}: {d['ops']} timed ops, {d['cold_samples']} cold "
          f"set-ups, probes "
          + " ".join(f"{probe}^{weight:.2g}" for probe, weight
                     in WORKLOADS[name]["probes"].items()))
    for message in agg["messages"]:
        print(f"   FAILED {message}")
    units = {n: u for n, u, *_ in END_TO_END}
    for metric, value in agg["metrics"].items():
        print(f"   {metric:<28}{value:>14.4f} {units[metric]}")
    print(f"   {'op_wall_ms (raw median)':<28}{d['op_wall_ms']:>14.4f} ms")
    print(f"   {'op_wall_p90_ms (raw)':<28}{d['op_wall_p90_ms']:>14.4f} ms")
    for probe, value in d["op_ms_by_probe"].items():
        print(f"   {f'op_ms / {probe} alone':<28}{value:>14.4f} ms")
    print(f"   {'setup_wall_s (raw median)':<28}{d['setup_wall_s']:>14.4f} s")
    print(f"   {'work_per_s (derived)':<28}{d['work_per_s']:>14.1f} "
          f"{d['work_unit']}/s")
    if trace:
        for metric, unit, _better in PER_LAYER:
            print(f"   {metric:<36}{agg['layer'][metric]:>16.4f} {unit}")


# -- calibration ------------------------------------------------------------------------


def _iqr_over_median(values) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def measure_sets(n_sets: int, seconds: float):
    """``n_sets`` sets of runs issued exactly as the driver issues them: one
    workload and one fresh seed per invocation, ``RUNS_PER_SET`` times with
    ``--trace 0`` and then once with ``--trace 1``.  ``None`` if a run fails."""
    record = {"protocol": PROTOCOL, "taken": time.strftime("%Y-%m-%dT%H:%M"),
              "host_note": "2-vCPU shared sandbox", "seconds": seconds,
              "runs_per_set": RUNS_PER_SET, "sets": []}
    seed = 1000
    for set_no in range(n_sets):
        values = {name: {m: [] for m, *_ in END_TO_END} for name in WORKLOADS}
        raw_walls = {name: [] for name in WORKLOADS}
        by_probe = {name: {probe: [] for probe in OP_PROBES}
                    for name in WORKLOADS}
        walls = {name: [] for name in WORKLOADS}
        for name in WORKLOADS:
            for run in range(RUNS_PER_SET + 1):
                seed += 1
                trace = run == RUNS_PER_SET
                t0 = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", "1" if trace else "0"],
                    capture_output=True, text=True, cwd=str(ROOT))
                wall = time.monotonic() - t0
                line = json.loads(proc.stdout.strip().splitlines()[-1])
                if proc.returncode != 0 or not line["correct"]:
                    print(proc.stdout[-2000:], proc.stderr[-2000:])
                    return None
                walls[name].append(wall)
                if not trace:
                    for m in values[name]:
                        values[name][m].append(line["metrics"][m]["value"])
                    raw_walls[name].append(float(re.search(
                        r"op_wall_ms \(raw median\)\s+([0-9.]+)",
                        proc.stdout).group(1)))
                    for probe, value in re.findall(
                            r"op_ms / (\w+) alone\s+([0-9.]+)", proc.stdout):
                        by_probe[name][probe].append(float(value))
                print(f"set {set_no} {name} seed {seed} trace {int(trace)} "
                      f"{wall:5.1f} s", flush=True)
        record["sets"].append({"values": values, "run_wall_s": walls,
                               "raw_op_wall_ms": raw_walls,
                               "op_ms_by_probe": by_probe})
    return record


def summarise(record: dict) -> dict:
    """Per (workload, metric): gap between the set medians and IQR/median
    inside each set, as the driver reads them; per workload and set the
    range of the per-run ``op_ms`` beside that of the raw wall median."""
    table = {}
    for name in WORKLOADS:
        for metric, *_ in END_TO_END:
            medians = [statistics.median(s["values"][name][metric])
                       for s in record["sets"]]
            table[f"{name}/{metric}"] = {
                "set_medians": medians,
                "gap": (max(medians) - min(medians)) / min(medians),
                "spreads": [_iqr_over_median(s["values"][name][metric])
                            for s in record["sets"]]}
        spread = lambda v: (max(v) - min(v)) / statistics.median(v)  # noqa: E731
        for set_no, one in enumerate(record["sets"]):
            table[f"{name}/range_set{set_no}"] = {
                "op_ms": spread(one["values"][name]["op_ms"]),
                "raw_op_wall_ms": spread(one["raw_op_wall_ms"][name]),
                "op_ms_by_probe": {probe: spread(v) for probe, v
                                   in one["op_ms_by_probe"][name].items()}}
    return table


def derive_bounds(records: list):
    """Bound of a metric = max(2 x largest gap, 3 x largest spread) over
    every workload of every record of the current protocol, rounded up to a
    whole per cent inside [BOUND_FLOOR, BOUND_CAP].  A (workload, metric)
    pair whose own rule exceeds the cap is *unresolved*: it is named, not
    hidden by the clamp."""
    bounds, unresolved = {}, []
    for metric, *_ in END_TO_END:
        worst = 0.0
        for name in WORKLOADS:
            rows = [r["summary"][f"{name}/{metric}"] for r in records]
            gap = max(row["gap"] for row in rows)
            spread = max(max(row["spreads"]) for row in rows)
            rule = max(2 * gap, 3 * spread)
            worst = max(worst, rule)
            print(f"{name:<18}{metric:<13} worst gap {gap:6.2%}  worst "
                  f"IQR/median {spread:6.2%}  rule {rule:6.2%}")
            if rule > BOUND_CAP:
                unresolved.append({"workload": name, "metric": metric,
                                   "gap": gap, "spread": spread,
                                   "rule": rule})
        clamped = min(BOUND_CAP, max(BOUND_FLOOR, worst))
        bounds[metric] = math.ceil(round(clamped * 100, 6)) / 100
        print(f"-> {metric}: rule {worst:.2%}, bound {bounds[metric]}")
    for row in unresolved:
        print(f"!! UNRESOLVED {row['workload']}/{row['metric']}: the rule "
              f"asks for {row['rule']:.1%} (2 x gap {row['gap']:.1%}, 3 x "
              f"IQR/median {row['spread']:.1%}), above the {BOUND_CAP:.0%} "
              f"cap; the committed bound is the cap")
    return bounds, unresolved


def calibrate(n_sets: int, seconds: float) -> int:
    """Take one more record, keep every earlier one, derive the bounds from
    all records of the current protocol and rewrite ``calibration.json`` and
    ``BENCHMARK.json``.  Exit code 1 while any pair is unresolved."""
    record = measure_sets(n_sets, seconds)
    if record is None:
        return 1
    record["summary"] = summarise(record)
    path = HERE / "calibration.json"
    records = json.loads(path.read_text())["records"] if path.exists() else []
    records.append(record)
    current = [r for r in records if r["protocol"] == PROTOCOL]
    for r in current:
        for name in WORKLOADS:
            for set_no in range(len(r["sets"])):
                row = r["summary"][f"{name}/range_set{set_no}"]
                alone = ", ".join(f"/{probe} alone {v:6.2%}" for probe, v
                                  in row["op_ms_by_probe"].items())
                print(f"{r['taken']} {name:<18}set {set_no}: per-run op_ms "
                      f"ranges {row['op_ms']:6.2%} ({alone}), raw wall "
                      f"median ranges {row['raw_op_wall_ms']:6.2%}")
    bounds, unresolved = derive_bounds(current)
    path.write_text(json.dumps(
        {"protocol": PROTOCOL, "bounds": bounds, "unresolved": unresolved,
         "records": records}, indent=1))
    (ROOT / "BENCHMARK.json").write_text(
        json.dumps(manifest(bounds), indent=2) + "\n")
    return 1 if unresolved else 0


# -- entry ------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(OUT_DIR),
                        help="directory for traces and roll-ups")
    parser.add_argument("--inject-failure", action="store_true",
                        help="make one check fail (harness self-test)")
    parser.add_argument("--sets", type=int, default=0,
                        help="calibrate bounds from this many sets of runs")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"no src/repro under {ROOT}: nothing to measure",
              file=sys.stderr)
        return 2
    if args.sets:
        return calibrate(args.sets, args.seconds)

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = run_workloads(names, args.seed, args.seconds, bool(args.trace),
                            args.inject_failure, Path(args.out))
    for name in names:
        report(name, results[name], bool(args.trace))
    # with several workloads the machine-readable line is the last one's;
    # the driver always names one
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps(result_line(results[names[-1]], bool(args.trace))))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
