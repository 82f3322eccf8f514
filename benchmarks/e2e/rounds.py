"""One round of one workload, run in a fresh process by ``run.py``.

    python3 benchmarks/e2e/rounds.py '<json spec>'

A round (1) imports numpy and warms the probes, (2) bursts the probes,
(3) does the **cold set-up** — ``import repro``, build the workload, first
completed op — (4) bursts again, (5) runs the untimed settle ops, (6) runs a
fixed-count timed block ``burst, op, burst, op, …`` and (7) checks the
outputs and prints one JSON line.  Counts, not durations, fix the work, so
every commit and every seed does the same work.

Spec keys: ``workload``, ``seed``, ``trace`` (install the span wrappers of
``spans.py``), ``oracle`` (also run the vec-vs-seq / in-process oracles),
``extras`` (run a side measurement instead: ``"program"`` or ``"sim"``),
``inject_failure`` (make a check fail — harness self-test), ``out`` (directory
for the worker span file).
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from probes import OP_PROBES, PROBE_NAMES, Probes, normalised_ms  # noqa: E402

_now = time.perf_counter
#: bursts per probe at each set-up phase boundary (about 25 ms in all)
SETUP_BURSTS = 3

#: final sizes; the reason for each is in README.md and BENCHMARK.json.
#: ``probes`` maps a probe to its exponent in ``probes.normalised_ms``.
WORKLOADS = {
    "fempic_particles": {
        "probes": {"pic": 1.0}, "settle": 2, "timed_ops": 19,
        "ppc": 100,                    # x 1152 tets = 115k seeded ions
        "work_unit": "particle-steps"},
    "fempic_dispatch": {
        "probes": {"dispatch": 1.0}, "settle": 20, "timed_ops": 30,
        "steps_per_op": 10,            # ~400 resident ions, 5 ms steps
        "work_unit": "steps"},
    "cabana_dist_2r": {
        # the lock-stepped step slows down about 1.6 times as much as either
        # probe does (two ranks and the router wait for one another)
        "probes": {"pic": 0.8, "dispatch": 0.8}, "settle": 4, "timed_ops": 44,
        "nranks": 2,
        "grid": (8, 8, 16), "ppc": 48,  # 49k electrons, constant count
        "work_unit": "particle-steps"},
    "service_batch": {
        "probes": {"pic": 1 / 3, "dispatch": 2 / 3}, "settle": 2,
        "timed_ops": 19, "jobs_per_op": 8, "work_unit": "jobs"},
}


def _use_src() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").exists():
        raise SystemExit(f"no src/repro under {ROOT}: nothing to measure")
    sys.path.insert(0, str(src))


def _digest(history: dict) -> str:
    blob = json.dumps({k: [repr(x) for x in v] for k, v in history.items()},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _rss_mb() -> float:
    """Largest peak RSS of this process or any child it has reaped."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _seeded_perturbation(seed: int) -> float:
    """The seed enters CabanaPIC (which has no RNG) through the two-stream
    velocity perturbation amplitude, 0.08-0.12."""
    return 0.08 + 0.04 * float(np.random.default_rng(seed).random())


def timed_block(op, n_ops: int, probes: Probes, rec=None):
    """``burst, op, burst, op, … burst``; each op keeps the burst on either
    side of it.  Every burst runs all of ``OP_PROBES`` so that ``run.py`` can
    normalise by the workload's probes and ``--probe-check`` by the others.
    Returns ``(ops, block start, block end)``."""
    ops = []
    before = probes.burst(OP_PROBES)
    block_t0 = _now()
    for i in range(n_ops):
        if rec is not None:
            rec.op = i
            span = rec.begin("op", "trace")
        t0 = _now()
        op()
        wall = _now() - t0
        if rec is not None:
            rec.end(span)
            rec.op = -1
        after = probes.burst(OP_PROBES)
        ops.append({"wall": wall, "before": before, "after": after})
        before = after
    return ops, block_t0, _now()


class SetupClock:
    """Cold set-up timed in phases with a probe burst at every boundary.

    A set-up mixes import/translation, small-array construction and a first
    op, so every probe is burst and ``run.py`` normalises each phase by the
    geometric mean of all three.

    A set-up lasts 0.3-0.9 s, longer than most host slow spells, so one
    burst on either side of the whole would often miss the state the host
    was in.  Each phase (import / build / first op) is normalised by the
    bursts that bracket it; ``setup_s`` is the sum.  The bursts themselves
    are not counted.
    """

    def __init__(self, probes: Probes):
        self.probes = probes
        self.phases = []
        self.edge = probes.burst(PROBE_NAMES, SETUP_BURSTS)
        self.t0 = _now()

    def mark(self, after=None, end=None) -> None:
        """Close a phase; ``after``/``end`` let rank processes supply the
        closing burst and timestamp."""
        wall = (end if end is not None else _now()) - self.t0
        if after is None:
            after = self.probes.burst(PROBE_NAMES, SETUP_BURSTS)
        self.phases.append({"wall": wall, "before": self.edge,
                            "after": after})
        self.edge = after
        self.t0 = _now()


def _recorder(spec, lane: str):
    """Install the span wrappers (traced round only)."""
    if not spec.get("trace"):
        return None
    import spans
    rec = spans.SpanRecorder(lane)
    worker_path = None
    if spec.get("out"):
        worker_path = os.path.join(spec["out"], f"workers.{os.getpid()}.jsonl")
    spans.install(rec, worker_path)
    rec.worker_path = worker_path
    return rec


def _perf_rows(perf) -> dict:
    return {name: {"calls": st.calls, "n_total": st.n_total,
                   "seconds": st.seconds, "flops": st.flops,
                   "nbytes": st.nbytes, "hops": st.hops,
                   "is_move": st.is_move}
            for name, st in perf.loops.items()}


def _perf_delta(after: dict, before: dict) -> dict:
    out = {}
    for name, row in after.items():
        base = before.get(name, {})
        out[name] = {k: (v - base.get(k, 0) if k != "is_move" else v)
                     for k, v in row.items()}
    return out


def _allclose_histories(a: dict, b: dict, rtol: float, atol: float) -> bool:
    """Integer series bit-equal, float series within the documented
    vec-vs-seq tolerance (reassociated sums)."""
    if a.keys() != b.keys():
        return False
    for key in a:
        x, y = np.asarray(a[key]), np.asarray(b[key])
        if x.shape != y.shape:
            return False
        if x.dtype.kind in "iu" and y.dtype.kind in "iu":
            if not np.array_equal(x, y):
                return False
        elif not np.allclose(x, y, rtol=rtol, atol=atol):
            return False
    return True


def _translate_cold(kernels_module) -> dict:
    """Translate fresh ``Kernel`` objects of every kernel of an app."""
    from repro.core.kernel import Kernel
    fns = [getattr(kernels_module, n) for n in dir(kernels_module)
           if n.endswith("_kernel")]
    t0 = _now()
    for fn in fns:
        Kernel(fn).generated("vec")
    return {"cold_translate_s": _now() - t0, "kernels": len(fns)}


# -- fempic (both rungs) --------------------------------------------------------------


def _fempic_config(spec, wl):
    from repro.apps.fempic.config import FemPicConfig
    cfg = FemPicConfig().scaled(seed=int(spec["seed"]))
    if "ppc" in wl:
        # quasi-neutral weight: seeding ppc ions per cell reproduces the
        # Boltzmann reference density, keeping the Poisson solve physical
        cell_volume = (cfg.lx * cfg.ly * cfg.lz) / cfg.n_cells
        cfg = cfg.scaled(spwt=cfg.n0 * cell_volume / wl["ppc"])
    return cfg


def _fempic_oracle() -> list:
    from repro.apps.fempic.config import FemPicConfig
    from repro.apps.fempic.simulation import FemPicSimulation
    runs = {}
    for backend in ("seq", "vec"):
        sim = FemPicSimulation(FemPicConfig.smoke().scaled(backend=backend))
        runs[backend] = sim.run(4)
    ok = _allclose_histories(runs["vec"], runs["seq"], rtol=1e-9, atol=0.0)
    return [] if ok else ["fempic smoke: vec history differs from seq oracle"]


def run_fempic(spec, wl, probes: Probes) -> dict:
    clock = SetupClock(probes)
    _use_src()
    from repro.apps.fempic.simulation import FemPicSimulation
    rec = _recorder(spec, "main")
    clock.mark()                                        # import
    sim = FemPicSimulation(_fempic_config(spec, wl))
    if "ppc" in wl:
        sim.seed_uniform_plasma(wl["ppc"])
    clock.mark()                                        # build
    steps_per_op = wl.get("steps_per_op", 1)
    op = (lambda: sim.run(steps_per_op)) if steps_per_op > 1 else sim.step
    op()
    clock.mark()                                        # first op

    for _ in range(wl["settle"]):
        sim.step()
    perf0 = _perf_rows(sim.ctx.perf)
    particles0 = sim.parts.size
    ops, block_t0, block_t1 = timed_block(op, wl["timed_ops"], probes, rec)
    rss_mb = _rss_mb()      # before the checks: they are not measured
    perf = _perf_delta(_perf_rows(sim.ctx.perf), perf0)
    n_steps = wl["timed_ops"] * steps_per_op
    hist = sim.history
    work = (int(sum(hist["n_particles"][-n_steps:]))
            if wl["work_unit"] == "particle-steps" else n_steps)

    errors = []
    from repro.validate import ConservationLedger
    ledger = ConservationLedger()
    n = np.asarray(hist["n_particles"], dtype=np.int64)
    seeded = n[0] - hist["injected"][0] + hist["removed"][0]
    ledger.bound_constant("particle_balance",
                          n - np.cumsum(hist["injected"])
                          + np.cumsum(hist["removed"]) - seeded)
    if not ledger.ok or not np.all(np.isfinite(hist["field_energy"])):
        errors.append(f"fempic ledger: {ledger}")
    if spec.get("oracle"):
        errors += _fempic_oracle()

    out = {"setup": clock.phases,
           "ops": ops, "digest": _digest(hist), "work": work,
           "errors": errors, "rss_mb": rss_mb}
    if rec is not None:
        import repro.apps.fempic.kernels as kernels
        plan = sim.ctx.backend.plan
        out["trace"] = {
            "lanes": [rec.dump()], "block": [block_t0, block_t1],
            "op_lanes": ["main"], "perf": perf,
            "particles": (particles0 + sim.parts.size) / 2.0,
            "plan_hits": plan.hits, "plan_misses": plan.misses,
            "translate": _translate_cold(kernels)}
    return out


def run_program_extras(spec, probes: Probes) -> dict:
    """Eager vs ``program="fuse"`` on the dispatch rung, alternating short
    blocks in one process so both see the same host spell."""
    _use_src()
    from repro.apps.fempic.simulation import FemPicSimulation
    wl = WORKLOADS["fempic_dispatch"]
    sims = {}
    for mode in ("off", "fuse"):
        sims[mode] = FemPicSimulation(
            _fempic_config(spec, wl).scaled(program=mode))
        sims[mode].run(wl["settle"])
    ratios = {"off": [], "fuse": []}
    for _ in range(10):
        for mode, sim in sims.items():
            ops, _, _ = timed_block(lambda: sim.run(wl["steps_per_op"]), 1,
                                    probes)
            ratios[mode].append(normalised_ms(
                ops[0]["wall"], ops[0]["before"], ops[0]["after"],
                wl["probes"]))
    prog = sims["fuse"].program
    return {"eager_over_fuse_ratio": statistics.median(ratios["off"])
            / statistics.median(ratios["fuse"]),
            "fused_groups": sum(1 for plan in prog.plans
                                for g in plan.groups if g.fused)}


# -- cabana over two rank processes -------------------------------------------------------


def _cabana_config(spec, wl):
    from repro.apps.cabana.config import CabanaConfig
    nx, ny, nz = wl["grid"]
    return CabanaConfig(nx=nx, ny=ny, nz=nz, lz=2.0, ppc=wl["ppc"],
                        perturbation=_seeded_perturbation(int(spec["seed"])))


def _cabana_rank_entry(transport, spec, wl, t_launch) -> dict:
    """Runs in every rank process: build, first step, settle, timed block.
    The bursts run in both ranks at once around the lock-stepped step."""
    t_entry = _now()
    probes = Probes()
    probes.warm()
    rec = spec.get("_rec")
    if rec is not None:
        rec.reset(f"rank{transport.my_rank}")
    from repro.apps.cabana.distributed import DistributedCabana
    app = DistributedCabana(_cabana_config(spec, wl), comm=transport)
    app.step()
    t_first = _now()
    b1 = probes.burst(PROBE_NAMES, SETUP_BURSTS)
    for _ in range(wl["settle"]):
        app.step()
    rk = app.ranks[transport.my_rank]
    stats0 = transport.stats.to_dict()
    perf0 = _perf_rows(rk.ctx.perf)
    ops, block_t0, block_t1 = timed_block(app.step, wl["timed_ops"], probes,
                                          rec)
    stats1 = transport.stats.to_dict()
    return {"launch_s": t_entry - t_launch, "t_first": t_first, "b1": b1,
            "ops": ops, "block": [block_t0, block_t1],
            "history": app.history, "particles": int(rk.parts.size),
            "msgs": int(np.sum(stats1["msg_count"])
                        - np.sum(stats0["msg_count"])),
            "bytes": int(np.sum(stats1["msg_bytes"])
                         - np.sum(stats0["msg_bytes"])),
            "collectives": stats1["collectives"] - stats0["collectives"],
            "perf": _perf_delta(_perf_rows(rk.ctx.perf), perf0),
            "plan": [rk.ctx.backend.plan.hits, rk.ctx.backend.plan.misses],
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "lane": rec.dump() if rec is not None else None}


def _smoke_rank_entry(transport, cfg, n_steps) -> dict:
    from repro.apps.cabana.distributed import DistributedCabana
    return DistributedCabana(cfg, comm=transport).run(n_steps)


def _cabana_oracle() -> list:
    """Smoke-size prefix: vec vs seq (tolerance), 2 ranks over ``proc`` vs
    the in-process ``sim`` transport (bit-equal, as the repo promises) and
    vs the single-process app (rtol 1e-10, per-rank sums regroup)."""
    from repro.apps.cabana.config import CabanaConfig
    from repro.apps.cabana.distributed import DistributedCabana
    from repro.apps.cabana.simulation import CabanaSimulation
    from repro.dist import ProcCluster
    from repro.runtime import SimComm
    errors = []
    cfg = CabanaConfig.smoke()
    single = {b: CabanaSimulation(cfg.scaled(backend=b)).run(3)
              for b in ("seq", "vec")}
    if not _allclose_histories(single["vec"], single["seq"], 1e-9, 1e-18):
        errors.append("cabana smoke: vec history differs from seq oracle")
    sim2 = DistributedCabana(cfg, comm=SimComm(2)).run(3)
    proc2 = ProcCluster(2, _smoke_rank_entry, args=(cfg, 3)).run()[0]
    if _digest(sim2) != _digest(proc2):
        errors.append("cabana smoke: proc transport differs from sim")
    if not _allclose_histories(proc2, single["vec"], 1e-10, 1e-18):
        errors.append("cabana smoke: 2-rank history differs from 1 process")
    return errors


def _merge_rank_ops(reports) -> list:
    """Op wall = max over ranks (the step is lock-stepped, the slower rank
    sets it); probe = mean over ranks."""
    ops = []
    for per_rank in zip(*(r["ops"] for r in reports)):
        ops.append({
            "wall": max(o["wall"] for o in per_rank),
            "before": {k: statistics.fmean(o["before"][k] for o in per_rank)
                       for k in per_rank[0]["before"]},
            "after": {k: statistics.fmean(o["after"][k] for o in per_rank)
                      for k in per_rank[0]["after"]}})
    return ops


def run_cabana_dist(spec, wl, probes: Probes) -> dict:
    clock = SetupClock(probes)
    _use_src()
    from repro.dist import ProcCluster
    rec = _recorder(spec, "router")
    clock.mark()                                        # import
    spec = dict(spec, _rec=rec)        # forked ranks inherit the recorder
    reports = ProcCluster(wl["nranks"], _cabana_rank_entry,
                          args=(spec, wl, _now())).run()
    # sampled before the checks, which are not measured: this process and
    # the ranks it has just reaped, beside what each rank said of itself
    rss_mb = max([_rss_mb()] + [r["rss_kb"] / 1024.0 for r in reports])
    # launch + build + first step; the ranks burst when that step is done
    clock.mark(after={k: statistics.fmean(r["b1"][k] for r in reports)
                      for k in reports[0]["b1"]},
               end=max(r["t_first"] for r in reports))

    errors = []
    hist = reports[0]["history"]
    if any(_digest(r["history"]) != _digest(hist) for r in reports[1:]):
        errors.append("replicated histories differ between ranks")
    particles = sum(r["particles"] for r in reports)
    cfg = _cabana_config(spec, wl)
    from repro.apps.cabana.init import two_stream_initial_state
    from repro.validate import ConservationLedger
    ledger = ConservationLedger()
    ledger.bound_constant("n_particles", [cfg.n_particles, particles])
    _cells, _off, vel = two_stream_initial_state(cfg)
    kinetic0 = 0.5 * cfg.msp * cfg.weight * float(np.sum(vel * vel))
    field = np.asarray(hist["e_energy"]) + np.asarray(hist["b_energy"])
    # the field draws on the beams' kinetic energy and cannot exceed it
    ledger.bound("field_energy", np.concatenate(([0.0], field)), 1.0,
                 scale=kinetic0)
    if not ledger.ok or not np.all(np.isfinite(field)):
        errors.append(f"cabana ledger: {ledger}")
    if spec.get("oracle"):
        errors += _cabana_oracle()

    n_ops = wl["timed_ops"]
    out = {"setup": clock.phases,
           "ops": _merge_rank_ops(reports), "digest": _digest(hist),
           "work": particles * n_ops, "errors": errors,
           "rss_mb": rss_mb,
           "exact": {"msgs": sum(r["msgs"] for r in reports),
                     "bytes": sum(r["bytes"] for r in reports),
                     "collectives": max(r["collectives"] for r in reports)}}
    if rec is not None:
        import repro.apps.cabana.kernels as kernels
        perf = {}
        for r in reports:
            for name, row in r["perf"].items():
                acc = perf.setdefault(name, dict.fromkeys(row, 0))
                for k, v in row.items():
                    acc[k] = acc[k] + v if k != "is_move" else v
        out["trace"] = {
            "lanes": [rec.dump()] + [r["lane"] for r in reports],
            "block": [min(r["block"][0] for r in reports),
                      max(r["block"][1] for r in reports)],
            "op_lanes": [r["lane"]["lane"] for r in reports],
            "perf": perf, "particles": particles,
            "plan_hits": sum(r["plan"][0] for r in reports),
            "plan_misses": sum(r["plan"][1] for r in reports),
            "launch_s": max(r["launch_s"] for r in reports),
            "translate": _translate_cold(kernels)}
    return out


def run_sim_extras(spec, probes: Probes) -> dict:
    """The same two-rank problem over the in-process ``sim`` transport."""
    _use_src()
    from repro.apps.cabana.distributed import DistributedCabana
    from repro.runtime import SimComm
    wl = WORKLOADS["cabana_dist_2r"]
    app = DistributedCabana(_cabana_config(spec, wl), comm=SimComm(2))
    for _ in range(1 + wl["settle"]):
        app.step()
    ops, _, _ = timed_block(app.step, 16, probes)
    # one process: no ranks wait for one another, so the exponents sum to 1
    return {"sim_op_ms": statistics.median(
        normalised_ms(o["wall"], o["before"], o["after"],
                      {"pic": 0.5, "dispatch": 0.5})
        for o in ops)}


# -- the job service ----------------------------------------------------------------------


def _service_batch(seed: int) -> list:
    """Eight short jobs; the seed sets the particle seeds and the order."""
    perturbation = _seeded_perturbation(seed)
    advec = {"app": "advec", "params": {"nx": 6, "ny": 6, "ppc": 2,
                                        "n_steps": 2, "seed": seed}}
    cabana = {"app": "cabana", "tenant": "a", "priority": 3,
              "params": {"nx": 4, "ny": 4, "nz": 8, "ppc": 8, "n_steps": 1,
                         "perturbation": perturbation}}
    fem = {"nx": 2, "ny": 2, "nz": 6, "plasma_den": 2000.0, "n0": 2000.0,
           "n_steps": 2, "seed": seed}
    fempic_ckpt = {"app": "fempic", "params": fem, "checkpoint_every": 1}
    fempic_b = {"app": "fempic", "params": fem, "tenant": "b", "priority": 7}
    jobs = [advec, cabana, fempic_ckpt, fempic_b] * 2
    order = np.random.default_rng(seed).permutation(len(jobs))
    return [jobs[i] for i in order]


def _service_oracle(batch, histories) -> list:
    """Every job's history must be bit-equal to the same job built and
    stepped in this process through the public ``jobs`` surface."""
    from repro.service.jobs import build_sim, run_steps, validate_job
    errors, seen = [], {}
    for job, history in zip(batch, histories):
        key = json.dumps(job, sort_keys=True)
        if key not in seen:
            spec = validate_job(job)
            sim, oracle = build_sim(spec)
            run_steps(spec, sim, oracle, 0, spec.n_steps)
            seen[key] = _digest(oracle)
        if _digest(history) != seen[key]:
            errors.append(f"service: {job['app']} job history differs from "
                          "the in-process oracle")
    return errors


def run_service(spec, wl, probes: Probes) -> dict:
    batch = _service_batch(int(spec["seed"]))
    clock = SetupClock(probes)
    _use_src()
    from repro.service import Client, start_server_thread
    rec = _recorder(spec, "client")
    clock.mark()                                        # import
    batches = []          # per batch: [(t_submit, job id, result), ...]

    def run_batch(client):
        submitted = [(_now(), client.submit(dict(job))) for job in batch]
        batches.append([(t, job_id, client.result(job_id, timeout=120))
                        for t, job_id in submitted])

    with start_server_thread(port=0, n_workers=1) as handle:
        port = handle.port
        with Client(handle.host, port) as client:
            run_batch(client)
            clock.mark()                 # server + pool start + cold batch
            for _ in range(wl["settle"]):
                run_batch(client)
            first_timed = len(batches)
            ops, block_t0, block_t1 = timed_block(
                lambda: run_batch(client), wl["timed_ops"], probes, rec)
    # the server thread has stopped and the worker is reaped; sampled before
    # the checks, which are neither timed nor measured
    rss_mb = _rss_mb()

    errors = []
    jobs_log = []   # (batch no, job id, app, wait, latency, elapsed, t_submit)
    histories = [res["result"]["history"] if res["state"] == "done" else {}
                 for _t, _id, res in batches[0]]
    digests = [_digest(h) for h in histories]
    for no, results in enumerate(batches):
        for slot, (t_submit, job_id, res) in enumerate(results):
            app = batch[slot]["app"]
            if res["state"] != "done":
                errors.append(f"service: {app} job {job_id} {res['state']}: "
                              f"{res.get('error')}")
            elif _digest(res["result"]["history"]) != digests[slot]:
                errors.append(f"service: {app} job history changed in "
                              f"batch {no}")
            else:
                jobs_log.append((no, job_id, app, res["wait_seconds"],
                                 res["latency_seconds"],
                                 res["result"]["elapsed"], t_submit))
    if spec.get("oracle") and not errors:
        errors += _service_oracle(batch, histories)

    out = {"setup": clock.phases, "ops": ops,
           "digest": _digest({"jobs": digests}),
           "work": wl["timed_ops"] * wl["jobs_per_op"], "errors": errors,
           "rss_mb": rss_mb, "port": port}
    if rec is not None:
        import spans
        lanes = [rec.dump()]
        if rec.worker_path:
            lanes += spans.load_worker_lanes(rec.worker_path)
            if os.path.exists(rec.worker_path):
                os.remove(rec.worker_path)
        out["trace"] = {
            "lanes": lanes, "block": [block_t0, block_t1],
            "op_lanes": ["client"],
            "jobs": [j for j in jobs_log if j[0] >= first_timed],
            "cold_jobs": [j for j in jobs_log if j[0] == 0],
            "cache": batches[-1][-1][2]["result"]["cache"]}
    return out


# -- entry --------------------------------------------------------------------------------

RUNNERS = {"fempic_particles": run_fempic, "fempic_dispatch": run_fempic,
           "cabana_dist_2r": run_cabana_dist, "service_batch": run_service}


def run_round(spec: dict) -> dict:
    probes = Probes()
    probes.warm()
    if spec.get("extras") == "program":
        return run_program_extras(spec, probes)
    if spec.get("extras") == "sim":
        return run_sim_extras(spec, probes)
    wl = WORKLOADS[spec["workload"]]
    out = RUNNERS[spec["workload"]](spec, wl, probes)
    if spec.get("inject_failure"):
        out["errors"].append("injected check failure (harness self-test)")
    import multiprocessing
    left = multiprocessing.active_children()
    if left:
        out["errors"].append(f"{len(left)} child processes still alive")
    return out


if __name__ == "__main__":
    print(json.dumps(run_round(json.loads(sys.argv[1]))))
