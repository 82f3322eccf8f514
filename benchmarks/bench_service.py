"""PIC-as-a-service smoke benchmark (the CI ``service`` gate).

Drives a real :class:`repro.service.ServiceServer` (asyncio server +
warm worker pool) through its TCP client and measures the service-level
properties the ISSUE gates on:

* **warm-pool amortisation** — median submit-to-done latency of a tiny
  advection job on a *cold* service (fresh 1-worker pool per job, so
  every run pays worker spawn + kernel translation + mesh construction)
  versus a *warm* shared pool (persistent workers whose object cache
  and translated kernels are hot).  Gate: ``min_ratio`` of
  cold/warm medians >= 1.5.
* **sustained throughput** — a mixed-tenant batch of tiny jobs plus one
  long FemPIC job on a shared pool; records jobs/sec and p99
  submit-to-done latency (queueing included — the honest service SLO).
  Gate: ``max_value`` ceiling on p99, set to 2x the committed
  measurement so runner noise passes but an architectural regression
  (e.g. losing pipelining and serialising the pool) fails.
* **mid-traffic recovery** — a FemPIC job with an injected worker death
  submitted alongside live tiny traffic must be rescued from its last
  streamed checkpoint and finish with a history bit-equal to the
  uninterrupted run.  Bool gates: recovered, bit-equal.
* **warm reuse determinism** — resubmitting the same job to the warm
  pool reproduces the first history bit-for-bit, and a FemPIC job run
  warm on every worker (its field solver from the object cache)
  reproduces its in-process cold run.
* **held-sim reuse** — a FemPIC job placed on a worker that ran the
  same spec before restores into the simulation that worker held (its
  held-sim hit count moves) and still reproduces the cold run.
* **staged-job rescue** — a lone worker dies mid-job while it holds the
  next job staged; both are requeued onto its replacement and each
  ends bit-equal to its in-process oracle.
"""
from __future__ import annotations

import math
import statistics
import sys
import time

TINY = {"app": "advec",
        "params": {"nx": 6, "ny": 6, "ppc": 2, "n_steps": 10}}
LONG_FEMPIC = {"app": "fempic",
               "params": {"nx": 2, "ny": 2, "nz": 6,
                          "plasma_den": 2000.0, "n0": 2000.0,
                          "n_steps": 40},
               "priority": 4, "tenant": "long"}
#: resubmitted once per worker and once more, so at least one worker
#: runs it warm: its field solver then comes from the object cache
REUSE_FEMPIC = {"app": "fempic",
                "params": {"nx": 2, "ny": 2, "nz": 6,
                           "plasma_den": 2000.0, "n0": 2000.0,
                           "n_steps": 4}}
RECOVERY_FEMPIC = {"app": "fempic",
                   "params": {"nx": 2, "ny": 2, "nz": 6,
                              "plasma_den": 2000.0, "n0": 2000.0,
                              "n_steps": 12},
                   "checkpoint_every": 3, "tenant": "faulty"}


def _p99(latencies: list) -> float:
    ordered = sorted(latencies)
    index = max(0, math.ceil(0.99 * len(ordered)) - 1)
    return float(ordered[index])


def _latency(result: dict) -> float:
    return float(result["latency_seconds"])


def _cold_history(payload: dict) -> dict:
    """``payload`` built and run in this process, object cache off, in
    the service's wire format."""
    import json

    from repro.service import jobs
    from repro.service.server import _json_default
    spec = jobs.validate_job(dict(payload))
    sim, history = jobs.build_sim(spec)
    jobs.run_steps(spec, sim, history, 0, spec.n_steps)
    return json.loads(json.dumps(history, default=_json_default))


def _repeats_hit_held_sims(results: list, oracle: dict) -> bool:
    """``results`` of one spec submitted one after another: each run on
    a worker that already ran the spec must report a held-sim hit and
    the cold history (more runs than workers make at least one)."""
    last = {}            # worker -> that worker's held-sim hits so far
    repeats = 0
    for res in results:
        if res["state"] != "done" or res["result"]["history"] != oracle:
            return False
        worker = res["placements"][-1]
        hits = res["result"]["cache"]["sims"]["hits"]
        if worker in last:
            repeats += 1
            if hits <= last[worker]:
                return False
        last[worker] = hits
    return repeats > 0


def _staged_kill_rescues_both() -> bool:
    """One worker runs a FemPIC job that dies at step 8 while a tiny job
    is staged behind it: both must end ``done`` and bit-equal."""
    from repro.service import Client, start_server_thread

    with start_server_thread(port=0, n_workers=1) as handle:
        with Client(handle.host, handle.port) as client:
            deadline = time.monotonic() + 60
            while client.stats()["pool"]["states"].get("idle") != 1:
                if time.monotonic() > deadline:
                    return False
                time.sleep(0.01)
            doomed = client.submit(dict(RECOVERY_FEMPIC, die_at_step=8))
            staged = client.submit(dict(TINY))
            was_staged = client.stats()["pool"]["staged"] == 1
            results = [client.result(j, timeout=300)
                       for j in (doomed, staged)]
    return bool(was_staged and all(
        res["state"] == "done" and res["rescues"] >= 1
        and res["result"]["history"] == _cold_history(payload)
        for res, payload in zip(results, (RECOVERY_FEMPIC, TINY))))


def _cold_latencies(n_jobs: int) -> list:
    """Fresh 1-worker service per job: every run pays spawn +
    translation + construction, exactly what a no-service harness
    pays per submission."""
    from repro.service import Client, start_server_thread

    out = []
    for _ in range(n_jobs):
        with start_server_thread(port=0, n_workers=1) as handle:
            with Client(handle.host, handle.port) as client:
                res = client.result(client.submit(dict(TINY)),
                                    timeout=300)
                assert res["state"] == "done", res
                out.append(_latency(res))
    return out


def service_bench_payload(tiny_jobs: int = 20, cold_jobs: int = 4,
                          warm_jobs: int = 8,
                          pool_ranks: int = 4) -> dict:
    from repro.service import Client, start_server_thread

    cold = _cold_latencies(cold_jobs)
    fempic_oracle = _cold_history(REUSE_FEMPIC)

    with start_server_thread(port=0, n_workers=pool_ranks) as handle:
        with Client(handle.host, handle.port) as client:
            # heat every worker (parallel warmup batch, one per rank)
            heat = [client.submit(dict(TINY, tenant="warmup"))
                    for _ in range(pool_ranks)]
            first_warm = [client.result(j, timeout=300) for j in heat]
            assert all(r["state"] == "done" for r in first_warm)

            # warm reuse determinism: bit-equal resubmission
            again = client.result(
                client.submit(dict(TINY, tenant="warmup")),
                timeout=300)
            fempic = [client.result(client.submit(dict(REUSE_FEMPIC)),
                                    timeout=300)
                      for _ in range(pool_ranks + 1)]
            warm_reuse_bit_equal = bool(
                again["result"]["history"]
                == first_warm[0]["result"]["history"]
                and all(r["state"] == "done"
                        and r["result"]["history"] == fempic_oracle
                        for r in fempic))
            repeat_job_reuses_sim = _repeats_hit_held_sims(fempic,
                                                           fempic_oracle)

            # warm latency: sequential, so each sample is pure
            # service+step time with zero queueing
            warm = []
            for _ in range(warm_jobs):
                res = client.result(client.submit(dict(TINY)),
                                    timeout=300)
                assert res["state"] == "done", res
                warm.append(_latency(res))

            # sustained mixed-tenant batch: tiny jobs + one long
            # FemPIC competing on the shared pool
            batch_t0 = time.monotonic()
            batch = [client.submit(dict(LONG_FEMPIC))]
            batch += [client.submit(dict(TINY, tenant=f"t{i % 3}",
                                         priority=3 + (i % 5)))
                      for i in range(tiny_jobs)]
            results = {j: client.result(j, timeout=600)
                       for j in batch}
            batch_wall = time.monotonic() - batch_t0
            assert all(r["state"] == "done"
                       for r in results.values()), results
            batch_latencies = [_latency(r) for r in results.values()]
            long_job_done = results[batch[0]]["state"] == "done"

            # mid-traffic recovery: the doomed FemPIC rides alongside
            # live tiny traffic; the rescue must land amid load
            baseline = client.result(
                client.submit(dict(RECOVERY_FEMPIC)), timeout=300)
            doomed = client.submit(dict(RECOVERY_FEMPIC,
                                        die_at_step=8))
            traffic = [client.submit(dict(TINY, tenant="bg"))
                       for _ in range(4)]
            recovered = client.result(doomed, timeout=300)
            for job in traffic:
                assert client.result(job,
                                     timeout=300)["state"] == "done"
            stats = client.stats()

    staged_kill_rescues_both = _staged_kill_rescues_both()
    recovery_bit_equal = bool(
        recovered["state"] == "done"
        and recovered["result"]["history"]
        == baseline["result"]["history"])

    cold_median = float(statistics.median(cold))
    warm_median = float(statistics.median(warm))
    ratio = cold_median / warm_median if warm_median > 0 else 0.0
    p99 = _p99(batch_latencies)
    jobs_per_sec = (len(batch) / batch_wall if batch_wall > 0
                    else 0.0)

    payload = {
        "bench": "pic_service_smoke",
        "config": {"pool_ranks": pool_ranks, "tiny_jobs": tiny_jobs,
                   "cold_jobs": cold_jobs, "warm_jobs": warm_jobs,
                   "tiny": TINY, "long": LONG_FEMPIC},
        "latencies": {"cold": cold, "warm": warm,
                      "batch": sorted(batch_latencies)},
        "metrics": {
            "cold_median_seconds": cold_median,
            "warm_median_seconds": warm_median,
            "warm_over_cold_ratio": ratio,
            "warm_at_least_1p5x": bool(ratio >= 1.5),
            "batch_jobs": len(batch),
            "batch_wall_seconds": batch_wall,
            "jobs_per_sec": jobs_per_sec,
            "p99_latency_seconds": p99,
            "long_job_done": bool(long_job_done),
            "warm_reuse_bit_equal": warm_reuse_bit_equal,
            "repeat_job_reuses_sim": repeat_job_reuses_sim,
            "recovered_after_kill": bool(recovered["rescues"] >= 1),
            "recovery_bit_equal": recovery_bit_equal,
            "staged_kill_rescues_both": staged_kill_rescues_both,
            "pool_respawns": int(stats["pool"]["respawns"]),
            "jobs_failed": int(stats["counters"]["failed"]),
        },
        #: bools are the ISSUE's hard floors; the min_ratio gate is the
        #: 1.5x warm-pool amortisation floor; the max_value gate is an
        #: absolute p99 SLO ceiling (2x the committed measurement, with
        #: per-gate tolerance on top for shared-runner noise)
        "gates": [
            {"metric": "warm_at_least_1p5x", "direction": "bool"},
            {"metric": "long_job_done", "direction": "bool"},
            {"metric": "warm_reuse_bit_equal", "direction": "bool"},
            {"metric": "repeat_job_reuses_sim", "direction": "bool"},
            {"metric": "recovered_after_kill", "direction": "bool"},
            {"metric": "recovery_bit_equal", "direction": "bool"},
            {"metric": "staged_kill_rescues_both", "direction": "bool"},
            {"metric": "jobs_failed", "direction": "equal"},
            {"metric": "warm_over_cold", "direction": "min_ratio",
             "numerator": "metrics.cold_median_seconds",
             "denominator": "metrics.warm_median_seconds",
             "min": 1.5},
            {"metric": "p99_latency", "direction": "max_value",
             "path": "metrics.p99_latency_seconds",
             "max": round(max(2.0, 5.0 * p99), 3),
             "tolerance": 1.0},
        ],
    }
    return payload


def main(argv=None) -> int:
    try:
        from . import _gate
    except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
        import _gate

    parser = _gate.parser("multi-tenant PIC service smoke benchmark")
    parser.add_argument("--tiny-jobs", type=int, default=20)
    parser.add_argument("--cold-jobs", type=int, default=4)
    parser.add_argument("--warm-jobs", type=int, default=8)
    parser.add_argument("--pool-ranks", type=int, default=4)
    args = _gate.parse_smoke(parser, argv)
    payload = service_bench_payload(tiny_jobs=args.tiny_jobs,
                                    cold_jobs=args.cold_jobs,
                                    warm_jobs=args.warm_jobs,
                                    pool_ranks=args.pool_ranks)
    return _gate.finish("pic_service_smoke", payload, args)


if __name__ == "__main__":
    sys.exit(main())
