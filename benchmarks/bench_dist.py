"""Distributed FemPIC smoke benchmark (the CI ``dist`` gate).

Measures the rank-scaling of the distributed FemPIC driver and checks
that real rank processes reproduce the single-rank reference:

* **speedup** — critical-path busy-seconds (the busiest rank's summed
  loop time) at 4 ranks vs 1 rank, measured over the ``sim`` transport.
  Under ``sim`` the ranks execute sequentially in one process, so each
  rank's busy-seconds is its honest compute cost and the critical path
  is what an N-core machine would pay.  Wall-clock — and per-rank
  busy-seconds under ``proc`` — are meaningless for scaling on a shared
  single-core runner, where rank processes merely time-share the core
  and each rank's timers absorb the other ranks' slices; those numbers
  are recorded as informational only.
* **correctness** — ``proc`` runs at 2 and 4 ranks must reproduce the
  1-rank histories (deterministic rank-ordered reductions make this
  tight) and conserve the particle count exactly.

The workload seeds a uniform plasma (``seed_ppc``) rather than relying
on inlet injection: injected particles pile up on the inlet rank and
turn the smoke problem into a load-imbalance study, which is not what
this gate is for.
"""
from __future__ import annotations


def dist_smoke_payload(ranks: int = 4, ppc: int = 300,
                       steps: int = 5) -> dict:
    import numpy as np

    from repro.apps.fempic import FemPicConfig
    from repro.dist.driver import run_distributed

    cfg = FemPicConfig.smoke().scaled(n_steps=steps, dt=0.1)

    # scaling measurement: sequentialised ranks, honest busy-seconds
    sim1 = run_distributed("fempic", cfg, nranks=1, transport="sim",
                           seed_ppc=ppc)
    simn = run_distributed("fempic", cfg, nranks=ranks, transport="sim",
                           seed_ppc=ppc)

    # correctness measurement: real rank processes
    proc2 = run_distributed("fempic", cfg, nranks=2, transport="proc",
                            seed_ppc=ppc)
    procn = run_distributed("fempic", cfg, nranks=ranks, transport="proc",
                            seed_ppc=ppc)

    def matches(res) -> bool:
        ref = sim1.history
        if res.history.keys() != ref.keys():
            return False
        return all(np.allclose(np.asarray(res.history[k]),
                               np.asarray(ref[k]), rtol=1e-9, atol=1e-18)
                   for k in ref)

    speedup = sim1.critical_path_seconds / simn.critical_path_seconds

    def record(res) -> dict:
        return {
            "critical_path_seconds": res.critical_path_seconds,
            "busy_seconds_per_rank": res.busy_seconds_per_rank(),
            "wall_seconds": res.wall_seconds,
            "msg_count": int(res.stats.msg_count.sum()),
            "msg_bytes": int(res.stats.total_bytes),
            "collectives": int(res.stats.collectives),
        }

    payload = {
        "bench": "fempic_dist_smoke",
        "config": {"app": "fempic", "ranks": ranks, "seed_ppc": ppc,
                   "steps": steps, "dt": 0.1,
                   "backend": cfg.backend},
        "runs": {
            "sim_1rank": record(sim1),
            f"sim_{ranks}rank": record(simn),
            "proc_2rank": record(proc2),
            f"proc_{ranks}rank": record(procn),
        },
        "metrics": {
            "speedup_4rank_vs_1rank": speedup,
            "speedup_at_least_1p5": bool(speedup >= 1.5),
            "proc_2rank_matches_1rank": matches(proc2),
            "proc_4rank_matches_1rank": matches(procn),
            "n_particles": int(sim1.history["n_particles"][-1]),
            "n_particles_conserved": bool(
                sim1.history["n_particles"][-1]
                == simn.history["n_particles"][-1]
                == proc2.history["n_particles"][-1]
                == procn.history["n_particles"][-1]),
        },
        #: metrics check_regression.py gates on (direction-aware).  The
        #: bool gate is the ISSUE's hard >=1.5x floor; the "higher" gate
        #: additionally tracks drift against the committed measurement
        #: (wide tolerance: shared runners are noisy even for busy-time)
        "gates": [
            {"metric": "proc_2rank_matches_1rank", "direction": "bool"},
            {"metric": "proc_4rank_matches_1rank", "direction": "bool"},
            {"metric": "n_particles_conserved", "direction": "bool"},
            {"metric": "speedup_at_least_1p5", "direction": "bool"},
            {"metric": "n_particles", "direction": "equal"},
            {"metric": "speedup_4rank_vs_1rank", "direction": "higher",
             "tolerance": 0.5},
        ],
    }
    return payload


def main(argv=None) -> int:
    try:
        from . import _gate
    except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
        import _gate

    parser = _gate.parser("distributed FemPIC smoke benchmark")
    parser.add_argument("--ranks", type=int, default=4)
    parser.add_argument("--ppc", type=int, default=300)
    parser.add_argument("--steps", type=int, default=5)
    args = _gate.parse_smoke(parser, argv)
    payload = dist_smoke_payload(ranks=args.ranks, ppc=args.ppc,
                                 steps=args.steps)
    return _gate.finish("fempic_dist_smoke", payload, args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
