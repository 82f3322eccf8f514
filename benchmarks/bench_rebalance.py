"""Elastic-runtime smoke benchmark (the CI ``elastic`` gate).

Workload: a skewed-injection FemPIC duct — ions stream in at one inlet
face and fill the duct over the run, so particle load is concentrated
near the inlet and drifts downstream (the imbalance pattern the paper's
static principal-direction partition cannot follow).  Measured:

* **imbalance improvement** — max/mean per-rank busy-seconds of
  ``--rebalance never`` over ``--rebalance auto`` at 4 ranks, over the
  ``sim`` transport.  Under ``sim`` the ranks execute sequentially in
  one process, so busy-seconds are each rank's honest compute cost; on
  a shared single-core runner, per-rank busy-seconds under ``proc``
  time-share the core and absorb scheduler noise, so the proc
  imbalance is recorded as informational only (same reasoning as
  ``bench_dist``'s speedup gate).
* **correctness** — the auto-rebalanced run must reproduce the
  never-migrated run's histories: integer series bit-equal, float
  series to reduction-reassociation tolerance (per-rank sums regroup
  when ownership moves), on both transports.
* **recovery** — a 3-rank proc run with a hard rank kill mid-run must
  restart from the latest snapshot and finish with histories bit-equal
  to the uninterrupted run.
"""
from __future__ import annotations

import sys
import tempfile


def _histories_preserved(base: dict, other: dict, exact: bool) -> bool:
    import numpy as np
    if base.keys() != other.keys():
        return False
    for key in base:
        a, b = np.asarray(base[key]), np.asarray(other[key])
        if a.shape != b.shape:
            return False
        if exact or np.issubdtype(a.dtype, np.integer):
            if not np.array_equal(a, b):
                return False
        elif not np.allclose(a, b, rtol=1e-9, atol=1e-18):
            return False
    return True


def rebalance_smoke_payload(ranks: int = 4, steps: int = 24) -> dict:
    from repro.apps.fempic import FemPicConfig
    from repro.dist.driver import run_distributed

    try:
        from .common import quasineutral
    except ImportError:
        from common import quasineutral

    cfg = FemPicConfig(nx=3, ny=3, nz=32, lz=8.0, dt=0.2, n_steps=steps,
                       plasma_den=4e3, n0=4e3)
    cfg = quasineutral(cfg, 150)

    # imbalance measurement: sequentialised ranks, honest busy-seconds
    never = run_distributed("fempic", cfg, nranks=ranks, transport="sim")
    auto = run_distributed("fempic", cfg, nranks=ranks, transport="sim",
                           rebalance="auto", rebalance_every=2)
    imb_never = never.rank_load_imbalance()
    imb_auto = auto.rank_load_imbalance()
    improvement = imb_never / imb_auto if imb_auto > 0 else 0.0

    # correctness over real rank processes (imbalance informational)
    proc_auto = run_distributed("fempic", cfg, nranks=ranks,
                                transport="proc", rebalance="auto",
                                rebalance_every=2)

    # kill-a-rank recovery: bit-equal resume from the latest snapshot
    rcfg = FemPicConfig.smoke().scaled(n_steps=0, dt=0.2)
    base = run_distributed("fempic", rcfg, nranks=3, transport="proc",
                           n_steps=8)
    with tempfile.TemporaryDirectory() as ckpt:
        rec = run_distributed("fempic", rcfg, nranks=3, transport="proc",
                              n_steps=8, checkpoint_every=2,
                              checkpoint_dir=ckpt, recover=True,
                              kill=(1, 5))

    def record(res) -> dict:
        out = {
            "busy_seconds_per_rank": res.busy_seconds_per_rank(),
            "rank_load_imbalance": res.rank_load_imbalance(),
            "wall_seconds": res.wall_seconds,
        }
        if res.elastic is not None:
            out["elastic"] = res.elastic
        return out

    payload = {
        "bench": "fempic_rebalance_smoke",
        "config": {"app": "fempic", "ranks": ranks, "steps": steps,
                   "nz": 32, "dt": 0.2, "backend": cfg.backend},
        "runs": {
            "sim_never": record(never),
            "sim_auto": record(auto),
            "proc_auto": record(proc_auto),
            "proc_recovered": record(rec),
        },
        "metrics": {
            "imbalance_never": imb_never,
            "imbalance_auto": imb_auto,
            "imbalance_improvement": improvement,
            "improvement_at_least_1p3": bool(improvement >= 1.3),
            "rebalanced": bool(auto.elastic["rebalances"] >= 1),
            "histories_preserved": _histories_preserved(
                never.history, auto.history, exact=False),
            "proc_histories_preserved": _histories_preserved(
                never.history, proc_auto.history, exact=False),
            "recovery_bit_equal": _histories_preserved(
                base.history, rec.history, exact=True),
            "recovery_restarts": rec.restarts,
            "n_particles": int(never.history["n_particles"][-1]),
        },
        #: the bool gates are the ISSUE's hard floors; the "higher" gate
        #: additionally tracks improvement drift against the committed
        #: measurement (wide tolerance: busy-time on shared runners)
        "gates": [
            {"metric": "improvement_at_least_1p3", "direction": "bool"},
            {"metric": "rebalanced", "direction": "bool"},
            {"metric": "histories_preserved", "direction": "bool"},
            {"metric": "proc_histories_preserved", "direction": "bool"},
            {"metric": "recovery_bit_equal", "direction": "bool"},
            {"metric": "recovery_restarts", "direction": "equal"},
            {"metric": "n_particles", "direction": "equal"},
            {"metric": "imbalance_improvement", "direction": "higher",
             "tolerance": 0.5},
        ],
    }
    return payload


def main(argv=None) -> int:
    try:
        from . import _gate
    except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
        import _gate

    parser = _gate.parser("elastic rebalance + recovery smoke benchmark")
    parser.add_argument("--ranks", type=int, default=4)
    parser.add_argument("--steps", type=int, default=24)
    args = _gate.parse_smoke(parser, argv)
    payload = rebalance_smoke_payload(ranks=args.ranks, steps=args.steps)
    return _gate.finish("fempic_rebalance_smoke", payload, args)


if __name__ == "__main__":
    sys.exit(main())
