"""``program="fuse"`` smoke benchmark (the CI ``program`` gate).

What ``fuse`` does is counted, not timed, so every gate is a count or an
equality:

* **bit-equality** — the ``fuse`` run reproduces the ``off`` run
  exactly, on seq and on vec;
* **communication** — on a 2-rank distributed CabanaPIC run the
  coalesced ``push_cells("e", "b")`` must lower the message count to the
  recorded one without growing the bytes moved (same fields, one frame
  per neighbour pair instead of two), while keeping the physics
  bit-equal.

Step seconds on the vec backend (``off`` vs ``fuse``, median of
``repeats`` short windows) and their ratio are in the payload as
information only: a one-rank FemPIC step has no halo push, so the two
arms run the same code.
"""
from __future__ import annotations

import sys
import time


def _timed_steps(sim, warm: int, steps: int, repeats: int) -> float:
    """Median per-step seconds over ``repeats`` timed windows."""
    sim.run(warm)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        sim.run(steps)
        samples.append((time.perf_counter() - t0) / steps)
    samples.sort()
    return samples[len(samples) // 2]


def program_smoke_payload(steps: int = 6, warm: int = 2,
                          repeats: int = 3) -> dict:
    import numpy as np

    from repro.apps.cabana.config import CabanaConfig
    from repro.apps.cabana.distributed import DistributedCabana
    from repro.apps.fempic import FemPicConfig, FemPicSimulation

    def fempic(backend: str, mode: str):
        cfg = FemPicConfig.smoke().scaled(backend=backend, program=mode)
        sim = FemPicSimulation(cfg)
        seconds = _timed_steps(sim, warm, steps, repeats)
        return sim, seconds

    def bit_equal(fused, eager) -> bool:
        return (all(np.array_equal(getattr(fused, a).data,
                                   getattr(eager, a).data)
                    for a in ("phi", "ncd", "nw", "ef"))
                and fused.history["field_energy"]
                == eager.history["field_energy"])

    # -- step time (information) + bit-equality on vec -------------------------
    vec_off, t_off = fempic("vec", "off")
    vec_fuse, t_fuse = fempic("vec", "fuse")
    vec_bit_equal = bit_equal(vec_fuse, vec_off)

    # -- bit-equality on seq (short run: no timing, just state) ----------------
    def fempic_seq(mode: str):
        cfg = FemPicConfig.smoke().scaled(backend="seq", n_steps=4,
                                          program=mode)
        sim = FemPicSimulation(cfg)
        sim.run()
        return sim

    seq_bit_equal = bit_equal(fempic_seq("fuse"), fempic_seq("off"))

    # -- distributed: coalesced halo pushes ------------------------------------
    def dist_cabana(mode: str):
        cfg = CabanaConfig(nx=4, ny=4, nz=8, ppc=8, n_steps=3,
                           backend="vec", program=mode)
        sim = DistributedCabana(cfg, nranks=2)
        sim.run()
        return sim

    d_off, d_fuse = dist_cabana("off"), dist_cabana("fuse")
    msg_count_off = int(d_off.comm.stats.msg_count.sum())
    msg_count_fuse = int(d_fuse.comm.stats.msg_count.sum())
    msg_bytes_off = int(d_off.comm.stats.msg_bytes.sum())
    msg_bytes_fuse = int(d_fuse.comm.stats.msg_bytes.sum())

    payload = {
        "bench": "program_smoke",
        "config": {"app": "fempic", "profile": "smoke", "steps": steps,
                   "warm": warm, "repeats": repeats,
                   "dist": {"app": "cabana", "ranks": 2, "steps": 3}},
        "seconds": {"step_unfused": t_off, "step_fused": t_fuse},
        "metrics": {
            "step_ratio_fused": t_off / t_fuse,
            "seq_bit_equal": bool(seq_bit_equal),
            "vec_bit_equal": bool(vec_bit_equal),
            "dist_msg_count_unfused": msg_count_off,
            "dist_msg_count_fused": msg_count_fuse,
            "dist_msg_count_strictly_lower":
                bool(msg_count_fuse < msg_count_off),
            "dist_msg_bytes_unfused": msg_bytes_off,
            "dist_msg_bytes_fused": msg_bytes_fuse,
            "dist_bit_equal": bool(
                d_fuse.history["e_energy"] == d_off.history["e_energy"]),
        },
        #: check_regression.py gates.  max_value pins the coalesced bytes
        #: to the eager run's measurement (coalescing must never pay for
        #: fewer messages with more bytes); the counts are deterministic
        #: for the fixed config, so they gate exactly.
        "gates": [
            {"metric": "seq_bit_equal", "direction": "bool"},
            {"metric": "vec_bit_equal", "direction": "bool"},
            {"metric": "dist_bit_equal", "direction": "bool"},
            {"metric": "dist_msg_count_strictly_lower",
             "direction": "bool"},
            {"direction": "max_value",
             "path": "metrics.dist_msg_bytes_fused",
             "max": msg_bytes_off},
            {"metric": "dist_msg_count_fused", "direction": "equal"},
        ],
    }
    return payload


def main(argv=None) -> int:
    try:
        from . import _gate
    except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
        import _gate

    parser = _gate.parser("program=\"fuse\" smoke benchmark")
    parser.add_argument("--steps", type=int, default=6)
    parser.add_argument("--warm", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    payload = program_smoke_payload(steps=args.steps, warm=args.warm,
                                    repeats=args.repeats)
    if not args.json:
        m = payload["metrics"]
        print(f"step: {payload['seconds']['step_unfused'] * 1e3:.2f} ms "
              f"off -> {payload['seconds']['step_fused'] * 1e3:.2f} ms "
              f"fuse ({m['step_ratio_fused']:.2f}x, information "
              "only)")
        print(f"seq bit-equal: {m['seq_bit_equal']}, "
              f"vec bit-equal: {m['vec_bit_equal']}")
        print(f"dist: {m['dist_msg_count_unfused']} -> "
              f"{m['dist_msg_count_fused']} msgs, "
              f"{m['dist_msg_bytes_unfused']} -> "
              f"{m['dist_msg_bytes_fused']} B, "
              f"bit-equal: {m['dist_bit_equal']}")
    return _gate.finish("program_smoke", payload, args)


if __name__ == "__main__":
    sys.exit(main())
