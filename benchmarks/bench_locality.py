"""Fused move+deposit regression gate (``BENCH_locality.json``).

Fusing the FEM-PIC charge deposit into the particle move must reproduce
the unfused physics and must not regress the step time.  Both arms run
on ``vec``'s **NumPy target** (``native.CC = None``), the tier the
committed baseline was recorded on.

Script mode (what CI runs)::

    python benchmarks/bench_locality.py --out /tmp/locality.json
    python benchmarks/check_regression.py BENCH_locality.json \
        /tmp/locality.json --tolerance 0.25
"""
import time

import numpy as np

try:
    from .common import write_json
except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
    from common import write_json

FEMPIC_STEPS = 6
FEMPIC_PPC = 150


def timed_fempic(fused: bool, steps: int = FEMPIC_STEPS):
    from repro.apps.fempic import FemPicConfig, FemPicSimulation
    cfg = FemPicConfig(nx=2, ny=2, nz=6, n_steps=steps, dt=0.3,
                       plasma_den=2e3, n0=2e3, backend="vec",
                       move_strategy="dh", fuse_move=fused)
    cell_volume = (cfg.lx * cfg.ly * cfg.lz) / cfg.n_cells
    cfg = cfg.scaled(spwt=cfg.n0 * cell_volume / FEMPIC_PPC)
    sim = FemPicSimulation(cfg)
    sim.seed_uniform_plasma(FEMPIC_PPC)
    t0 = time.perf_counter()
    sim.run()
    return time.perf_counter() - t0, sim


def locality_payload() -> dict:
    from repro.translator import native
    native.CC = None
    t_plain, plain = timed_fempic(fused=False)
    t_fused, fused = timed_fempic(fused=True)
    fused_ok = plain.parts.size == fused.parts.size and all(
        np.allclose(getattr(fused, a).data, getattr(plain, a).data,
                    rtol=1e-9, atol=1e-18)
        for a in ("phi", "ncd", "nw", "ef", "pos", "vel", "lc"))

    return {
        "bench": "locality",
        "config": {"fempic_steps": FEMPIC_STEPS, "fempic_ppc": FEMPIC_PPC},
        "seconds": {
            "fempic_step_unfused": t_plain,
            "fempic_step_fused": t_fused,
        },
        "metrics": {
            "allclose_fused_vs_unfused": fused_ok,
            "fused_move_step_speedup": t_plain / t_fused,
            "n_particles_final": int(fused.parts.size),
        },
        #: metrics check_regression.py gates on (direction-aware)
        "gates": [
            {"metric": "allclose_fused_vs_unfused", "direction": "bool"},
            {"metric": "fused_move_step_speedup", "direction": "higher"},
        ],
    }


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        description="fused move+deposit smoke benchmark (JSON payload)")
    parser.add_argument("--out", default=None,
                        help="write payload to this path "
                             "(default results/<bench>.json)")
    args = parser.parse_args(argv)
    payload = locality_payload()
    path = write_json("locality", payload, out=args.out)
    m = payload["metrics"]
    print(f"wrote {path}")
    print(f"  fused == unfused physics: {m['allclose_fused_vs_unfused']}")
    print(f"  fused step speedup: {m['fused_move_step_speedup']:.2f}x")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
