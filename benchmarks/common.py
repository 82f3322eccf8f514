"""Shared machinery for the figure/table reproduction benchmarks.

Each benchmark (one per paper table/figure — see DESIGN.md §4):

1. **runs real code** at laptop scale (timed by pytest-benchmark), which
   fills the per-kernel counters (n, FLOPs, bytes, hops, collisions);
2. **evaluates the machine model** (repro.perf) on those counters for the
   paper's devices — the same counter→device methodology the paper uses
   for its MI250X numbers;
3. prints the paper-shaped table/series and writes it to
   ``results/<figure>.txt``;
4. asserts the paper's qualitative findings (who wins, what dominates,
   where the crossover sits).
"""
from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Dict, Sequence

from repro.perf import MACHINES, kernel_time
from repro.perf.timers import LoopStats

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: device → (race-handling strategy, uses direct hop) as benchmarked in
#: the paper's Figure 9 (CPUs: flat MPI + scatter arrays, DH for FEM-PIC;
#: NVIDIA: atomics; AMD: unsafe atomics)
PAPER_DEVICES = {
    "xeon_8268": "scatter_arrays",
    "epyc_7742": "scatter_arrays",
    "v100": "atomics",
    "h100": "atomics",
    "mi210": "unsafe_atomics",
    "mi250x_gcd": "unsafe_atomics",
}


def quasineutral(cfg, ppc: int):
    """Set the macro-particle weight so seeding ``ppc`` particles per cell
    reproduces the Boltzmann electron reference density — keeps the
    nonlinear Poisson solve in a physical regime."""
    cell_volume = (cfg.lx * cfg.ly * cfg.lz) / cfg.n_cells
    return cfg.scaled(spwt=cfg.n0 * cell_volume / ppc)


def write_result(name: str, text: str) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(text)
    return path


def scale_stats(stats: LoopStats, factor: float) -> LoopStats:
    """Linearly extrapolate measured counters to a larger problem (the
    per-element costs are size-independent; collision depth tracks
    particles-per-cell which weak scaling keeps fixed)."""
    out = dataclasses.replace(
        stats,
        n_total=int(stats.n_total * factor),
        flops=stats.flops * factor,
        nbytes=stats.nbytes * factor,
        hops=int(stats.hops * factor),
        extras=dict(stats.extras),
    )
    return out


def _factor_of(name: str, scale) -> float:
    if isinstance(scale, dict):
        return float(scale.get(name, scale.get("*", 1.0)))
    return float(scale)


def device_breakdown(loops: Sequence[LoopStats], device: str,
                     strategy: str | None = None,
                     scale=1.0) -> Dict[str, float]:
    """Modelled seconds per kernel for one device.

    ``scale`` is either one factor or a per-kernel-name dict (particle
    loops scale with particle count, mesh loops with cell/node count);
    key ``"*"`` sets the default.
    """
    strat = strategy or PAPER_DEVICES[device]
    machine = MACHINES[device]
    out = {}
    for st in loops:
        f = _factor_of(st.name, scale)
        st2 = scale_stats(st, f) if f != 1.0 else st
        out[st.name] = kernel_time(st2, machine, strategy=strat)
    return out


def breakdown_table(title: str, loops: Sequence[LoopStats],
                    devices: Sequence[str], scale=1.0) -> str:
    """Figure 9-style table: kernels × devices, modelled seconds."""
    names = [st.name for st in sorted(loops, key=lambda s: -s.seconds)]
    rows = {d: device_breakdown(loops, d, scale=scale) for d in devices}
    width = max(len(n) for n in names) + 2
    head = f"{'kernel':<{width}}" + "".join(f"{d:>14}" for d in devices)
    lines = [title, head]
    for n in names:
        lines.append(f"{n:<{width}}"
                     + "".join(f"{rows[d][n]:>14.4f}" for d in devices))
    lines.append(f"{'TOTAL':<{width}}"
                 + "".join(f"{sum(rows[d].values()):>14.4f}"
                           for d in devices))
    return "\n".join(lines)


def dominant_kernel(loops: Sequence[LoopStats], device: str,
                    scale=1.0) -> str:
    bd = device_breakdown(loops, device, scale=scale)
    return max(bd, key=bd.get)


def total_time(loops: Sequence[LoopStats], device: str,
               strategy: str | None = None, scale=1.0) -> float:
    return sum(device_breakdown(loops, device, strategy=strategy,
                                scale=scale).values())


# -- machine-readable smoke benchmarking (CI regression gating) ---------------


def write_json(name: str, payload: dict, out: str | None = None) -> Path:
    """Write a benchmark payload as JSON (to ``results/`` by default)."""
    if out is not None:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
    else:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def fempic_smoke_payload(ppc: int = 150, steps: int = 2) -> dict:
    """Run the FemPIC smoke problem under seq and vec and return a
    machine-readable comparison.

    The sequential elemental backend is the semantic oracle and the
    wall-clock reference.  The correctness flag compares vec's final
    fields and particle state against seq with ``np.allclose``.
    """
    import numpy as np

    from repro.apps.fempic import FemPicConfig, FemPicSimulation
    from repro.core.loops import active_loop_hooks

    hooks_before = active_loop_hooks()

    def run(backend: str, options: dict):
        cfg = FemPicConfig(nx=2, ny=2, nz=6, n_steps=steps, dt=0.3,
                           plasma_den=2e3, n0=2e3, backend=backend,
                           backend_options=options, move_strategy="dh")
        cfg = quasineutral(cfg, ppc)
        sim = FemPicSimulation(cfg)
        sim.seed_uniform_plasma(ppc)
        t0 = time.perf_counter()
        sim.run()
        seconds = time.perf_counter() - t0
        return sim, seconds

    seq, t_seq = run("seq", {})
    vec, t_vec = run("vec", {})

    # the sanitizer and its loop hooks are strictly opt-in: the gated
    # default path must run with zero instrumentation
    uninstrumented = (hooks_before == 0 and active_loop_hooks() == 0
                      and all(s.ctx.backend.name != "sanitizer"
                              for s in (seq, vec)))

    def matches(sim) -> bool:
        return all(
            np.allclose(getattr(sim, a).data, getattr(seq, a).data,
                        rtol=1e-9, atol=1e-18)
            for a in ("phi", "ncd", "ef", "pos", "vel", "lc")
        ) and sim.parts.size == seq.parts.size

    payload = {
        "bench": "fempic_smoke",
        "config": {"nx": 2, "ny": 2, "nz": 6, "ppc": ppc, "steps": steps,
                   "move_strategy": "dh"},
        "backends": {
            "seq": {"seconds": t_seq},
            "vec": {"seconds": t_vec},
        },
        "metrics": {
            "speedup_vec_vs_seq": t_seq / t_vec,
            "allclose_vec_vs_seq": matches(vec),
            "default_path_uninstrumented": uninstrumented,
            "n_particles": int(seq.parts.size),
            "field_energy_final":
                float(seq.history["field_energy"][-1]),
        },
        #: metrics check_regression.py gates on (direction-aware)
        "gates": [
            {"metric": "allclose_vec_vs_seq", "direction": "bool"},
            {"metric": "default_path_uninstrumented", "direction": "bool"},
            {"metric": "n_particles", "direction": "equal"},
        ],
    }
    return payload
