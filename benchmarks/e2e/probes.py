"""Mirror probes: benchmark-owned reference work that drifts with the host.

On this shared 2-vCPU host the raw wall time of identical code drifts by
17-40 % between back-to-back runs, in spells that last from milliseconds
to minutes.  Work of the same *kind* drifts by the same factor, so every
timing in this benchmark is reported as ``wall / probe`` where the probe
burst ran immediately before and after the timed op, times the frozen
constant :data:`PROBE_REF_MS` (a unit conversion back to milliseconds of
the reference host, never re-estimated at run time).

Three probes mirror the three regimes the workloads sit in; none imports
``repro``:

``pic``       plain-NumPy mini PIC step (gather, push, wrap, cell
              recompute, ``np.add.at`` + ``np.bincount`` deposit) — the
              memory/fancy-indexing regime of a particle-bound step;
``dispatch``  a few hundred tiny NumPy calls glued by dict/tuple Python —
              the interpreter/dispatch regime of a 5 ms step;
``interp``    ``ast.parse`` + ``ast.walk`` + ``compile`` of a fixed source —
              the import/translation regime of a cold set-up.

``python3 benchmarks/e2e/probes.py --probe-check --workload W`` reproduces
the evidence for the probe each workload names (see README.md).
"""
from __future__ import annotations

import ast
import statistics
import time

import numpy as np

__all__ = ["Probes", "PROBE_REF_MS", "PROBE_NAMES", "OP_PROBES",
           "normalised_ms", "percentile"]

PROBE_NAMES = ("pic", "dispatch", "interp")
#: burst around every timed op (``interp`` mirrors set-up work only, and it
#: allocates, so it stays out of the timed block)
OP_PROBES = ("pic", "dispatch")

#: median burst time of each probe on the reference host (this sandbox,
#: quiet spell, 2026-09-29).  Frozen: changing a value rescales every
#: reported time and so invalidates comparison with earlier runs.
PROBE_REF_MS = {"pic": 3.30, "dispatch": 2.40, "interp": 2.50}

_INTERP_SOURCE = '''
def move_kernel(pos, vel, lc, xform, dt, qm):
    for d in range(3):
        vel[d] = vel[d] + qm * dt * lc[d]
        pos[d] = pos[d] + dt * vel[d]
    coeff = [0.0, 0.0, 0.0, 0.0]
    for i in range(4):
        coeff[i] = xform[3 * i] * pos[0] + xform[3 * i + 1] * pos[1]
        if coeff[i] < 0.0 or coeff[i] > 1.0:
            return i
    total = sum(coeff)
    if abs(total - 1.0) > 1e-12:
        lc[0] = coeff[0] / total
    else:
        lc[0] = coeff[0]
    return -1

class Plan:
    def __init__(self, rows, key):
        self.rows = rows
        self.key = key
    def lookup(self, cache):
        try:
            return cache[self.key]
        except KeyError:
            cache[self.key] = value = [r * 2 for r in self.rows]
            return value
'''


class Probes:
    """The three probes with their fixed, deterministic inputs.

    The NumPy probes write into preallocated buffers: a probe that
    allocates inherits the state of glibc's allocator (trim and mmap
    thresholds move with the program's own allocation history), which
    would couple the probe's speed to the code under test.
    """

    N_PARTICLES = 40_000
    N_CELLS = 1024

    def __init__(self):
        rng = np.random.default_rng(20240929)
        n, nc = self.N_PARTICLES, self.N_CELLS
        self.x = rng.random(n) * nc
        self.v = rng.normal(0.0, 0.3, n)
        self.cell = self.x.astype(np.int64)
        self.field = rng.normal(0.0, 1.0, (nc, 3))
        self.e = np.empty((n, 3))
        self.tmp = np.empty(n)
        self.rho = np.zeros(nc)
        self.small = [rng.random(64) for _ in range(8)]
        self.c = np.empty(64)
        self.mask = np.empty(64, dtype=bool)
        self._bursts = {"pic": self.pic, "dispatch": self.dispatch,
                        "interp": self.interp}

    def pic(self) -> None:
        x, v, e, tmp, cell = self.x, self.v, self.e, self.tmp, self.cell
        for _ in range(3):
            np.take(self.field, cell, axis=0, out=e)    # fancy gather
            np.multiply(e[:, 1], v, out=tmp)
            tmp *= -0.5
            tmp += e[:, 0]
            tmp *= 0.01
            v += tmp                                    # push
            np.clip(v, -2.0, 2.0, out=v)
            np.multiply(v, 0.05, out=tmp)
            x += tmp
            np.mod(x, self.N_CELLS, out=x)              # periodic wrap
            np.floor(x, out=tmp)
            cell[:] = tmp                               # cell recompute
            np.minimum(cell, self.N_CELLS - 1, out=cell)
            self.rho[:] = 0.0
            np.add.at(self.rho, cell, 1.0)              # atomics-style
            self.rho += np.bincount(cell, weights=v,
                                    minlength=self.N_CELLS)

    def dispatch(self) -> None:
        small, c, mask = self.small, self.c, self.mask
        table = {"rows": 64, "arity": 4}
        b = small[7]
        acc = 0.0
        for rep in range(120):
            for key in range(7):
                a = small[key]
                shape = (table["rows"], rep & 3, key)
                np.multiply(a, b, out=c)
                np.add(c, a, out=c)
                np.greater(c, 1.5, out=mask)
                np.copyto(c, a, where=mask)
                acc += c[shape[1]] + (shape[0] >> 6)
                np.multiply(c, 0.999, out=a)
        self.acc = acc

    def interp(self) -> None:
        for _ in range(4):
            tree = ast.parse(_INTERP_SOURCE)
            self.nodes = sum(1 for _ in ast.walk(tree))
            compile(tree, "<probe>", "exec")

    def warm(self) -> None:
        for fn in self._bursts.values():
            for _ in range(3):
                fn()

    def burst(self, names, repeat: int = 1) -> dict:
        """Run ``repeat`` bursts of every named probe, interleaved; median
        seconds of one burst per probe."""
        times = {name: [] for name in names}
        for _ in range(repeat):
            for name in names:
                fn = self._bursts[name]
                t0 = time.perf_counter()
                fn()
                times[name].append(time.perf_counter() - t0)
        return {name: statistics.median(ts) for name, ts in times.items()}


def normalised_ms(wall_s: float, before: dict, after: dict,
                  weights: dict) -> float:
    """``wall x prod_k (ref_k / probe_k) ** w_k`` in reference ms, with
    probe_k = mean(before, after).  Weights that sum to 1 divide by the
    weighted geometric mean of the probes; a sum above 1 says the op slows
    down more than the probes do when the host does (``cabana_dist_2r``)."""
    ms = wall_s * 1e3
    for name, weight in weights.items():
        probe_ms = 0.5 * (before[name] + after[name]) * 1e3
        ms *= (PROBE_REF_MS[name] / probe_ms) ** weight
    return ms


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# -- evidence -------------------------------------------------------------------


def _probe_check(workload: str, runs: int, seed: int) -> int:
    """Print burst statistics and, for one workload, how much the per-round
    ``op_ms`` ranges when normalised by each probe (matched vs not)."""
    from run import ROUND_TIMEOUT, WORKLOADS, run_child

    probes = Probes()
    probes.warm()
    print(f"{'probe':<10}{'median ms':>11}{'p90/p10':>9}{'ref ms':>8}")
    for name in PROBE_NAMES:
        ts = [probes.burst((name,))[name] * 1e3 for _ in range(200)]
        print(f"{name:<10}{statistics.median(ts):>11.3f}"
              f"{percentile(ts, 0.9) / percentile(ts, 0.1):>9.2f}"
              f"{PROBE_REF_MS[name]:>8.2f}")
    named = WORKLOADS[workload]["probes"]
    combos = [{name: 1.0} for name in OP_PROBES]
    if named not in combos:
        combos.append(named)
    label = lambda combo: " ".join(  # noqa: E731
        f"{name}^{weight:.2g}" for name, weight in combo.items())
    per_probe = {label(combo): [] for combo in combos}
    raw = []
    for run in range(runs):
        rnd = run_child({"workload": workload, "seed": seed + run},
                        ROUND_TIMEOUT)
        if rnd["errors"]:
            print("\n".join(rnd["errors"]))
            return 1
        raw.append(statistics.median(op["wall"] for op in rnd["ops"]) * 1e3)
        for combo in combos:
            per_probe[label(combo)].append(statistics.median(
                normalised_ms(op["wall"], op["before"], op["after"], combo)
                for op in rnd["ops"]))
    spread = lambda v: (max(v) - min(v)) / statistics.median(v)  # noqa: E731
    print(f"\n{workload}: {runs} fresh rounds, per-round median op")
    print(f"  raw wall ms          range {spread(raw):6.1%}  "
          f"median {statistics.median(raw):.2f}")
    for combo in combos:
        name = label(combo)
        mark = " <- named" if combo == named else ""
        print(f"  / {name:<22} range {spread(per_probe[name]):6.1%}"
              f"  median {statistics.median(per_probe[name]):.2f}{mark}")
    return 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe-check", action="store_true", required=True)
    parser.add_argument("--workload", default="fempic_dispatch")
    parser.add_argument("--runs", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    raise SystemExit(_probe_check(args.workload, args.runs, args.seed))
