"""Ablation (paper §3.3 / §4.1.1): race-handling strategy on the
double-indirect DepositCharge.

Paper findings: (i) safe atomics on AMD GPUs are >200× slower than unsafe
atomics or segmented reductions at ~1500 particles per cell; (ii) unsafe
atomics are marginally better than segmented reductions; (iii) NVIDIA
hardware atomics behave well; (iv) CPUs prefer scatter arrays.

This bench runs the *real* strategies (all producing identical sums) on a
real deposit workload — timed — and prices the measured collision profile
on each device.  The workload's deposit runs on ``vec``'s **NumPy
target** (``native.CC = None``): the collision profile priced below is
that target's per-pass figure, and the strategies timed against each
other are its mechanisms.
"""
import numpy as np
import pytest

from repro.apps.fempic import FemPicConfig, FemPicSimulation
from repro.core.api import push_context
from repro.backends.reduction import make_strategy
from repro.perf import MACHINES, kernel_time
from repro.translator import native

from .common import write_result

STRATEGIES = ["atomics", "unsafe_atomics", "segmented_reduction",
              "scatter_arrays", "coloring"]
PPC = 1400


@pytest.fixture(scope="module")
def workload(rng=np.random.default_rng(3)):
    """A realistic deposit: node targets, ~PPC-deep collisions."""
    pinned, native.CC = native.CC, None
    try:
        return _workload()
    finally:
        native.CC = pinned


def _workload():
    cfg = FemPicConfig(nx=2, ny=2, nz=6, dt=0.3, plasma_den=2e3, n0=2e3)
    sim = FemPicSimulation(cfg)
    sim.seed_uniform_plasma(PPC)
    with push_context(sim.ctx):
        sim.move()      # fills the barycentric weights
        p2c = sim.p2c.p2c
        c2n = sim.c2n.values
        rows = c2n[p2c, 0]
        values = sim.lc.data[:, :1].copy()
        sim.deposit()   # records the collision profile
    dep = sim.ctx.perf.get("DepositCharge")
    return rows, values, dep


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_ablation_atomics_strategies_agree(workload, benchmark, strategy):
    rows, values, _ = workload
    reference = np.zeros((int(rows.max()) + 1, 1))
    np.add.at(reference, rows, values)

    def run():
        target = np.zeros_like(reference)
        make_strategy(strategy).apply(target, rows, values)
        return target

    target = benchmark(run)
    np.testing.assert_allclose(target, reference, rtol=1e-12, atol=1e-12)


def test_ablation_atomics_device_model(workload, benchmark):
    _, _, dep = workload
    benchmark(lambda: kernel_time(dep, MACHINES["mi250x_gcd"], "atomics"))

    lines = ["Ablation — DepositCharge race handling "
             f"(~{PPC} particles per cell), modelled seconds",
             f"{'device':<14}" + "".join(f"{s:>22}" for s in
                                         ("atomics", "unsafe_atomics",
                                          "segmented_reduction"))]
    t = {}
    for device in ("v100", "mi250x_gcd"):
        t[device] = {s: kernel_time(dep, MACHINES[device], s)
                     for s in ("atomics", "unsafe_atomics",
                               "segmented_reduction")}
        lines.append(f"{device:<14}"
                     + "".join(f"{t[device][s]:>22.5f}"
                               for s in ("atomics", "unsafe_atomics",
                                         "segmented_reduction")))
    write_result("ablation_atomics", "\n".join(lines))

    amd = t["mi250x_gcd"]
    # (i) >200×
    assert amd["atomics"] / amd["unsafe_atomics"] > 200
    assert amd["atomics"] / amd["segmented_reduction"] > 200
    # (ii) UA marginally better than SR
    assert amd["unsafe_atomics"] < amd["segmented_reduction"] \
        < 2.0 * amd["unsafe_atomics"]
    # (iii) NVIDIA atomics are fine
    nv = t["v100"]
    assert nv["atomics"] < 3.0 * nv["unsafe_atomics"]
    assert nv["atomics"] < nv["segmented_reduction"]
