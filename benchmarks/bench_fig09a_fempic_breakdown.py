"""Figure 9(a): Mini-FEM-PIC single node/device runtime breakdown.

Paper setup: 48k-cell duct, ~70M particles, 250 iterations, on
2×Xeon 8268, 2×EPYC 7742, V100, H100, MI210, MI250X(GCD).  Findings to
reproduce: (i) on CPUs and NVIDIA GPUs the particle move dominates;
(ii) on AMD GPUs DepositCharge takes the larger share (atomic handling);
(iii) DH beats MH.

Here: a 144-cell duct seeded at the paper's ~1450 particles-per-cell
regime runs for real (timed below); the per-kernel counters are then
extrapolated to the paper's problem and priced on each device.
"""
import pytest

from repro.apps.fempic import FemPicConfig, FemPicSimulation

try:
    from .common import (PAPER_DEVICES, breakdown_table, device_breakdown,
                         dominant_kernel, fempic_smoke_payload, total_time,
                         write_json, write_result)
except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
    from common import (PAPER_DEVICES, breakdown_table, device_breakdown,
                        dominant_kernel, fempic_smoke_payload, total_time,
                        write_json, write_result)

PPC = 1400
STEPS = 4
PAPER_PARTICLES = 70e6
PAPER_CELLS = 48_000
PAPER_ITERS = 250

PARTICLE_KERNELS = {"CalcPosVel", "Move", "DepositCharge", "InjectIons"}
DEVICES = list(PAPER_DEVICES)


@pytest.fixture(scope="module")
def measured():
    cfg = FemPicConfig(nx=2, ny=2, nz=6, n_steps=STEPS, dt=0.3,
                       plasma_den=2e3, n0=2e3, backend="vec",
                       move_strategy="dh")
    # quasi-neutral seeding: macro weight such that seeded ion density
    # matches the Boltzmann electron reference density (keeps the Newton
    # solve physical no matter how many benchmark rounds run)
    cell_volume = (cfg.lx * cfg.ly * cfg.lz) / cfg.n_cells
    cfg = cfg.scaled(spwt=cfg.n0 * cell_volume / PPC)
    sim = FemPicSimulation(cfg)
    n_seeded = sim.seed_uniform_plasma(PPC)
    sim.run()
    return sim, n_seeded


def paper_scales(sim) -> dict:
    """Per-kernel extrapolation factors to the paper's problem size.

    Particle loops scale to 70M particles × 250 iterations; mesh loops to
    48k cells × 250; injection is a constant-rate trickle (~0.5% of the
    population per step in the mini-app's regime)."""
    steps = sim.step_count
    scales = {}
    for name, st in sim.ctx.perf.loops.items():
        if name == "InjectIons":
            scales[name] = (0.005 * PAPER_PARTICLES * PAPER_ITERS
                            / max(st.n_total, 1))
        elif name in PARTICLE_KERNELS:
            scales[name] = PAPER_PARTICLES * PAPER_ITERS / max(st.n_total, 1)
        else:
            target = (PAPER_CELLS if st.name != "Solve"
                      else PAPER_CELLS / 4) * PAPER_ITERS
            scales[name] = target / max(st.n_total, 1)
    return scales


def test_fig09a_breakdown(measured, benchmark):
    sim, n_seeded = measured
    assert n_seeded / sim.cfg.n_cells == PPC
    benchmark(sim.step)
    scales = paper_scales(sim)
    loops = list(sim.ctx.perf.loops.values())
    table = breakdown_table(
        "Figure 9(a) — Mini-FEM-PIC modelled breakdown (s, 48k cells / "
        "70M particles / 250 iters)", loops, DEVICES, scale=scales)
    write_result("fig09a_fempic_breakdown", table)

    # the measured collision depth reflects the ~1450 ppc regime
    assert sim.ctx.perf.get("DepositCharge").max_collisions > 0.5 * PPC
    # paper finding (i): Move dominates on CPUs and NVIDIA GPUs
    for device in ("xeon_8268", "epyc_7742", "v100", "h100"):
        assert dominant_kernel(loops, device, scale=scales) == "Move", \
            f"Move should dominate on {device}"
    # paper finding (ii): DepositCharge leads on AMD GPUs
    for device in ("mi210", "mi250x_gcd"):
        bd = device_breakdown(loops, device, scale=scales)
        assert bd["DepositCharge"] > bd["Move"], \
            f"DepositCharge should lead on {device}"
    # paper finding (iii): GPUs beat the Xeon node outright
    cpu = total_time(loops, "xeon_8268", scale=scales)
    for gpu in ("v100", "h100", "mi250x_gcd"):
        assert total_time(loops, gpu, scale=scales) < cpu


def main(argv=None) -> int:
    """Script mode for CI: ``--smoke --json`` runs the real-backend
    comparison (seq / vec) and emits the machine-readable payload
    that ``benchmarks/check_regression.py`` gates on."""
    import argparse
    import json
    import sys

    parser = argparse.ArgumentParser(
        description="Mini-FEM-PIC breakdown benchmark (fig 9a)")
    parser.add_argument("--smoke", action="store_true",
                        help="small seq/vec comparison run")
    parser.add_argument("--json", action="store_true",
                        help="print the payload as JSON on stdout")
    parser.add_argument("--out", default=None,
                        help="also write the JSON payload to this path")
    parser.add_argument("--ppc", type=int, default=150)
    parser.add_argument("--steps", type=int, default=2)
    args = parser.parse_args(argv)

    if not args.smoke:
        parser.error("only --smoke mode is runnable from the CLI; the "
                     "full benchmark runs under pytest")
    payload = fempic_smoke_payload(ppc=args.ppc, steps=args.steps)
    if args.out:
        write_json("fempic_smoke", payload, out=args.out)
    if args.json:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return 0 if payload["metrics"]["allclose_vec_vs_seq"] else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
