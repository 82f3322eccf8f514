"""Landau damping: the kinetic-theory oracle for the validation gates.

A 1-D periodic electrostatic plasma with a Maxwellian velocity
distribution damps its seeded Langmuir mode *collisionlessly* — a
purely kinetic effect with an exact closed-form rate.  The DSL app
uses a zero-RNG quiet start, so the run is bit-identical on every
backend, and the measured damping rate and oscillation frequency are
checked against the exact dispersion root (kλD = 0.5: ω = 1.4157·ωp,
γ = 0.1534·ωp).  The same app powers ``repro validate`` and the CI
physics job.

Run:  python examples/landau_damping.py [--steps N] [--backend vec]
(short runs skip the rate fit — the envelope needs ~15 ωp⁻¹ of
history)
"""
import argparse

import numpy as np

from repro.apps.landau import ElectrostaticSimulation, landau_config
from repro.field import landau_damping_rate, landau_frequency
from repro.validate import ConservationLedger, measure_damping


def main(n_steps: int = 200, backend: str = "vec"):
    cfg = landau_config(k_lambda_d=0.5, nz=48, ppc=200,
                        n_steps=n_steps, backend=backend)
    print(f"Landau damping: {cfg.n_particles} electrons on {cfg.nz} "
          f"cells, kλD = {cfg.k1:.2f}, backend={backend}")
    sim = ElectrostaticSimulation(cfg)
    sim.run()

    t = sim.times()
    e = np.array(sim.history["mode_energy"])
    print(f"mode energy: {e[0]:.3e} -> {e[-1]:.3e} over "
          f"t = {t[-1]:.1f} ωp⁻¹")

    gamma = landau_damping_rate(cfg.k1)
    omega = landau_frequency(cfg.k1)
    if t[-1] >= 16.0:
        fit = measure_damping(t, e)
        print(f"measured damping 2γ = {fit.rate:.4f}; kinetic theory "
              f"2γ = {2 * gamma:.4f} "
              f"({abs(fit.rate - 2 * gamma) / (2 * gamma):.1%} off)")
        print(f"measured frequency ω = {fit.frequency:.4f}; theory "
              f"ω = {omega:.4f} "
              f"({abs(fit.frequency - omega) / omega:.1%} off)")
    else:
        print(f"({n_steps} steps is too short to fit the peak "
              "envelope; run with --steps 200)")

    ledger = ConservationLedger()
    ledger.bound("total_energy", sim.history["total_energy"], 5e-3)
    ledger.bound("charge", sim.history["charge"], 1e-12)
    print(f"conservation ledger:\n{ledger}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=200,
                        help="time steps (default 200; small values "
                        "give a quick smoke run)")
    parser.add_argument("--backend", default="vec",
                        help="DSL backend (seq, vec, omp, cuda, hip, xe)")
    args = parser.parse_args()
    main(args.steps, args.backend)
