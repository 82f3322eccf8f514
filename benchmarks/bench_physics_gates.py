"""Physics-gate regression payload: measured rates vs kinetic theory.

Runs the three validation oracles (Landau damping, the multi-species
two-beam instability, the electromagnetic CabanaPIC two-stream) through
``repro.validate.run_physics_gates`` on the vec backend, re-measures
the multi-species growth rate on the ``omp`` backend, and emits a JSON
payload whose boolean gates the CI physics job pins with
``check_regression.py``:

* every measured rate sits inside its documented theory gate
  (Landau 2γ within 20%, two-beam 2γ within 15%, the electromagnetic
  app inside its factor-2 band — see ``docs/validation.md``);
* every conservation ledger (energy drift, charge, momentum, particle
  count) holds;
* the measured rate is the *same number* (rtol 1e-9) on vec and omp —
  cross-backend physics identity, not just per-backend correctness.

Script mode (what CI runs)::

    python benchmarks/bench_physics_gates.py --out /tmp/physics.json
    python benchmarks/check_regression.py BENCH_physics.json \
        /tmp/physics.json
"""
import time

import numpy as np

try:
    from .common import write_json
except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
    from common import write_json


def _timed_gate(app, **kw):
    from repro.validate import run_physics_gates
    t0 = time.perf_counter()
    report = run_physics_gates(app, **kw)
    return time.perf_counter() - t0, report


def physics_payload(profile: str = "ci") -> dict:
    t_landau, landau = _timed_gate("landau", profile=profile)
    t_multi, multi = _timed_gate("multispecies", profile=profile)
    t_two, two = _timed_gate("twostream", profile=profile)
    t_multi_omp, multi_omp = _timed_gate("multispecies", backend="omp",
                                         profile=profile)

    rate_vec = multi.gates[0].measured
    rate_omp = multi_omp.gates[0].measured
    by_name = {g.name: g for g in landau.gates}
    return {
        "bench": "physics",
        "config": {"profile": profile,
                   "apps": ["landau", "multispecies", "twostream"],
                   "identity_backends": ["vec", "omp"]},
        "seconds": {
            "landau": t_landau,
            "multispecies": t_multi,
            "twostream": t_two,
            "multispecies_omp": t_multi_omp,
        },
        "metrics": {
            "landau_rate_in_gate": by_name["damping_2g"].ok,
            "landau_freq_in_gate": by_name["frequency"].ok,
            "landau_ledger_ok": landau.ledger.ok,
            "landau_rate_rel_error": by_name["damping_2g"].rel_error,
            "multispecies_rate_in_gate": multi.gates[0].ok,
            "multispecies_ledger_ok": multi.ledger.ok,
            "multispecies_rate_rel_error": multi.gates[0].rel_error,
            "twostream_rate_in_band": two.gates[0].ok,
            "twostream_rate_measured": two.gates[0].measured,
            "rates_identical_vec_omp":
                bool(np.isclose(rate_vec, rate_omp, rtol=1e-9)),
        },
        #: metrics check_regression.py gates on (direction-aware)
        "gates": [
            {"metric": "landau_rate_in_gate", "direction": "bool"},
            {"metric": "landau_freq_in_gate", "direction": "bool"},
            {"metric": "landau_ledger_ok", "direction": "bool"},
            {"metric": "multispecies_rate_in_gate", "direction": "bool"},
            {"metric": "multispecies_ledger_ok", "direction": "bool"},
            {"metric": "twostream_rate_in_band", "direction": "bool"},
            {"metric": "rates_identical_vec_omp", "direction": "bool"},
        ],
    }


def main() -> int:
    import argparse
    parser = argparse.ArgumentParser(
        description="physics-gate benchmark (JSON payload)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write payload to this path "
                        "(default: results/physics.json)")
    parser.add_argument("--profile", default="ci",
                        choices=["ci", "full"])
    args = parser.parse_args()
    payload = physics_payload(args.profile)
    path = write_json("physics", payload, out=args.out)
    m = payload["metrics"]
    print(f"landau: rate ok={m['landau_rate_in_gate']} "
          f"(err {m['landau_rate_rel_error']:.1%}), "
          f"freq ok={m['landau_freq_in_gate']}, "
          f"ledger ok={m['landau_ledger_ok']}")
    print(f"multispecies: rate ok={m['multispecies_rate_in_gate']} "
          f"(err {m['multispecies_rate_rel_error']:.1%}), "
          f"ledger ok={m['multispecies_ledger_ok']}")
    print(f"twostream: in band={m['twostream_rate_in_band']} "
          f"(2γ = {m['twostream_rate_measured']:.3f})")
    print(f"vec/omp rate identity: {m['rates_identical_vec_omp']}")
    print(f"payload written to {path}")
    ok = all(m[g["metric"]] for g in payload["gates"])
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
