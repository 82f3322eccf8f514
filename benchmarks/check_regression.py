"""Gate a benchmark JSON payload against a committed baseline.

Usage (the CI benchmark-smoke job)::

    python benchmarks/check_regression.py BENCH_baseline.json current.json \
        [--tolerance 0.25]

The baseline's ``gates`` list names the metrics that matter and which
direction is good:

* ``"bool"``   — the current value must be true (correctness flags);
* ``"equal"``  — the current value must equal the baseline exactly
  (deterministic counts; no tolerance applies);
* ``"higher"`` — regression when current < baseline * (1 - tolerance);
* ``"lower"`` — regression when current > baseline * (1 + tolerance);
* ``"min_ratio"`` — the ratio of two dotted-path keys of the *current*
  payload (``numerator`` / ``denominator``, e.g.
  ``metrics.cold_median_seconds`` over ``metrics.warm_median_seconds``)
  must be at least ``min`` · (1 - tolerance).  Unlike the relative
  directions this is an absolute floor on a self-normalising quantity —
  the service's 1.5× warm-over-cold gate — so it never drifts with the
  baseline's own numbers.  Per-gate ``tolerance`` defaults to 0 here
  (the threshold already encodes the headroom).

* ``"max_value"`` — a dotted-path key of the *current* payload
  (``path``) must not exceed ``max`` · (1 + tolerance).  The absolute
  counterpart of ``min_ratio``: a hard ceiling (a latency SLO such as
  "p99 ≤ 2 s", a byte budget, an iteration cap) that never drifts with
  the baseline's own numbers.  Per-gate ``tolerance`` defaults to 0
  (the ceiling already encodes the headroom).

The same bounds can be imposed from the command line without touching
the baseline: ``--min-ratio seconds.a/seconds.b=2.0`` and
``--max-value latency.p99=2.0`` (both repeatable).

Only gated metrics are compared; everything else in the payload is
informational (absolute wall-clock on shared runners is noise, ratios and
correctness flags are signal).  Exit status 1 on any regression.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def lookup_path(payload: dict, dotted: str):
    """Resolve a dotted key path (``metrics.warm_median_seconds``) or None."""
    cur = payload
    for part in dotted.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return None
        cur = cur[part]
    return cur


def _check_min_ratio(gate: dict, current: dict, failures: list) -> None:
    num_key = gate["numerator"]
    den_key = gate["denominator"]
    label = gate.get("metric", f"{num_key}/{den_key}")
    floor = float(gate["min"]) * (1.0 - float(gate.get("tolerance", 0.0)))
    num = lookup_path(current, num_key)
    den = lookup_path(current, den_key)
    if not isinstance(num, (int, float)) or isinstance(num, bool):
        failures.append(f"{label}: numerator {num_key!r} missing or "
                        f"non-numeric in current payload")
        return
    if not isinstance(den, (int, float)) or isinstance(den, bool):
        failures.append(f"{label}: denominator {den_key!r} missing or "
                        f"non-numeric in current payload")
        return
    if den == 0:
        failures.append(f"{label}: denominator {den_key!r} is zero")
        return
    ratio = num / den
    if ratio < floor:
        failures.append(
            f"{label}: ratio {ratio:.4g} < required {floor:.4g} "
            f"({num_key}={num:.4g}, {den_key}={den:.4g})")


def _check_max_value(gate: dict, current: dict, failures: list) -> None:
    path = gate["path"]
    label = gate.get("metric", path)
    ceiling = float(gate["max"]) * (1.0 + float(gate.get("tolerance",
                                                         0.0)))
    value = lookup_path(current, path)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        failures.append(f"{label}: {path!r} missing or non-numeric in "
                        f"current payload")
        return
    if value > ceiling:
        failures.append(
            f"{label}: {value:.4g} > ceiling {ceiling:.4g} "
            f"(absolute gate, max={gate['max']})")


def compare(baseline: dict, current: dict, tolerance: float) -> list:
    """Return a list of human-readable regression messages (empty = pass)."""
    failures = []
    base_metrics = baseline.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    for gate in baseline.get("gates", []):
        direction = gate["direction"]
        if direction == "min_ratio":
            _check_min_ratio(gate, current, failures)
            continue
        if direction == "max_value":
            _check_max_value(gate, current, failures)
            continue
        name = gate["metric"]
        tol = float(gate.get("tolerance", tolerance))
        if name not in cur_metrics:
            failures.append(f"{name}: missing from current payload")
            continue
        cur = cur_metrics[name]
        if direction == "bool":
            if cur is not True:
                failures.append(f"{name}: expected true, got {cur!r}")
            continue
        base = base_metrics.get(name)
        if base is None:
            failures.append(f"{name}: missing from baseline payload")
            continue
        if direction == "equal":
            if cur != base:
                failures.append(
                    f"{name}: {cur!r} != baseline {base!r} (exact gate)")
        elif direction == "higher":
            floor = base * (1.0 - tol)
            if cur < floor:
                failures.append(
                    f"{name}: {cur:.4g} < {floor:.4g} "
                    f"(baseline {base:.4g}, tolerance {tol:.0%})")
        elif direction == "lower":
            ceil = base * (1.0 + tol)
            if cur > ceil:
                failures.append(
                    f"{name}: {cur:.4g} > {ceil:.4g} "
                    f"(baseline {base:.4g}, tolerance {tol:.0%})")
        else:
            failures.append(f"{name}: unknown gate direction {direction!r}")
    return failures


def parse_max_value(spec: str) -> dict:
    """``PATH=MAX`` → a ``max_value`` gate dict (CLI convenience)."""
    try:
        path, threshold = spec.rsplit("=", 1)
        if not path.strip():
            raise ValueError
        return {"direction": "max_value", "path": path.strip(),
                "max": float(threshold)}
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--max-value expects DOTTED_PATH=CEILING, got {spec!r}")


def parse_min_ratio(spec: str) -> dict:
    """``NUM/DEN=MIN`` → a ``min_ratio`` gate dict (CLI convenience)."""
    try:
        keys, threshold = spec.rsplit("=", 1)
        num_key, den_key = keys.split("/", 1)
        return {"direction": "min_ratio", "numerator": num_key.strip(),
                "denominator": den_key.strip(), "min": float(threshold)}
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--min-ratio expects NUM_PATH/DEN_PATH=THRESHOLD, got {spec!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when a benchmark payload regresses vs a baseline")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly measured JSON")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative regression (default 25%%)")
    parser.add_argument("--min-ratio", action="append", default=[],
                        type=parse_min_ratio, metavar="NUM/DEN=MIN",
                        help="extra ratio floor on the current payload, "
                             "e.g. metrics.cold_median_seconds/"
                             "metrics.warm_median_seconds=1.5 "
                             "(repeatable)")
    parser.add_argument("--max-value", action="append", default=[],
                        type=parse_max_value, metavar="PATH=MAX",
                        help="extra absolute ceiling on a dotted-path "
                             "key of the current payload, e.g. "
                             "latency.p99=2.0 (repeatable)")
    args = parser.parse_args(argv)

    baseline = json.loads(Path(args.baseline).read_text())
    current = json.loads(Path(args.current).read_text())
    if args.min_ratio or args.max_value:
        baseline = dict(baseline)
        baseline["gates"] = (list(baseline.get("gates", []))
                             + args.min_ratio + args.max_value)
    failures = compare(baseline, current, args.tolerance)
    for gate in baseline.get("gates", []):
        if gate["direction"] == "min_ratio":
            num = lookup_path(current, gate["numerator"])
            den = lookup_path(current, gate["denominator"])
            ratio = (num / den if isinstance(num, (int, float))
                     and isinstance(den, (int, float)) and den else None)
            print(f"  {gate['numerator']}/{gate['denominator']}: "
                  f"current={ratio!r} required>={gate['min']!r}")
            continue
        if gate["direction"] == "max_value":
            print(f"  {gate['path']}: "
                  f"current={lookup_path(current, gate['path'])!r} "
                  f"required<={gate['max']!r}")
            continue
        name = gate["metric"]
        print(f"  {name}: baseline={baseline.get('metrics', {}).get(name)!r}"
              f" current={current.get('metrics', {}).get(name)!r}")
    if failures:
        print("BENCHMARK REGRESSION:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("benchmark gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
