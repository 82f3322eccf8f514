"""Unit tests for the benchmark regression gate itself.

``check_regression.py`` guards every perf claim in CI, so its own
direction logic (bool/equal/higher/lower and the ratio floor the service
gate rides on) needs pinning too.
"""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

import check_regression as cr  # noqa: E402


def payload(metrics, gates=None, **extra):
    p = {"metrics": metrics}
    if gates is not None:
        p["gates"] = gates
    p.update(extra)
    return p


# -- direction: bool ---------------------------------------------------------

def test_bool_gate_passes_on_true():
    base = payload({}, gates=[{"metric": "ok", "direction": "bool"}])
    assert cr.compare(base, payload({"ok": True}), 0.25) == []


def test_bool_gate_fails_on_false_and_truthy_nonbool():
    base = payload({}, gates=[{"metric": "ok", "direction": "bool"}])
    assert cr.compare(base, payload({"ok": False}), 0.25)
    # `1 is not True` — the gate demands a genuine boolean
    assert cr.compare(base, payload({"ok": 1}), 0.25)


# -- direction: equal --------------------------------------------------------

def test_equal_gate_is_exact_regardless_of_tolerance():
    base = payload({"n": 42}, gates=[{"metric": "n", "direction": "equal"}])
    assert cr.compare(base, payload({"n": 42}), 0.5) == []
    assert cr.compare(base, payload({"n": 43}), 0.5)


# -- directions: higher / lower ---------------------------------------------

def test_higher_gate_tolerance_window():
    base = payload({"speedup": 2.0},
                   gates=[{"metric": "speedup", "direction": "higher"}])
    assert cr.compare(base, payload({"speedup": 1.6}), 0.25) == []
    assert cr.compare(base, payload({"speedup": 1.4}), 0.25)


def test_lower_gate_tolerance_window():
    base = payload({"seconds": 1.0},
                   gates=[{"metric": "seconds", "direction": "lower"}])
    assert cr.compare(base, payload({"seconds": 1.2}), 0.25) == []
    assert cr.compare(base, payload({"seconds": 1.3}), 0.25)


def test_per_gate_tolerance_overrides_global():
    base = payload({"speedup": 2.0},
                   gates=[{"metric": "speedup", "direction": "higher",
                           "tolerance": 0.0}])
    assert cr.compare(base, payload({"speedup": 1.99}), 0.9)


def test_missing_metric_and_unknown_direction_fail():
    base = payload({"x": 1.0},
                   gates=[{"metric": "x", "direction": "higher"}])
    assert cr.compare(base, payload({}), 0.25)
    base = payload({"x": 1.0},
                   gates=[{"metric": "x", "direction": "sideways"}])
    assert cr.compare(base, payload({"x": 1.0}), 0.25)


# -- direction: min_ratio ----------------------------------------------------

def ratio_gate(minimum, tolerance=None):
    g = {"direction": "min_ratio", "numerator": "seconds.slow",
         "denominator": "seconds.fast", "min": minimum}
    if tolerance is not None:
        g["tolerance"] = tolerance
    return g


def test_min_ratio_passes_at_and_above_floor():
    base = payload({}, gates=[ratio_gate(2.0)])
    cur = payload({}, seconds={"slow": 2.0, "fast": 1.0})
    assert cr.compare(base, cur, 0.25) == []
    cur = payload({}, seconds={"slow": 5.0, "fast": 1.0})
    assert cr.compare(base, cur, 0.25) == []


def test_min_ratio_fails_below_floor():
    base = payload({}, gates=[ratio_gate(2.0)])
    cur = payload({}, seconds={"slow": 1.9, "fast": 1.0})
    failures = cr.compare(base, cur, 0.25)
    assert failures and "ratio" in failures[0]


def test_min_ratio_ignores_global_tolerance_but_honours_gate_tolerance():
    # the absolute floor must not be widened by the CLI-wide tolerance
    base = payload({}, gates=[ratio_gate(2.0)])
    cur = payload({}, seconds={"slow": 1.9, "fast": 1.0})
    assert cr.compare(base, cur, 0.9)
    # ... a per-gate tolerance does widen it
    base = payload({}, gates=[ratio_gate(2.0, tolerance=0.1)])
    assert cr.compare(base, cur, 0.25) == []


def test_min_ratio_missing_or_zero_keys_fail():
    base = payload({}, gates=[ratio_gate(2.0)])
    assert cr.compare(base, payload({}), 0.25)
    cur = payload({}, seconds={"slow": 2.0})
    assert cr.compare(base, cur, 0.25)
    cur = payload({}, seconds={"slow": 2.0, "fast": 0.0})
    failures = cr.compare(base, cur, 0.25)
    assert failures and "zero" in failures[0]


def test_lookup_path_walks_nested_dicts():
    data = {"a": {"b": {"c": 3.5}}, "flat": 1}
    assert cr.lookup_path(data, "a.b.c") == 3.5
    assert cr.lookup_path(data, "flat") == 1
    assert cr.lookup_path(data, "a.b.missing") is None
    assert cr.lookup_path(data, "a.b.c.d") is None


# -- CLI ---------------------------------------------------------------------

def test_parse_min_ratio_spec():
    g = cr.parse_min_ratio("seconds.slow/seconds.fast=2.0")
    assert g == {"direction": "min_ratio", "numerator": "seconds.slow",
                 "denominator": "seconds.fast", "min": 2.0}
    with pytest.raises(Exception):
        cr.parse_min_ratio("no-equals-sign")


def _write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_main_min_ratio_cli_gate(tmp_path, capsys):
    base = _write(tmp_path, "base.json", payload({}))
    good = _write(tmp_path, "good.json",
                  payload({}, seconds={"slow": 4.0, "fast": 1.0}))
    bad = _write(tmp_path, "bad.json",
                 payload({}, seconds={"slow": 1.5, "fast": 1.0}))
    spec = "--min-ratio=seconds.slow/seconds.fast=2.0"
    assert cr.main([base, good, spec]) == 0
    assert cr.main([base, bad, spec]) == 1
    err = capsys.readouterr().err
    assert "ratio" in err


def test_main_baseline_gates_end_to_end(tmp_path):
    base = _write(tmp_path, "base.json",
                  payload({"speedup": 2.0},
                          gates=[{"metric": "speedup",
                                  "direction": "higher"},
                                 ratio_gate(2.0)]))
    cur = _write(tmp_path, "cur.json",
                 payload({"speedup": 2.1},
                         seconds={"slow": 3.0, "fast": 1.0}))
    assert cr.main([base, cur]) == 0


# -- direction: max_value ----------------------------------------------------

def value_gate(ceiling, **extra):
    g = {"direction": "max_value", "path": "latency.p99",
         "max": ceiling}
    g.update(extra)
    return g


def test_max_value_passes_at_and_below_ceiling():
    base = payload({}, gates=[value_gate(2.0)])
    assert cr.compare(base, payload({}, latency={"p99": 2.0}), 0.25) == []
    assert cr.compare(base, payload({}, latency={"p99": 0.1}), 0.25) == []


def test_max_value_fails_above_ceiling():
    base = payload({}, gates=[value_gate(2.0)])
    failures = cr.compare(base, payload({}, latency={"p99": 2.01}), 0.25)
    assert failures and "ceiling" in failures[0]


def test_max_value_ignores_global_tolerance_but_honours_gate_tolerance():
    # global tolerance must NOT relax the absolute ceiling
    base = payload({}, gates=[value_gate(2.0)])
    assert cr.compare(base, payload({}, latency={"p99": 2.4}), 0.5)
    # per-gate tolerance does: 2.0 * 1.5 = 3.0
    base = payload({}, gates=[value_gate(2.0, tolerance=0.5)])
    assert cr.compare(base, payload({}, latency={"p99": 2.9}), 0.0) == []
    assert cr.compare(base, payload({}, latency={"p99": 3.1}), 0.0)


def test_max_value_missing_or_non_numeric_path_fails():
    base = payload({}, gates=[value_gate(2.0)])
    assert cr.compare(base, payload({}), 0.25)
    cur = payload({}, latency={"p99": True})
    assert cr.compare(base, cur, 0.25)
    cur = payload({}, latency={"p99": "fast"})
    assert cr.compare(base, cur, 0.25)


def test_parse_max_value_spec():
    g = cr.parse_max_value("latency.p99=2.5")
    assert g == {"direction": "max_value", "path": "latency.p99",
                 "max": 2.5}
    with pytest.raises(Exception):
        cr.parse_max_value("no-equals-sign")
    with pytest.raises(Exception):
        cr.parse_max_value("=3.0")


def test_main_max_value_cli_gate(tmp_path, capsys):
    base = _write(tmp_path, "base.json", payload({}))
    good = _write(tmp_path, "good.json", payload({}, latency={"p99": 1.0}))
    bad = _write(tmp_path, "bad.json", payload({}, latency={"p99": 9.0}))
    spec = "--max-value=latency.p99=2.0"
    assert cr.main([base, good, spec]) == 0
    assert cr.main([base, bad, spec]) == 1
    assert "ceiling" in capsys.readouterr().err
