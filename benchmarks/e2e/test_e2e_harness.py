"""Self-test of the benchmark harness (``pytest benchmarks/e2e``, < 90 s).

Checks the contract the driver reads, not the numbers: every workload
prints every named metric with its unit as the last stdout line, a failed
check turns into ``failed > 0`` and exit code 1, and the traced roll-up's
layer rows sum to the op span.
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = list(bench.WORKLOADS)


def invoke(*args, timeout=120):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "2", *args],
        capture_output=True, text=True, timeout=timeout, cwd=str(ROOT))
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1])


def test_manifest_matches_the_runner():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    generated = bench.manifest({m["name"]: m["bound"]
                                for m in manifest["end_to_end"]})
    assert manifest == generated
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in manifest["workloads"]] == WORKLOADS
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names + WORKLOADS)
    assert len(manifest["end_to_end"]) <= 16
    assert len(manifest["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.10 for m in manifest["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in manifest["end_to_end"])


def test_bounds_follow_the_calibration_records():
    """The committed bounds are what the rule gives on every record of the
    current protocol, and a pair the rule cannot hold is named."""
    calibration = json.loads((HERE / "calibration.json").read_text())
    assert calibration["protocol"] == bench.PROTOCOL
    current = [r for r in calibration["records"]
               if r["protocol"] == bench.PROTOCOL]
    assert current and all(r["runs_per_set"] == bench.RUNS_PER_SET
                           and len(r["sets"]) >= 2 for r in current)
    bounds, unresolved = bench.derive_bounds(current)
    assert bounds == calibration["bounds"]
    assert unresolved == calibration["unresolved"]
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bounds == {m["name"]: m["bound"] for m in manifest["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc, line = invoke("--workload", workload, "--seed", "5", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {n for n, *_ in bench.END_TO_END}
    for name, unit, *_ in bench.END_TO_END:
        assert line["metrics"][name]["unit"] == unit
        assert line["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_ledger(workload, tmp_path):
    proc, line = invoke("--workload", workload, "--seed", "5", "--trace", "1",
                        "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert line["correct"] is True
    assert set(line["metrics"]) == {n for n, *_ in bench.PER_LAYER}
    for name, unit, _better in bench.PER_LAYER:
        assert line["metrics"][name]["unit"] == unit
    assert "trace.unaccounted_share" in line["metrics"]
    assert line["metrics"]["trace.overhead_ratio"]["value"] > 0

    ledger = json.loads((tmp_path / f"{workload}.rollup.json").read_text())
    for lane in ledger["op_lanes"]:
        rows = ledger["layer_self_ms_per_op"][lane]
        assert "unaccounted" in rows
        span = ledger["by_name_ms_per_op"][lane]["op"]["incl"]
        assert sum(rows.values()) == pytest.approx(span, rel=1e-6)
    # every traced time reads in reference ms, the derived rates too
    value = lambda name: line["metrics"][name]["value"]  # noqa: E731
    core_self_ms = sum(rows.get("core", 0.0)
                       for rows in ledger["layer_self_ms_per_op"].values())
    launches = value("core.launches_per_op") * len(ledger["op_lanes"])
    assert value("core.dispatch_us_per_launch") == pytest.approx(
        core_self_ms / launches * 1e3, rel=1e-6)
    if ledger["particles"]:
        assert value("backends.ns_per_particle_step") == pytest.approx(
            value("backends.execute_ms") * len(ledger["op_lanes"])
            / ledger["particles"] * 1e6, rel=1e-6)
    if workload == "service_batch":
        # read off spans around two module-private functions of the pool:
        # a rename in src must show here, not as a silent zero
        assert value("service.dispatch_ms") > 0
        assert value("service.return_ms") > 0
    trace = json.loads((tmp_path / f"{workload}.trace.json").read_text())
    assert any(e.get("ph") == "X" for e in trace["traceEvents"])


def test_injected_failure_is_counted():
    proc, line = invoke("--workload", "fempic_dispatch", "--seed", "5",
                        "--trace", "0", "--inject-failure")
    assert proc.returncode == 1
    assert line["correct"] is False and line["failed"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only the benchmark has nothing to measure."""
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for name in ("run.py", "rounds.py", "probes.py", "spans.py"):
        (target / name).write_text((HERE / name).read_text())
    proc = subprocess.run(
        [sys.executable, str(target / "run.py"), "--workload",
         "fempic_dispatch", "--seed", "1", "--seconds", "2", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
