"""Gate driver machinery (fast; full gate runs are physics-marked)."""
import pytest

from repro.validate import GATE_APPS, GateReport, run_physics_gates
from repro.validate.gates import PROFILES


def test_gate_apps_and_profiles_cover_each_other():
    assert set(GATE_APPS) == {"landau", "twostream", "multispecies"}
    for profile, apps in PROFILES.items():
        assert set(apps) == set(GATE_APPS), profile


def test_gate_result_bounds():
    report = GateReport(app="landau", backend="vec", profile="ci")
    ok = report.gate("rate", measured=1.05, expected=1.0, rel_tol=0.10)
    assert ok.ok and ok.rel_error == pytest.approx(0.05)
    bad = report.gate("rate2", measured=1.5, expected=1.0, rel_tol=0.10)
    assert not bad.ok
    assert not report.ok
    banded = report.gate("rate3", measured=1.4, expected=1.0,
                         band=(0.5, 2.0))
    assert banded.ok and banded.lo == 0.5 and banded.hi == 2.0
    d = report.to_dict()
    assert d["ok"] is False and len(d["gates"]) == 3
    assert "FAIL" in report.summary()


def test_gate_band_handles_negative_expected():
    report = GateReport(app="x", backend="vec", profile="ci")
    g = report.gate("damping", measured=-0.3, expected=-0.31,
                    rel_tol=0.2)
    assert g.lo < g.hi and g.ok


def test_run_physics_gates_rejects_bad_args():
    with pytest.raises(ValueError, match="unknown gate app"):
        run_physics_gates("fempic")
    with pytest.raises(ValueError, match="only supported"):
        run_physics_gates("landau", transport="proc")
    with pytest.raises(ValueError, match="transport"):
        run_physics_gates("twostream", transport="tcp")
    with pytest.raises(ValueError, match="profile"):
        run_physics_gates("landau", profile="nightly")
