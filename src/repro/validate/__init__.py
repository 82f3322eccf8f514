"""Physics-gated validation library.

Measurement tools (windowed log-linear rate fits, conservation
ledgers) plus the :func:`run_physics_gates` driver that runs the
oracle apps — Landau damping, the electromagnetic two-stream app, the
multi-species two-beam app — on any backend (× transport) and checks measured rates against closed-form kinetic
theory.
"""
from .gates import GATE_APPS, GateReport, GateResult, run_physics_gates
from .ledger import ConservationLedger, DriftEntry, relative_drift
from .measure import (DampingFit, GrowthFit, energy_peaks, log_slope,
                      measure_damping, measure_growth)

__all__ = [
    "GATE_APPS", "GateReport", "GateResult", "run_physics_gates",
    "ConservationLedger", "DriftEntry", "relative_drift",
    "DampingFit", "GrowthFit", "energy_peaks", "log_slope",
    "measure_damping", "measure_growth",
]
