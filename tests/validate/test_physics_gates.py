"""Full-length physics gates: measured rates vs closed-form theory.

Everything here is ``physics``-marked (run with ``--physics``): each
test runs a full instability/damping history, so the module is minutes
of work — it is the CI physics job, not part of the default suite.
The sweep axes mirror the paper's claim: the *same* DSL app must
produce correct physics on every backend, and the distributed
transports must not change it either.
"""
import numpy as np
import pytest

from repro.validate import run_physics_gates

pytestmark = pytest.mark.physics

BACKENDS = ["vec", "omp"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_landau_gate(backend):
    report = run_physics_gates("landau", backend=backend)
    assert report.ok, report.summary()


@pytest.mark.parametrize("backend", BACKENDS)
def test_multispecies_gate(backend):
    report = run_physics_gates("multispecies", backend=backend)
    assert report.ok, report.summary()


@pytest.mark.parametrize("transport", [None, "sim", "proc"])
def test_twostream_gate(transport):
    report = run_physics_gates("twostream", transport=transport)
    assert report.ok, report.summary()


def test_landau_gate_seq_oracle():
    """The elemental seq oracle itself must pass the physics gate (it
    is the reference everything else is compared against)."""
    report = run_physics_gates("landau", backend="seq")
    assert report.ok, report.summary()


def test_rates_identical_across_backends():
    """Beyond each backend passing its own gate: the *measured rate*
    must be the same number everywhere, because the histories are
    allclose at 1e-9 across backends."""
    rates = {}
    for backend in BACKENDS:
        report = run_physics_gates("multispecies", backend=backend)
        rates[backend] = report.gates[0].measured
    values = list(rates.values())
    assert np.allclose(values, values[0], rtol=1e-9), rates


def test_twostream_transports_bit_identical():
    """sim and proc transports must yield the same measured rate."""
    sim = run_physics_gates("twostream", transport="sim")
    proc = run_physics_gates("twostream", transport="proc")
    assert sim.gates[0].measured == proc.gates[0].measured
