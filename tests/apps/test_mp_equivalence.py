"""Whole-app backend equivalence (paper §3: every parallelization must
compute the same physics).

Runs small FemPIC and CabanaPIC problems end-to-end under each CPU
execution strategy — vectorised with atomic and segmented-reduction race
handling, and simulated OpenMP — and checks fields, particle state and
the energy histories agree with the sequential reference to
``np.allclose``.
"""
import numpy as np
import pytest

from repro.apps.cabana import CabanaConfig, CabanaSimulation
from repro.apps.fempic import FemPicConfig, FemPicSimulation

#: (backend name, backend options)
STRATEGIES = [
    ("vec", {}),
    ("vec", {"strategy": "segmented_reduction"}),
    ("omp", {}),
]

IDS = ["vec-atomics", "vec-segmented", "omp"]


@pytest.fixture(scope="module")
def fempic_reference():
    sim = FemPicSimulation(FemPicConfig.smoke().scaled(backend="seq"))
    sim.run()
    return sim


@pytest.fixture(scope="module")
def cabana_reference():
    sim = CabanaSimulation(CabanaConfig.smoke().scaled(backend="seq"))
    sim.run()
    return sim


def _assert_dats_close(sim, ref, attrs, label):
    """rtol 1e-9, with an absolute floor scaled to the field magnitude:
    components that are exactly 0.0 in the reference come out as
    ~1e-18 cancellation residues whenever a sum is regrouped (segmented
    reductions, scatter arrays, blocked commits), which no fixed tiny
    ``atol`` survives."""
    for attr in attrs:
        want = getattr(ref, attr).data
        np.testing.assert_allclose(
            getattr(sim, attr).data, want, rtol=1e-9,
            atol=1e-12 * np.abs(want).max(), err_msg=f"{label}: {attr}")


@pytest.mark.parametrize(("backend", "options"), STRATEGIES, ids=IDS)
def test_fempic_equivalence(backend, options, fempic_reference):
    ref = fempic_reference
    sim = FemPicSimulation(FemPicConfig.smoke().scaled(
        backend=backend, backend_options=options))
    sim.run()
    assert sim.parts.size == ref.parts.size
    _assert_dats_close(sim, ref, ("phi", "ncd", "nw", "ef",
                                  "pos", "vel", "lc"), backend)
    np.testing.assert_allclose(sim.history["field_energy"],
                               ref.history["field_energy"], rtol=1e-9)


@pytest.mark.parametrize(("backend", "options"), STRATEGIES, ids=IDS)
def test_cabana_equivalence(backend, options, cabana_reference):
    ref = cabana_reference
    sim = CabanaSimulation(CabanaConfig.smoke().scaled(
        backend=backend, backend_options=options))
    sim.run()
    assert sim.parts.size == ref.parts.size
    _assert_dats_close(sim, ref, ("e", "b", "j", "acc", "pos", "vel"),
                       backend)
    np.testing.assert_allclose(sim.history["e_energy"],
                               ref.history["e_energy"],
                               rtol=1e-9, atol=1e-18)
