"""Whole-app backend equivalence (paper §3: every parallelization must
compute the same physics).

Runs small FemPIC and CabanaPIC problems end-to-end under each CPU
execution strategy — sequential reference, vectorised with atomic and
segmented-reduction race handling, simulated OpenMP, and the true
multiprocess backend — and checks fields and particle state agree to
``np.allclose``.
"""
import numpy as np
import pytest

from repro.apps.cabana import CabanaConfig, CabanaSimulation
from repro.apps.fempic import FemPicConfig, FemPicSimulation

#: (backend name, backend options) — mp uses min_chunk=1 so the tiny
#: smoke problems still exercise the real worker-pool path
STRATEGIES = [
    ("vec", {}),
    ("vec", {"strategy": "segmented_reduction"}),
    ("omp", {}),
    ("mp", {"nworkers": 2, "min_chunk": 1}),
]

IDS = ["vec-atomics", "vec-segmented", "omp", "mp"]


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


def _close(ctx):
    be = ctx.backend
    if hasattr(be, "close"):
        be.close()


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
    try:
        assert sim.parts.size == ref.parts.size
        _assert_dats_close(sim, ref, ("phi", "ncd", "nw", "ef",
                                      "pos", "vel", "lc"), backend)
        np.testing.assert_allclose(sim.history["field_energy"],
                                   ref.history["field_energy"], rtol=1e-9)
    finally:
        _close(sim.ctx)


@pytest.mark.parametrize(("backend", "options"), STRATEGIES, ids=IDS)
def test_cabana_equivalence(backend, options, cabana_reference):
    ref = cabana_reference
    sim = CabanaSimulation(CabanaConfig.smoke().scaled(
        backend=backend, backend_options=options))
    sim.run()
    try:
        assert sim.parts.size == ref.parts.size
        _assert_dats_close(sim, ref, ("e", "b", "j", "acc", "pos", "vel"),
                           backend)
        np.testing.assert_allclose(sim.history["e_energy"],
                                   ref.history["e_energy"],
                                   rtol=1e-9, atol=1e-18)
    finally:
        _close(sim.ctx)


def test_mp_actually_parallelised_fempic():
    """The mp runs above must not silently fall back to vec."""
    sim = FemPicSimulation(FemPicConfig.smoke().scaled(
        backend="mp", backend_options={"nworkers": 2, "min_chunk": 1}))
    sim.run()
    stats = sim.ctx.backend.stats
    _close(sim.ctx)
    assert stats["parallel_loops"] > 0
    assert stats["parallel_moves"] > 0
    assert stats["fallback_loops"] == 0
    assert stats["fallback_moves"] == 0
