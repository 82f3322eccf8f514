"""The distributed-op conformance harness: deterministic generation,
clean sweeps over both transports, and — the point of the exercise —
catching and shrinking an injected distribution bug."""
import numpy as np
import pytest

import repro.verify.dist_conformance as dc
from repro.verify.dist_conformance import (DIST_BACKENDS, DIST_OP_NAMES,
                                           DistCase,
                                           DistConformanceFailure,
                                           generate_dist_case,
                                           run_dist_case,
                                           run_dist_conformance)


def test_generation_is_deterministic():
    a, b = generate_dist_case(42), generate_dist_case(42)
    assert a.to_dict() == b.to_dict()
    assert a.nranks in (2, 3)
    assert a.n_cells >= 2 * a.nranks
    assert set(a.program) <= set(DIST_OP_NAMES)
    assert generate_dist_case(43).to_dict() != a.to_dict()


def test_backend_column_is_drawn_after_every_other_field():
    """A seed keeps the mesh, ranks and program it had before the
    backend column existed (these are seed 42's from then)."""
    case = generate_dist_case(42)
    assert case.to_dict() == {
        "seed": 42, "n_cells": 12, "n_nodes": 7, "arity": 3,
        "n_parts": 36, "nranks": 2,
        "program": ("cell_neighbor_inc", "move", "cell_push_gather",
                    "cell_neighbor_inc", "gbl_reduce", "rebalance"),
        "backend": case.backend}
    assert case.backend in DIST_BACKENDS
    assert {generate_dist_case(s).backend for s in range(20)} \
        == set(DIST_BACKENDS)


def test_case_replace_and_signature():
    case = generate_dist_case(7)
    smaller = case.replace(n_parts=4)
    assert smaller.n_parts == 4 and smaller.seed == case.seed
    assert f"seed={case.seed}" in case.signature()
    assert "ranks=" in case.signature()
    assert f"backend={case.backend}" in case.signature()


def test_every_op_conforms_individually():
    """Each catalog op alone, on each backend, must agree with the
    1-rank seq oracle."""
    for op in DIST_OP_NAMES:
        case = DistCase(seed=5, n_cells=9, n_nodes=6, arity=3,
                        n_parts=30, nranks=3, program=(op,))
        expected = run_dist_case(case.replace(nranks=1), "sim")
        for backend in DIST_BACKENDS:
            got = run_dist_case(case.replace(backend=backend), "sim")
            mismatches = dc.compare_states(expected, got)
            assert not mismatches, f"op {op!r} on {backend}: {mismatches}"


def test_sweep_passes_over_sim():
    res = run_dist_conformance(n_cases=10, seed=0, transport="sim")
    assert res["executions"] == 10
    assert res["transport"] == "sim"


def test_sweep_passes_over_proc():
    res = run_dist_conformance(n_cases=2, seed=3, transport="proc")
    assert res["executions"] == 2


def test_assembled_state_has_global_shapes():
    case = DistCase(seed=11, n_cells=8, n_nodes=5, arity=2, n_parts=16,
                    nranks=2, program=("deposit_nodes", "gbl_reduce"))
    state = run_dist_case(case, "sim")
    assert state["cell_acc"].shape == (8, 1)
    assert state["node_a"].shape == (5, 2)
    assert state["g_sum_hist"].shape == (1,)
    # no particle moved, so everyone survives with their global ids
    np.testing.assert_array_equal(state["pid"], np.arange(16))


def test_injected_distribution_bug_is_caught_and_shrunk(monkeypatch):
    """A bug that only manifests on >1 rank (a lost ghost contribution)
    must be detected, attributed, shrunk, and reported with a repro
    command."""
    real = dc.DIST_OPS["cell_neighbor_inc"]

    def buggy(app):
        real(app)
        if app.nranks > 1 and app.ranks[1] is not None:
            app.ranks[1].cell_acc.data[0, 0] += 1.0  # corrupt one owner row

    monkeypatch.setitem(dc.DIST_OPS, "cell_neighbor_inc", buggy)
    with pytest.raises(DistConformanceFailure) as exc_info:
        run_dist_conformance(n_cases=5, seed=0, transport="sim")
    failure = exc_info.value
    assert "cell_neighbor_inc" in failure.shrunk.program
    assert len(failure.shrunk.program) == 1
    assert failure.mismatches
    msg = str(failure)
    assert "--dist-conformance" in msg
    assert f"--seed {failure.case.seed}" in msg
    assert "minimal case" in msg


def test_unknown_transport_rejected():
    case = generate_dist_case(1)
    with pytest.raises(ValueError, match="transport"):
        run_dist_case(case, "tcp")
