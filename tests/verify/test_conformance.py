"""Differential backend-conformance suite.

Marked ``conformance`` so CI can run the full randomized sweep as its
own job (``pytest -m conformance``); the sweep size follows the
``--conformance-cases`` option so local runs stay quick.
"""
import numpy as np
import pytest

from repro.core.args import ArgKind
from repro.core.types import AccessMode
from repro.translator import native
from repro.verify.conformance import (DEFAULT_BACKENDS, NATIVE_INEXACT_OPS,
                                      Case, ConformanceFailure, OP_NAMES,
                                      OPS, _build_world, _case_fails,
                                      _conformance_backend, compare_states,
                                      generate_case, native_tally, run_case,
                                      run_conformance, shrink_case)

pytestmark = pytest.mark.conformance

BACKENDS = list(DEFAULT_BACKENDS)


# -- generator determinism -----------------------------------------------------


def test_generation_is_deterministic():
    a, b = generate_case(42), generate_case(42)
    assert a.signature() == b.signature()
    assert generate_case(43).signature() != a.signature()


def test_case_replace_and_signature():
    c = generate_case(1)
    d = c.replace(n_parts=4)
    assert d.n_parts == 4 and d.seed == c.seed
    assert f"parts={c.n_parts}" in c.signature()
    assert all(op in OP_NAMES for op in c.program)


def test_world_build_is_deterministic():
    from repro.core.api import Context, push_context
    c = generate_case(5)
    with push_context(Context("seq")):
        w1 = _build_world(c)
        w2 = _build_world(c)
        assert np.array_equal(w1["pos"].data, w2["pos"].data)
        assert np.array_equal(w1["c2n"].values, w2["c2n"].values)


# -- descriptor-matrix coverage (backend × ArgKind × AccessMode) ---------------


def test_catalog_covers_descriptor_matrix():
    """The op catalog must exercise every ArgKind × AccessMode combo the
    backends dispatch on (racy combos like indirect WRITE are excluded
    by design — the sanitizer rejects them instead)."""
    from repro.core.loops import add_loop_hook, remove_loop_hook

    seen = set()

    def record(loop):
        for a in loop.args:
            seen.add((a.kind, a.access))

    hook = add_loop_hook(record)
    try:
        case = generate_case(0).replace(program=OP_NAMES)
        run_case(case, _conformance_backend("seq"))
    finally:
        remove_loop_hook(hook)

    required = {
        (ArgKind.DIRECT, AccessMode.READ),
        (ArgKind.DIRECT, AccessMode.WRITE),
        (ArgKind.DIRECT, AccessMode.RW),
        (ArgKind.DIRECT, AccessMode.INC),
        (ArgKind.INDIRECT, AccessMode.READ),
        (ArgKind.INDIRECT, AccessMode.INC),
        (ArgKind.P2C, AccessMode.READ),
        (ArgKind.P2C, AccessMode.INC),
        (ArgKind.DOUBLE, AccessMode.INC),
        (ArgKind.GLOBAL, AccessMode.READ),
        (ArgKind.GLOBAL, AccessMode.INC),
        (ArgKind.GLOBAL, AccessMode.MIN),
        (ArgKind.GLOBAL, AccessMode.MAX),
    }
    assert required <= seen


def test_two_set_shared_dat_op_sums_both_sets():
    """The multi-species op must accumulate contributions from BOTH
    particle sets into the one shared cell dat (and snapshot the second
    set's state so divergences there are caught)."""
    from repro.core.api import Context, push_context
    case = generate_case(11).replace(program=("two_set_shared_inc",))
    state = run_case(case, _conformance_backend("seq"))
    with push_context(Context("seq")):
        w = _build_world(case)
    acc = np.zeros(case.n_cells)
    wa = w["w"].data[: w["parts"].size]
    np.add.at(acc, w["p2c"].p2c[: w["parts"].size],
              wa[:, 0] * wa[:, 1])
    wb = w["w_b"].data[: w["parts_b"].size]
    np.add.at(acc, w["p2c_b"].p2c[: w["parts_b"].size],
              0.5 * wb[:, 0] - wb[:, 1])
    assert np.allclose(state["cell_acc"][:, 0], acc, rtol=1e-12)
    for key in ("pid_b", "p2c_b_assign", "w_b", "out_b"):
        assert key in state
    # the trailing gather saw the combined deposit of both sets
    assert not np.allclose(state["out_b"],
                           np.ones_like(state["out_b"]))


# -- per-op single-program conformance -----------------------------------------


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("op", OP_NAMES)
def test_single_op_conforms(backend_name, op):
    """``vec`` here is the native tier where a compiler exists: held to
    rtol = atol = 0 on every op it accepts (see ``_case_fails``)."""
    oracle = _conformance_backend("seq")
    backend = _conformance_backend(backend_name)
    for seed in (0, 1):
        case = generate_case(seed).replace(program=(op,))
        mismatches = _case_fails(case, oracle, backend)
        assert not mismatches, f"{op} on {backend_name}: {mismatches}"


@pytest.mark.parametrize("op", OP_NAMES)
def test_single_op_conforms_on_the_numpy_target(op, numpy_target):
    oracle, vec = _conformance_backend("seq"), _conformance_backend("vec")
    for seed in (0, 1):
        case = generate_case(seed).replace(program=(op,))
        assert not _case_fails(case, oracle, vec), op


needs_cc = pytest.mark.skipif(native.compiler() is None,
                              reason="no C compiler")


@needs_cc
def test_native_tier_accepts_the_whole_descriptor_catalog():
    """Zero declines for the whole ArgKind x AccessMode catalog."""
    oracle, vec = _conformance_backend("seq"), _conformance_backend("vec")
    for op in OP_NAMES:
        log = native_tally()
        case = generate_case(2).replace(program=(op,))
        assert not _case_fails(case, oracle, vec, log), op
        assert log["declined"] == {}, (op, log)
        assert log["inexact_cases"] == (op in NATIVE_INEXACT_OPS), op


@needs_cc
def test_native_sweep_is_bit_equal_to_seq(request):
    """Random programs without the named-inexact ops: every loop is the
    tier's, all cases at zero tolerance, none declined."""
    n = int(request.config.getoption("--conformance-cases"))
    oracle, vec = _conformance_backend("seq"), _conformance_backend("vec")
    log = native_tally()
    for seed in range(n):
        case = generate_case(seed)
        case = case.replace(program=tuple(
            op for op in case.program if op not in NATIVE_INEXACT_OPS))
        assert not _case_fails(case, oracle, vec, log), case.signature()
    assert log["exact_cases"] == n and log["declined"] == {}


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_move_with_removals_and_hole_filling(backend_name):
    """Repeated moves force removals (chain walk-off) and hole-filling
    compaction; survivor state must match the oracle keyed by pid."""
    oracle = _conformance_backend("seq")
    backend = _conformance_backend(backend_name)
    case = generate_case(9).replace(
        n_parts=64, program=("move", "p2c_inc", "move", "double_deposit",
                             "move"))
    expected = run_case(case, oracle)
    got = run_case(case, backend)
    assert expected["n_removed"][0] > 0, "case must remove particles"
    assert compare_states(expected, got) == []


# -- the randomized sweep ------------------------------------------------------


def test_conformance_sweep(request):
    n = int(request.config.getoption("--conformance-cases"))
    summary = run_conformance(n_cases=n, seed=0, backends=BACKENDS)
    assert summary["executions"] == n * len(BACKENDS)


# -- mismatch reporting + shrinking --------------------------------------------


class _LyingBackend:
    """Oracle-like backend that corrupts the global sum — a stand-in for
    a real backend divergence, used to prove the shrinker minimises."""

    name = "lying"

    def __init__(self):
        from repro.backends import SeqBackend
        self._seq = SeqBackend()
        self.plan = None

    def execute(self, loop, start, end):
        out = self._seq.execute(loop, start, end)
        if loop.name == "c_gbl_reduce":
            loop.args[1].dat.data += 1.0     # corrupt g_sum
        return out

    def execute_move(self, loop):
        return self._seq.execute_move(loop)


def test_shrinker_minimises_failing_case():
    from repro.backends import SeqBackend
    oracle = SeqBackend()
    lying = _LyingBackend()
    case = generate_case(3).replace(
        program=("direct_axpy", "gbl_reduce", "mesh_inc", "p2c_gather"))
    mismatches = compare_states(run_case(case, oracle),
                                run_case(case, lying))
    assert any(m.startswith("g_sum") for m in mismatches)

    shrunk, shrunk_mismatches = shrink_case(case, oracle, lying)
    assert shrunk_mismatches
    # minimal program is the single corrupted op on the smallest world
    assert shrunk.program == ("gbl_reduce",)
    assert shrunk.n_parts <= 8
    assert len(shrunk.program) < len(case.program)


def test_failure_report_names_minimal_case_and_repro():
    err = ConformanceFailure(
        "vec", generate_case(7),
        generate_case(7).replace(program=("gbl_reduce",), n_parts=4),
        ["g_sum: max abs deviation 1.000e+00"])
    msg = str(err)
    assert "minimal case" in msg
    assert "program=[gbl_reduce]" in msg
    assert "--seed 7 --cases 1 --backends vec" in msg
    assert "g_sum" in msg


def test_sweep_raises_conformance_failure_on_divergence(monkeypatch):
    import repro.verify.conformance as conf
    monkeypatch.setitem(conf._BACKEND_CLASSES, "lying", None)
    monkeypatch.setattr(conf, "make_backend",
                        lambda name, **kw: (_LyingBackend()
                                            if name == "lying"
                                            else conf.SeqBackend()))
    with pytest.raises(ConformanceFailure) as exc:
        conf.run_conformance(n_cases=30, seed=0, backends=("lying",),
                             shrink=True)
    assert exc.value.backend_name == "lying"
    assert exc.value.shrunk.program == ("gbl_reduce",)


def test_compare_states_reports_kinds():
    a = {"x": np.array([1.0, 2.0]), "n": np.array([3])}
    same = {"x": np.array([1.0, 2.0]), "n": np.array([3])}
    assert compare_states(a, same) == []
    off = {"x": np.array([1.0, 2.5]), "n": np.array([4])}
    issues = compare_states(a, off)
    assert any("x" in m and "deviation" in m for m in issues)
    assert any("n" in m and "integer" in m for m in issues)
    assert compare_states(a, {"x": np.array([1.0, 2.0])}) \
        == ["n: missing from result"]
    assert "shape" in compare_states(a, {"x": np.zeros(3),
                                         "n": np.array([3])})[0]
