"""Differential backend-conformance harness.

The DSL's core guarantee is that every backend computes what the
sequential oracle computes.  This module checks that guarantee the way a
fuzzer would — without depending on ``hypothesis``:

1. a deterministic, seed-driven generator builds randomized mini-worlds
   (mesh sets, maps, dats, particle distributions) and loop *programs*
   (sequences of par-loop / particle-move operations drawn from a
   catalog covering every ``ArgKind`` × ``AccessMode`` the backends
   dispatch on);
2. each program runs on the ``seq`` oracle and on every backend under
   test, and the full final state (mesh dats, globals, particle data
   keyed by a persistent id, particle-cell assignment, removal counts)
   is compared;
3. on a mismatch, a greedy shrinker minimises the case — dropping
   program ops, shrinking the mesh and the particle population — while
   the mismatch persists, and the failure report names the minimal loop
   signature plus a one-command reproduction.

Determinism: every case is fully derived from its integer seed via
``np.random.default_rng``; running ``repro verify --conformance --seed S
--cases 1`` rebuilds exactly the case whose seed is ``S``.
"""
from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..backends import OmpBackend, SeqBackend, VecBackend, make_backend
from ..core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_MAX, OPP_MIN,
                        OPP_READ, OPP_RW, OPP_WRITE, Context, arg_dat,
                        arg_gbl, decl_dat, decl_global, decl_map,
                        decl_particle_set, decl_set, par_loop,
                        particle_move, push_context)
from . import kernels as K

__all__ = ["Case", "ConformanceFailure", "generate_case", "run_case",
           "compare_states", "shrink_case", "run_conformance",
           "OP_NAMES", "DEFAULT_BACKENDS"]

#: Backends checked against the oracle by default — the CPU-side
#: targets minus ``seq`` itself.
DEFAULT_BACKENDS = ("vec", "omp")

#: Per-backend constructor options for conformance runs, preferring the
#: class attribute each backend declares (e.g. an odd thread count so
#: chunk boundaries fall inside the mini-meshes).
_BACKEND_CLASSES = {"seq": SeqBackend, "vec": VecBackend,
                    "omp": OmpBackend}


def _conformance_backend(name: str, strategy: Optional[str] = None):
    cls = _BACKEND_CLASSES.get(name)
    opts = dict(getattr(cls, "conformance_options", {}) if cls else {})
    if strategy is not None and name != "seq":
        opts["strategy"] = strategy
    return make_backend(name, **opts)


class Case:
    """One generated conformance scenario, fully determined by its fields."""

    __slots__ = ("seed", "n_cells", "n_nodes", "arity", "n_parts",
                 "program")

    def __init__(self, seed: int, n_cells: int, n_nodes: int, arity: int,
                 n_parts: int, program: Tuple[str, ...]):
        self.seed = int(seed)
        self.n_cells = int(n_cells)
        self.n_nodes = int(n_nodes)
        self.arity = int(arity)
        self.n_parts = int(n_parts)
        self.program = tuple(program)

    def replace(self, **kw) -> "Case":
        fields = {s: getattr(self, s) for s in self.__slots__}
        fields.update(kw)
        return Case(**fields)

    def signature(self) -> str:
        return (f"seed={self.seed} cells={self.n_cells} "
                f"nodes={self.n_nodes} arity={self.arity} "
                f"parts={self.n_parts} program=[{', '.join(self.program)}]")

    def __repr__(self) -> str:
        return f"<Case {self.signature()}>"


def generate_case(seed: int) -> Case:
    """Derive a randomized case from an integer seed (deterministic)."""
    rng = np.random.default_rng(seed)
    n_cells = int(rng.integers(4, 11))
    n_nodes = int(rng.integers(4, 10))
    arity = int(rng.integers(2, 5))
    n_parts = int(rng.integers(8, 73))
    length = int(rng.integers(3, 7))
    program = tuple(rng.choice(OP_NAMES, size=length))
    return Case(seed, n_cells, n_nodes, arity, n_parts, program)


# -- world construction --------------------------------------------------------


def _build_world(case: Case) -> dict:
    rng = np.random.default_rng(case.seed)
    cells = decl_set(case.n_cells, "cells")
    nodes = decl_set(case.n_nodes, "nodes")
    parts = decl_particle_set(cells, case.n_parts, "parts")

    c2n = decl_map(cells, nodes, case.arity,
                   rng.integers(0, case.n_nodes,
                                size=(case.n_cells, case.arity)), "c2n")
    # 1-D chain: walking off either end removes the particle
    chain = [[i - 1 if i > 0 else -1,
              i + 1 if i + 1 < case.n_cells else -1]
             for i in range(case.n_cells)]
    c2c = decl_map(cells, cells, 2, chain, "c2c")
    p2c = decl_map(parts, cells, 1,
                   rng.integers(0, case.n_cells,
                                size=(case.n_parts, 1)), "p2c")

    world = {
        "case": case, "cells": cells, "nodes": nodes, "parts": parts,
        "c2n": c2n, "c2c": c2c, "p2c": p2c,
        "cell_src": decl_dat(cells, 1, np.float64,
                             rng.normal(size=case.n_cells), "cell_src"),
        "cell_acc": decl_dat(cells, 1, np.float64, None, "cell_acc"),
        "cell_hits": decl_dat(cells, 1, np.int64, None, "cell_hits"),
        "node_a": decl_dat(nodes, 2, np.float64,
                           rng.normal(size=(case.n_nodes, 2)), "node_a"),
        "node_b": decl_dat(nodes, 1, np.float64,
                           rng.normal(size=case.n_nodes), "node_b"),
        "pos": decl_dat(parts, 1, np.float64,
                        rng.uniform(-1.0, case.n_cells + 1.0,
                                    size=case.n_parts), "pos"),
        "w": decl_dat(parts, 2, np.float64,
                      rng.normal(size=(case.n_parts, 2)), "w"),
        "out": decl_dat(parts, 2, np.float64,
                        np.ones((case.n_parts, 2)), "out"),
        "pid": decl_dat(parts, 1, np.int64,
                        np.arange(case.n_parts), "pid"),
        "g_scale": decl_global(1, np.float64, [0.75], "g_scale"),
        "g_sum": decl_global(1, np.float64, None, "g_sum"),
        "g_min": decl_global(1, np.float64, [np.inf], "g_min"),
        "g_max": decl_global(1, np.float64, [-np.inf], "g_max"),
        "g_imin": decl_global(1, np.int64, [100], "g_imin"),
        "g_imax": decl_global(1, np.int64, [-100], "g_imax"),
        "n_removed": 0,
    }
    # second particle set sharing the cell dats (the multi-species
    # pattern: two sets, one accumulator).  Drawn strictly *after* every
    # other rng draw so pre-existing seeds keep their worlds.
    n_parts_b = int(rng.integers(4, 33))
    parts_b = decl_particle_set(cells, n_parts_b, "parts_b")
    world["parts_b"] = parts_b
    world["p2c_b"] = decl_map(parts_b, cells, 1,
                              rng.integers(0, case.n_cells,
                                           size=(n_parts_b, 1)), "p2c_b")
    world["w_b"] = decl_dat(parts_b, 2, np.float64,
                            rng.normal(size=(n_parts_b, 2)), "w_b")
    world["out_b"] = decl_dat(parts_b, 2, np.float64,
                              np.ones((n_parts_b, 2)), "out_b")
    world["pid_b"] = decl_dat(parts_b, 1, np.int64,
                              np.arange(n_parts_b), "pid_b")
    return world


# -- the operation catalog -----------------------------------------------------


def _op_direct_axpy(w: dict) -> None:
    par_loop(K.k_direct_axpy, "c_direct_axpy", w["parts"],
             OPP_ITERATE_ALL,
             arg_dat(w["w"], OPP_READ), arg_dat(w["out"], OPP_RW))


def _op_direct_write(w: dict) -> None:
    par_loop(K.k_direct_write, "c_direct_write", w["parts"],
             OPP_ITERATE_ALL,
             arg_dat(w["w"], OPP_READ), arg_dat(w["out"], OPP_WRITE))


def _op_direct_inc(w: dict) -> None:
    par_loop(K.k_direct_inc, "c_direct_inc", w["parts"],
             OPP_ITERATE_ALL,
             arg_dat(w["w"], OPP_READ), arg_gbl(w["g_scale"], OPP_READ),
             arg_dat(w["out"], OPP_INC))


def _op_mesh_gather(w: dict) -> None:
    par_loop(K.k_mesh_gather, "c_mesh_gather", w["cells"],
             OPP_ITERATE_ALL,
             arg_dat(w["cell_acc"], OPP_RW),
             arg_dat(w["node_a"], 0, w["c2n"], OPP_READ),
             arg_dat(w["node_b"], w["case"].arity - 1, w["c2n"],
                     OPP_READ))


def _op_mesh_inc(w: dict) -> None:
    par_loop(K.k_mesh_inc, "c_mesh_inc", w["cells"], OPP_ITERATE_ALL,
             arg_dat(w["cell_src"], OPP_READ),
             arg_dat(w["node_a"], w["case"].arity - 1, w["c2n"],
                     OPP_INC))


def _op_p2c_gather(w: dict) -> None:
    par_loop(K.k_p2c_gather, "c_p2c_gather", w["parts"], OPP_ITERATE_ALL,
             arg_dat(w["cell_src"], w["p2c"], OPP_READ),
             arg_dat(w["out"], OPP_RW))


def _op_p2c_inc(w: dict) -> None:
    par_loop(K.k_p2c_inc, "c_p2c_inc", w["parts"], OPP_ITERATE_ALL,
             arg_dat(w["w"], OPP_READ),
             arg_dat(w["cell_acc"], w["p2c"], OPP_INC))


def _op_double_deposit(w: dict) -> None:
    par_loop(K.k_double_deposit, "c_double_deposit", w["parts"],
             OPP_ITERATE_ALL,
             arg_dat(w["w"], OPP_READ),
             arg_dat(w["node_a"], 0, w["c2n"], w["p2c"], OPP_INC),
             arg_dat(w["node_b"], w["case"].arity - 1, w["c2n"],
                     w["p2c"], OPP_INC))


def _op_gbl_reduce(w: dict) -> None:
    par_loop(K.k_gbl_reduce, "c_gbl_reduce", w["parts"],
             OPP_ITERATE_ALL,
             arg_dat(w["w"], OPP_READ),
             arg_gbl(w["g_sum"], OPP_INC),
             arg_gbl(w["g_min"], OPP_MIN),
             arg_gbl(w["g_max"], OPP_MAX))


def _op_gbl_int_minmax(w: dict) -> None:
    par_loop(K.k_gbl_int_minmax, "c_gbl_int_minmax", w["parts"],
             OPP_ITERATE_ALL,
             arg_dat(w["pid"], OPP_READ),
             arg_gbl(w["g_imin"], OPP_MIN),
             arg_gbl(w["g_imax"], OPP_MAX))


def _op_np_transcendental(w: dict) -> None:
    par_loop(K.k_np_transcendental, "c_np_transcendental", w["parts"],
             OPP_ITERATE_ALL,
             arg_dat(w["w"], OPP_READ), arg_dat(w["out"], OPP_RW))


def _walk(w: dict):
    return particle_move(K.k_walk, "c_move", w["parts"], w["c2c"],
                         w["p2c"],
                         arg_dat(w["pos"], OPP_READ),
                         arg_dat(w["cell_hits"], w["p2c"], OPP_INC))


def _op_move(w: dict) -> None:
    w["n_removed"] += _walk(w).n_removed


def _op_two_set_shared_inc(w: dict) -> None:
    """Multi-species: both particle sets scatter-add into ONE cell dat
    (each through its own p2c map), then the second set gathers the
    combined result back — the loop pattern of the multi-species
    validation app."""
    par_loop(K.k_p2c_inc, "c_shared_inc_a", w["parts"],
             OPP_ITERATE_ALL,
             arg_dat(w["w"], OPP_READ),
             arg_dat(w["cell_acc"], w["p2c"], OPP_INC))
    par_loop(K.k_p2c_inc_b, "c_shared_inc_b", w["parts_b"],
             OPP_ITERATE_ALL,
             arg_dat(w["w_b"], OPP_READ),
             arg_dat(w["cell_acc"], w["p2c_b"], OPP_INC))
    par_loop(K.k_p2c_gather, "c_shared_gather_b", w["parts_b"],
             OPP_ITERATE_ALL,
             arg_dat(w["cell_acc"], w["p2c_b"], OPP_READ),
             arg_dat(w["out_b"], OPP_RW))


OPS: Dict[str, Callable[[dict], None]] = {
    "direct_axpy": _op_direct_axpy,
    "direct_write": _op_direct_write,
    "direct_inc": _op_direct_inc,
    "mesh_gather": _op_mesh_gather,
    "mesh_inc": _op_mesh_inc,
    "p2c_gather": _op_p2c_gather,
    "p2c_inc": _op_p2c_inc,
    "double_deposit": _op_double_deposit,
    "gbl_reduce": _op_gbl_reduce,
    "gbl_int_minmax": _op_gbl_int_minmax,
    "np_transcendental": _op_np_transcendental,
    "move": _op_move,
    # multi-species op: two particle sets sharing one cell accumulator
    "two_set_shared_inc": _op_two_set_shared_inc,
}
OP_NAMES = tuple(sorted(OPS))

# -- execution + comparison ----------------------------------------------------


def run_case(case: Case, backend) -> Dict[str, np.ndarray]:
    """Execute a case's program on one backend instance; return the
    final world state.

    Plan caches are cleared first: plans key on ``id(map)``, and Python
    reuses object ids across generated cases.
    """
    return _run_case_perf(case, backend)[0]


def _run_case_perf(case: Case, backend):
    """:func:`run_case`, also returning the run's perf recorder."""
    plan = getattr(backend, "plan", None)
    if plan is not None:
        plan.clear()
    ctx = Context("seq")
    ctx.backend = backend
    ctx.backend_name = backend.name
    with push_context(ctx):
        world = _build_world(case)
        for op in case.program:
            OPS[op](world)
        return _snapshot(world), ctx.perf


def _snapshot(w: dict) -> Dict[str, np.ndarray]:
    state: Dict[str, np.ndarray] = {}
    for name in ("cell_src", "cell_acc", "cell_hits", "node_a", "node_b"):
        state[name] = w[name].data.copy()
    for name in ("g_sum", "g_min", "g_max", "g_imin", "g_imax"):
        state[name] = w[name].data.copy()
    # hole-filling reorders survivors, so particle rows are keyed by the
    # persistent id dat and compared sorted
    n = w["parts"].size
    order = np.argsort(w["pid"].data[:n, 0], kind="stable")
    state["pid"] = w["pid"].data[order, 0].copy()
    state["p2c_assign"] = w["p2c"].p2c[:n][order].copy()
    state["pos"] = w["pos"].data[order].copy()
    state["w"] = w["w"].data[order].copy()
    state["out"] = w["out"].data[order].copy()
    nb = w["parts_b"].size
    order_b = np.argsort(w["pid_b"].data[:nb, 0], kind="stable")
    state["pid_b"] = w["pid_b"].data[order_b, 0].copy()
    state["p2c_b_assign"] = w["p2c_b"].p2c[:nb][order_b].copy()
    state["w_b"] = w["w_b"].data[order_b].copy()
    state["out_b"] = w["out_b"].data[order_b].copy()
    state["n_removed"] = np.asarray([w["n_removed"]])
    return state


def compare_states(expected: Dict[str, np.ndarray],
                   got: Dict[str, np.ndarray],
                   rtol: float = 1e-9, atol: float = 1e-11) -> List[str]:
    """Describe every mismatch between two state snapshots (empty = equal)."""
    issues: List[str] = []
    for key in expected:
        a, b = expected[key], got.get(key)
        if b is None:
            issues.append(f"{key}: missing from result")
            continue
        if a.shape != b.shape:
            issues.append(f"{key}: shape {b.shape} != expected {a.shape}")
            continue
        if np.issubdtype(a.dtype, np.integer):
            if not np.array_equal(a, b):
                bad = int(np.count_nonzero(a != b))
                issues.append(f"{key}: {bad} integer element(s) differ")
        elif not np.allclose(a, b, rtol=rtol, atol=atol, equal_nan=True):
            err = float(np.nanmax(np.abs(a - b)))
            issues.append(f"{key}: max abs deviation {err:.3e}")
    return issues


class ConformanceFailure(AssertionError):
    """A backend diverged from the sequential oracle."""

    def __init__(self, backend_name: str, case: Case, shrunk: Case,
                 mismatches: List[str]):
        self.backend_name = backend_name
        self.case = case
        self.shrunk = shrunk
        self.mismatches = mismatches
        lines = [f"backend {backend_name!r} diverged from the seq oracle",
                 f"  original case: {case.signature()}",
                 f"  minimal case:  {shrunk.signature()}",
                 "  mismatches:"]
        lines += [f"    - {m}" for m in mismatches]
        lines.append("  reproduce: PYTHONPATH=src python -m repro verify "
                     f"--conformance --seed {case.seed} --cases 1 "
                     f"--backends {backend_name}")
        super().__init__("\n".join(lines))


#: Ops the native tier runs but cannot reproduce bit for bit, by name
#: (docs/testing.md, "Floating-point contract"): a case containing one is
#: compared at the standard tolerance instead of rtol = atol = 0.
NATIVE_INEXACT_OPS = {
    "np_transcendental": "np.exp / np.log are NumPy's own routines; the C "
                         "target (like math.*) calls libm",
}


def native_tally() -> dict:
    """Empty count of how plain ``vec``'s cases were judged."""
    return {"exact_cases": 0, "inexact_cases": 0, "declined_cases": 0,
            "declined": {}}


def _case_fails(case: Case, oracle, backend,
                native_log: Optional[dict] = None) -> List[str]:
    """Mismatches of ``backend`` against the oracle on ``case``.

    Plain ``vec`` runs its loops on the native tier — ``seq``'s algorithm
    compiled — so a case all of whose loops the tier accepted is held to
    ``rtol = atol = 0``.  A case with a declined loop (its perf row
    carries the reason under ``fallback``), or with an op named in
    :data:`NATIVE_INEXACT_OPS`, is compared at the standard tolerance and
    tallied in ``native_log``.
    """
    expected = run_case(case, oracle)
    got, perf = _run_case_perf(case, backend)
    if type(backend) is not VecBackend:
        return compare_states(expected, got)
    declined = {st.extras["fallback"] for st in perf.loops.values()
                if isinstance(st.extras.get("fallback"), str)}
    inexact = NATIVE_INEXACT_OPS.keys() & set(case.program)
    if native_log is not None:
        for reason in declined:
            native_log["declined"][reason] = \
                native_log["declined"].get(reason, 0) + 1
        native_log["declined_cases" if declined else
                   "inexact_cases" if inexact else "exact_cases"] += 1
    if declined or inexact:
        return compare_states(expected, got)
    return compare_states(expected, got, rtol=0.0, atol=0.0)


def shrink_case(case: Case, oracle, backend,
                max_rounds: int = 40) -> Tuple[Case, List[str]]:
    """Greedy minimisation: keep applying the first shrinking candidate
    that still reproduces the mismatch."""
    mismatches = _case_fails(case, oracle, backend)
    if not mismatches:
        return case, mismatches
    for _ in range(max_rounds):
        for candidate in _shrink_candidates(case):
            cand_mismatches = _case_fails(candidate, oracle, backend)
            if cand_mismatches:
                case, mismatches = candidate, cand_mismatches
                break
        else:
            break
    return case, mismatches


def _shrink_candidates(case: Case):
    if len(case.program) > 1:
        for i in range(len(case.program)):
            yield case.replace(program=case.program[:i]
                               + case.program[i + 1:])
    if case.n_parts > 4:
        yield case.replace(n_parts=max(4, case.n_parts // 2))
        yield case.replace(n_parts=case.n_parts - 1)
    if case.n_cells > 4:
        yield case.replace(n_cells=case.n_cells - 1)
    if case.n_nodes > 4:
        yield case.replace(n_nodes=case.n_nodes - 1)
    if case.arity > 2:
        yield case.replace(arity=case.arity - 1)


def run_conformance(n_cases: int = 60, seed: int = 0,
                    backends: Sequence[str] = DEFAULT_BACKENDS,
                    progress: Optional[Callable[[str], None]] = None,
                    shrink: bool = True,
                    strategy: Optional[str] = None) -> dict:
    """Sweep ``n_cases`` generated cases over every backend.

    Backend instances are created once and reused across the sweep.
    ``strategy`` forces one reduction strategy on every backend under
    test (e.g. ``strategy="coloring"``) — the seq oracle is never forced.
    Raises :class:`ConformanceFailure` — with a shrunk minimal case — on
    the first divergence; returns a summary dict when everything agrees.
    Its ``native`` entry counts plain ``vec``'s cases: held to zero
    tolerance, named-inexact, and declined (with each reason's count).
    """
    oracle = _conformance_backend("seq")
    under_test = [(name, _conformance_backend(name, strategy))
                  for name in backends]
    checked = 0
    native_log = native_tally()
    for i in range(n_cases):
        case = generate_case(seed + i)
        for name, backend in under_test:
            mismatches = _case_fails(case, oracle, backend, native_log)
            if mismatches:
                shrunk = case
                if shrink:
                    shrunk, shrunk_mismatches = shrink_case(
                        case, oracle, backend)
                    if shrunk_mismatches:
                        mismatches = shrunk_mismatches
                raise ConformanceFailure(name, case, shrunk, mismatches)
            checked += 1
        if progress is not None and (i + 1) % 25 == 0:
            progress(f"conformance: {i + 1}/{n_cases} cases ok")
    return {"cases": n_cases, "backends": list(backends),
            "executions": checked, "strategy": strategy,
            "native": native_log}
