"""Distributed-op mode of the differential conformance harness.

The single-process harness (:mod:`repro.verify.conformance`) checks that
every backend computes what the ``seq`` oracle computes.  This module
checks the orthogonal guarantee of the *distributed* runtime: that
partitioning a program over N ranks — halo pushes and reductions,
multi-hop particle migration, the direct-hop global move — leaves the
assembled global state identical to running the very same program on a
single rank.

The recipe mirrors the backend harness:

1. a seed-driven generator builds randomized 1-D chain mini-worlds
   (cell ``i`` spans ``[i, i+1)``) plus loop programs drawn from a
   catalog that covers every distributed exchange pattern: owner→ghost
   pushes before indirect READs, ghost→owner reductions after indirect
   INCs (for both cell and node dats), global reductions, the multi-hop
   ``mpi_particle_move``, the DH global move over a synthetic
   structured overlay and a live elastic repartition;
2. the mini-world is an app written once on
   :class:`~repro.runtime.ranked.RankedApp`, so every op runs through
   the exchanges the apps step with.  The program runs partitioned on
   2–3 ranks (over the simulated transport or over real rank processes)
   on the case's backend (``seq`` or native ``vec``), and on 1 rank on
   ``seq`` — the oracle, which is the plain single-rank path.  The
   *assembled* global state (owned dat rows scattered back to global
   ids, particles keyed by a persistent id, collective-reduction
   histories, removal counts) is compared;
3. on a mismatch a greedy shrinker minimises the case — dropping ops,
   shrinking mesh/particles, reducing the rank count — and the failure
   names the minimal case plus a one-command reproduction.

Every case is fully derived from its integer seed, so
``repro verify --dist-conformance --seed S --cases 1`` replays exactly
the failing case.
"""
from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_MAX, OPP_MIN,
                        OPP_READ, OPP_RW, arg_dat, arg_gbl, decl_dat,
                        decl_global, decl_map, decl_particle_set, decl_set,
                        par_loop)
from ..mesh.overlay import StructuredOverlay
from ..runtime.comm import SimComm
from ..runtime.ranked import Rank, RankedApp
from . import kernels as K
from .conformance import compare_states

__all__ = ["DistCase", "DistConformanceFailure", "generate_dist_case",
           "run_dist_case", "shrink_dist_case", "run_dist_conformance",
           "DIST_OP_NAMES", "DIST_BACKENDS"]

#: the on-node backend a partitioned case runs on (drawn from its seed);
#: the 1-rank oracle is always ``seq``
DIST_BACKENDS = ("seq", "vec")


class DistCase:
    """One generated distributed scenario, fully determined by its fields."""

    __slots__ = ("seed", "n_cells", "n_nodes", "arity", "n_parts",
                 "nranks", "program", "backend")

    def __init__(self, seed: int, n_cells: int, n_nodes: int, arity: int,
                 n_parts: int, nranks: int, program: Tuple[str, ...],
                 backend: str = "seq"):
        self.seed = int(seed)
        self.n_cells = int(n_cells)
        self.n_nodes = int(n_nodes)
        self.arity = int(arity)
        self.n_parts = int(n_parts)
        self.nranks = int(nranks)
        self.program = tuple(str(p) for p in program)
        self.backend = str(backend)

    def replace(self, **kw) -> "DistCase":
        fields = {s: getattr(self, s) for s in self.__slots__}
        fields.update(kw)
        return DistCase(**fields)

    def to_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}

    def signature(self) -> str:
        return (f"seed={self.seed} cells={self.n_cells} "
                f"nodes={self.n_nodes} arity={self.arity} "
                f"parts={self.n_parts} ranks={self.nranks} "
                f"program=[{', '.join(self.program)}] "
                f"backend={self.backend}")

    def __repr__(self) -> str:
        return f"<DistCase {self.signature()}>"


def generate_dist_case(seed: int) -> DistCase:
    """Derive a randomized distributed case from a seed (deterministic)."""
    rng = np.random.default_rng(seed)
    nranks = int(rng.integers(2, 4))
    # every rank must own at least one chain cell
    n_cells = int(rng.integers(2 * nranks, 15))
    n_nodes = int(rng.integers(4, 10))
    arity = int(rng.integers(2, 5))
    n_parts = int(rng.integers(8, 73))
    length = int(rng.integers(3, 7))
    program = tuple(rng.choice(DIST_OP_NAMES, size=length))
    # drawn last, so every earlier field of a seed is what it always was
    backend = str(rng.choice(DIST_BACKENDS))
    return DistCase(seed, n_cells, n_nodes, arity, n_parts, nranks,
                    program, backend)


# -- world construction --------------------------------------------------------


def _global_arrays(case: DistCase) -> dict:
    """The unpartitioned world, drawn in a fixed order so every rank (and
    the 1-rank oracle) derives bit-identical initial data from the seed."""
    rng = np.random.default_rng(case.seed)
    n = case.n_cells
    g = {
        "c2n": rng.integers(0, case.n_nodes, size=(n, case.arity)),
        "cell_src": rng.normal(size=n),
        "node_a": rng.normal(size=(case.n_nodes, 2)),
        "node_b": rng.normal(size=case.n_nodes),
        "part_cell": rng.integers(0, n, size=case.n_parts),
        "pos_x": rng.uniform(-1.0, n + 1.0, size=case.n_parts),
        "w": rng.normal(size=(case.n_parts, 2)),
        "pid": np.arange(case.n_parts, dtype=np.int64),
    }
    # 1-D chain adjacency: walking off either end removes the particle
    g["c2c"] = np.array([[i - 1 if i > 0 else -1,
                          i + 1 if i + 1 < n else -1] for i in range(n)],
                        dtype=np.int64)
    # clamp-neighbour map: targets stay on the chain, so a boundary-owned
    # cell's neighbour is a *halo* cell on a partitioned run
    idx = np.arange(n, dtype=np.int64)
    g["clamp"] = np.stack([np.maximum(idx - 1, 0),
                           np.minimum(idx + 1, n - 1)], axis=1)
    return g


class _ChainWorld(RankedApp):
    """The mini-world as an app written once for 1..N ranks: a block
    partition of the chain, one ``_declare`` per rank, and the catalog
    ops below run through the same exchanges the apps step with."""

    part_dats = ("pos", "w", "out", "pid")
    cell_dats = ("cell_acc", "cell_hits")
    node_dats = ("node_a", "node_b")

    def __init__(self, case: DistCase, comm):
        self.case = case
        self.cfg = SimpleNamespace(backend=case.backend, backend_options={})
        g = self.g = _global_arrays(case)
        n = case.n_cells
        idx = np.arange(n, dtype=np.int64)
        self._partition(
            comm, "block",
            ("dist_chain", case.seed, n, case.n_nodes, case.arity),
            centroids=np.column_stack([idx + 0.5, np.zeros(n),
                                       np.zeros(n)]),
            c2c=g["c2c"], c2n=g["c2n"], axis=0, layers=(float(n), n))
        for rk in self.each_rank():
            g2l = np.full(n, -1, dtype=np.int64)
            g2l[rk.rm.cells_global] = np.arange(rk.rm.cells_global.size)
            mine = np.flatnonzero(self.cell_owner[g["part_cell"]] == rk.r)
            sl = rk.parts.add_particles(
                mine.size, cell_indices=g2l[g["part_cell"][mine]])
            # dim-3 positions so the DH overlay can bin them; the walk
            # and the chain geometry only use the x component
            rk.pos.data[sl] = np.column_stack(
                [g["pos_x"][mine], np.full((mine.size, 2), 0.5)])
            rk.w.data[sl] = g["w"][mine]
            rk.out.data[sl] = 1.0
            rk.pid.data[sl, 0] = g["pid"][mine]
            rk.parts.end_injection()
        # synthetic structured overlay over the chain: bin i == cell i,
        # so the DH guess is exact and rank-independent
        self.use_direct_hop(StructuredOverlay(
            lo=[0.0, 0.0, 0.0], hi=[float(n), 1.0, 1.0], dims=[n, 1, 1],
            cell_map=idx))
        self.n_removed = self.n_rebalances = 0
        self.g_hist = {"sum": [], "min": [], "max": []}

    def _declare(self, rk: Rank) -> None:
        g, rm = self.g, rk.rm
        cg, ng = rm.cells_global, rm.nodes_global
        rk.cells = decl_set(rm.n_local_cells, "dcells")
        rk.cells.owned_size = rm.n_owned_cells
        rk.nodes = decl_set(rm.n_local_nodes, "dnodes")
        rk.nodes.owned_size = rm.n_owned_nodes
        rk.parts = decl_particle_set(rk.cells, 0, "dparts")

        g2l = np.full(self.case.n_cells, -1, dtype=np.int64)
        g2l[cg] = np.arange(cg.size)
        rk.c2n = decl_map(rk.cells, rk.nodes, self.case.arity,
                          rm.local_c2n, "dc2n")
        rk.c2c = decl_map(rk.cells, rk.cells, 2, rm.local_c2c, "dc2c")
        # owned cells' clamp neighbours are always local (they are chain
        # face-neighbours, i.e. in the halo); halo rows may point off the
        # local patch but are never dereferenced — particles only ever
        # sit in owned cells outside a move — so park those on self
        lclamp = np.where(g2l[g["clamp"][cg]] >= 0, g2l[g["clamp"][cg]],
                          np.arange(cg.size)[:, None])
        rk.clamp = decl_map(rk.cells, rk.cells, 2, lclamp, "dclamp")
        rk.p2c = decl_map(rk.parts, rk.cells, 1, None, "dp2c")

        rk.cell_src = decl_dat(rk.cells, 1, np.float64,
                               g["cell_src"][cg], "dcell_src")
        # geometry: each chain cell's global lower x — the walk kernel
        # must read this (local ids != global ids on a partitioned mesh)
        rk.cell_lo = decl_dat(rk.cells, 1, np.float64,
                              cg.astype(np.float64), "dcell_lo")
        rk.cell_acc = decl_dat(rk.cells, 1, np.float64, None, "dcell_acc")
        rk.cell_hits = decl_dat(rk.cells, 1, np.int64, None, "dcell_hits")
        rk.node_a = decl_dat(rk.nodes, 2, np.float64, g["node_a"][ng],
                             "dnode_a")
        rk.node_b = decl_dat(rk.nodes, 1, np.float64, g["node_b"][ng],
                             "dnode_b")
        rk.pos = decl_dat(rk.parts, 3, np.float64, None, "dpos")
        rk.w = decl_dat(rk.parts, 2, np.float64, None, "dw")
        rk.out = decl_dat(rk.parts, 2, np.float64, None, "dout")
        rk.pid = decl_dat(rk.parts, 1, np.int64, None, "dpid")
        rk.g_sum = decl_global(1, np.float64, None, "dg_sum")
        rk.g_min = decl_global(1, np.float64, None, "dg_min")
        rk.g_max = decl_global(1, np.float64, None, "dg_max")


def _zero_ghosts(app: _ChainWorld, attr: str, kind: str) -> None:
    """Ghost rows must be zero before an indirect-INC loop so the
    subsequent reduction folds exactly the new contributions to the
    owner (what the apps do by zeroing accumulators each step)."""
    for rk in app.each_rank():
        n_owned = rk.rm.n_owned_cells if kind == "cell" \
            else rk.rm.n_owned_nodes
        getattr(rk, attr).data[n_owned:] = 0


# -- the operation catalog -----------------------------------------------------


def _op_deposit_nodes(app: _ChainWorld) -> None:
    """Double-indirect node INC then ghost→owner node reduction."""
    _zero_ghosts(app, "node_a", "node")
    _zero_ghosts(app, "node_b", "node")
    arity = app.case.arity
    for rk in app.each_rank():
        par_loop(K.k_double_deposit, "d_deposit_nodes", rk.parts,
                 OPP_ITERATE_ALL,
                 arg_dat(rk.w, OPP_READ),
                 arg_dat(rk.node_a, 0, rk.c2n, rk.p2c, OPP_INC),
                 arg_dat(rk.node_b, arity - 1, rk.c2n, rk.p2c, OPP_INC))
    app.reduce_nodes("node_a", "node_b")


def _op_cell_neighbor_inc(app: _ChainWorld) -> None:
    """INC into the particle's cell *neighbours* (clamp map ∘ p2c) —
    boundary-owned cells deposit into halo cells, so the ghost→owner
    cell reduction carries real contributions."""
    _zero_ghosts(app, "cell_acc", "cell")
    for rk in app.each_rank():
        par_loop(K.k_clamp_inc, "d_clamp_inc", rk.parts, OPP_ITERATE_ALL,
                 arg_dat(rk.w, OPP_READ),
                 arg_dat(rk.cell_acc, 0, rk.clamp, rk.p2c, OPP_INC),
                 arg_dat(rk.cell_acc, 1, rk.clamp, rk.p2c, OPP_INC))
    app.reduce_cells("cell_acc")


def _op_cell_push_gather(app: _ChainWorld) -> None:
    """Owner→ghost cell push, then a gather that reads halo cells."""
    app.push_cells("cell_acc")
    for rk in app.each_rank():
        par_loop(K.k_clamp_gather, "d_clamp_gather", rk.parts,
                 OPP_ITERATE_ALL,
                 arg_dat(rk.cell_acc, 0, rk.clamp, rk.p2c, OPP_READ),
                 arg_dat(rk.cell_acc, 1, rk.clamp, rk.p2c, OPP_READ),
                 arg_dat(rk.out, OPP_RW))


def _op_node_push_gather(app: _ChainWorld) -> None:
    """Owner→ghost node push, then a gather through c2n ∘ p2c."""
    app.push_nodes("node_a")
    for rk in app.each_rank():
        par_loop(K.k_node_gather, "d_node_gather", rk.parts,
                 OPP_ITERATE_ALL,
                 arg_dat(rk.node_a, 0, rk.c2n, rk.p2c, OPP_READ),
                 arg_dat(rk.out, OPP_RW))


def _op_gbl_reduce(app: _ChainWorld) -> None:
    """Per-rank global reductions completed by the step's one
    collective (the minimum as the maximum of its negation: exact)."""
    for rk in app.each_rank():
        rk.g_sum.data[:] = 0.0
        rk.g_min.data[:] = np.inf
        rk.g_max.data[:] = -np.inf
        par_loop(K.k_gbl_reduce, "d_gbl_reduce", rk.parts, OPP_ITERATE_ALL,
                 arg_dat(rk.w, OPP_READ),
                 arg_gbl(rk.g_sum, OPP_INC),
                 arg_gbl(rk.g_min, OPP_MIN),
                 arg_gbl(rk.g_max, OPP_MAX))
    (total,), (high, neg_low) = app.diagnostics(
        lambda rk: (rk.g_sum.data[0],),
        lambda rk: (rk.g_max.data[0], -rk.g_min.data[0]))
    app.g_hist["sum"].append(float(total))
    app.g_hist["min"].append(float(-neg_low))
    app.g_hist["max"].append(float(high))


def _op_move(app: _ChainWorld) -> None:
    """Multi-hop walk with migration; per-hop hit deposition."""
    moved = app.move_particles(
        K.k_walk_geom, "d_move", "c2c",
        lambda rk: (arg_dat(rk.pos, OPP_READ),
                    arg_dat(rk.cell_lo, rk.p2c, OPP_READ),
                    arg_dat(rk.cell_hits, rk.p2c, OPP_INC)))
    (removed,), _ = app.diagnostics(lambda rk: (moved[rk.r].n_removed,))
    app.n_removed += int(removed)


def _op_dh_move(app: _ChainWorld) -> None:
    """Direct-hop move (on N ranks: RMA rank/cell-map lookups +
    all-to-all relocation) finished by the short multi-hop walk."""
    app.direct_hop()
    _op_move(app)


def _op_rebalance(app: _ChainWorld) -> None:
    """Live repartition mid-program: shift the chain's slab boundaries
    with a deterministic rotating weight pattern and migrate everything.
    The contract under test: the assembled global state is bit-equal to
    the never-migrated run's."""
    if app.nranks == 1:
        return                       # the oracle never repartitions
    from ..elastic.migrate import rebalance
    app.n_rebalances += 1
    idx = np.arange(app.case.n_cells, dtype=np.int64)
    rebalance(app, app._elastic_partition(
        1.0 + ((idx + app.n_rebalances) % 3)))


DIST_OPS: Dict[str, Callable[[_ChainWorld], None]] = {
    "deposit_nodes": _op_deposit_nodes,
    "cell_neighbor_inc": _op_cell_neighbor_inc,
    "cell_push_gather": _op_cell_push_gather,
    "node_push_gather": _op_node_push_gather,
    "gbl_reduce": _op_gbl_reduce,
    "move": _op_move,
    "dh_move": _op_dh_move,
    "rebalance": _op_rebalance,
}
DIST_OP_NAMES = tuple(sorted(DIST_OPS))


# -- execution, assembly, comparison -------------------------------------------


def _rank_contrib(app: _ChainWorld, r: int) -> dict:
    """One rank's share of the final state: owned dat rows with their
    global ids, resident particles, and the (replicated) collective
    results."""
    rk = app.ranks[r]
    rm = rk.rm
    noc, non = rm.n_owned_cells, rm.n_owned_nodes
    n = rk.parts.size
    return {
        "rank": r,
        "cell_ids": rm.cells_global[:noc].copy(),
        "cell_acc": rk.cell_acc.data[:noc].copy(),
        "cell_hits": rk.cell_hits.data[:noc].copy(),
        "node_ids": rm.nodes_global[:non].copy(),
        "node_a": rk.node_a.data[:non].copy(),
        "node_b": rk.node_b.data[:non].copy(),
        "pid": rk.pid.data[:n, 0].copy(),
        "p2c": rm.cells_global[rk.p2c.p2c[:n]].copy(),
        "pos": rk.pos.data[:n].copy(),
        "w": rk.w.data[:n].copy(),
        "out": rk.out.data[:n].copy(),
        "n_removed": app.n_removed,
        "g_hist": {k: list(v) for k, v in app.g_hist.items()},
    }


def _assemble(case: DistCase, contribs: List[dict]) -> Dict[str, np.ndarray]:
    """Scatter every rank's owned rows back to global numbering.  Rows no
    rank owns (nodes the random c2n never references) keep their initial
    values on every rank count, so they compare clean."""
    g = _global_arrays(case)
    cell_acc = np.zeros((case.n_cells, 1))
    cell_hits = np.zeros((case.n_cells, 1), dtype=np.int64)
    node_a = g["node_a"].copy()
    node_b = g["node_b"].reshape(-1, 1).copy()
    parts = {k: [] for k in ("pid", "p2c", "pos", "w", "out")}
    for c in contribs:
        cell_acc[c["cell_ids"]] = c["cell_acc"]
        cell_hits[c["cell_ids"]] = c["cell_hits"]
        node_a[c["node_ids"]] = c["node_a"]
        node_b[c["node_ids"]] = c["node_b"]
        for k in parts:
            parts[k].append(c[k])
    pid = np.concatenate(parts["pid"])
    order = np.argsort(pid)
    state: Dict[str, np.ndarray] = {
        "cell_acc": cell_acc, "cell_hits": cell_hits,
        "node_a": node_a, "node_b": node_b,
        "pid": pid[order],
    }
    for k in ("p2c", "pos", "w", "out"):
        state[k] = np.concatenate(parts[k])[order]
    state["n_removed"] = np.asarray([contribs[0]["n_removed"]])
    for k, v in contribs[0]["g_hist"].items():
        state[f"g_{k}_hist"] = np.asarray(v, dtype=np.float64)
    return state


def _dist_proc_entry(transport, fields: dict) -> dict:
    """Runs inside each rank process under the ``proc`` transport."""
    app = _run_program(DistCase(**fields), transport)
    return _rank_contrib(app, transport.my_rank)


def _run_program(case: DistCase, comm) -> _ChainWorld:
    app = _ChainWorld(case, comm)
    for op in case.program:
        DIST_OPS[op](app)
    return app


def run_dist_case(case: DistCase,
                  transport: str = "sim") -> Dict[str, np.ndarray]:
    """Execute a case's program partitioned over ``case.nranks`` ranks
    and return the assembled global state."""
    if transport == "sim":
        app = _run_program(case, SimComm(case.nranks))
        return _assemble(case, [_rank_contrib(app, r)
                                for r in range(case.nranks)])
    if transport == "proc":
        from ..dist.proc import ProcCluster
        cluster = ProcCluster(case.nranks, _dist_proc_entry,
                              args=(case.to_dict(),))
        return _assemble(case, cluster.run())
    raise ValueError(f"unknown transport {transport!r}")


def _oracle_state(case: DistCase) -> Dict[str, np.ndarray]:
    """The same program, unpartitioned, on ``seq``: the single-rank
    path — no halo, no migration, a plain ``particle_move`` and
    ``direct_hop_assign``."""
    return run_dist_case(case.replace(nranks=1, backend="seq"), "sim")


class DistConformanceFailure(AssertionError):
    """A partitioned run diverged from the 1-rank oracle."""

    def __init__(self, transport: str, case: DistCase, shrunk: DistCase,
                 mismatches: List[str]):
        self.transport = transport
        self.case = case
        self.shrunk = shrunk
        self.mismatches = mismatches
        lines = [f"{case.nranks}-rank run over the {transport!r} "
                 "transport diverged from the 1-rank oracle",
                 f"  original case: {case.signature()}",
                 f"  minimal case:  {shrunk.signature()}",
                 "  mismatches:"]
        lines += [f"    - {m}" for m in mismatches]
        repro = ("  reproduce: PYTHONPATH=src python -m repro verify "
                 f"--dist-conformance --seed {case.seed} --cases 1")
        if transport != "sim":
            repro += f" --transport {transport}"
        lines.append(repro)
        super().__init__("\n".join(lines))


def _case_fails(case: DistCase, transport: str) -> List[str]:
    return compare_states(_oracle_state(case),
                          run_dist_case(case, transport))


def shrink_dist_case(case: DistCase, transport: str = "sim",
                     max_rounds: int = 40
                     ) -> Tuple[DistCase, List[str]]:
    """Greedy minimisation: keep the first shrinking candidate that
    still reproduces the mismatch."""
    mismatches = _case_fails(case, transport)
    if not mismatches:
        return case, mismatches
    for _ in range(max_rounds):
        for candidate in _shrink_candidates(case):
            cand_mismatches = _case_fails(candidate, transport)
            if cand_mismatches:
                case, mismatches = candidate, cand_mismatches
                break
        else:
            break
    return case, mismatches


def _shrink_candidates(case: DistCase):
    if len(case.program) > 1:
        for i in range(len(case.program)):
            yield case.replace(program=case.program[:i]
                               + case.program[i + 1:])
    if case.nranks > 2:
        yield case.replace(nranks=case.nranks - 1)
    if case.n_parts > 4:
        yield case.replace(n_parts=max(4, case.n_parts // 2))
        yield case.replace(n_parts=case.n_parts - 1)
    if case.n_cells > max(4, case.nranks):
        yield case.replace(n_cells=case.n_cells - 1)
    if case.n_nodes > 4:
        yield case.replace(n_nodes=case.n_nodes - 1)
    if case.arity > 2:
        yield case.replace(arity=case.arity - 1)


def run_dist_conformance(n_cases: int = 25, seed: int = 0,
                         transport: str = "sim",
                         progress: Optional[Callable[[str], None]] = None,
                         shrink: bool = True) -> dict:
    """Sweep ``n_cases`` generated cases, each partitioned run compared
    against its 1-rank oracle.  Raises :class:`DistConformanceFailure`
    (with a shrunk minimal case) on the first divergence."""
    checked = 0
    rank_counts, backends = set(), set()
    for i in range(n_cases):
        case = generate_dist_case(seed + i)
        rank_counts.add(case.nranks)
        backends.add(case.backend)
        mismatches = _case_fails(case, transport)
        if mismatches:
            shrunk = case
            if shrink:
                shrunk, shrunk_mismatches = shrink_dist_case(case,
                                                             transport)
                if shrunk_mismatches:
                    mismatches = shrunk_mismatches
            raise DistConformanceFailure(transport, case, shrunk,
                                         mismatches)
        checked += 1
        if progress is not None and (i + 1) % 10 == 0:
            progress(f"dist-conformance: {i + 1}/{n_cases} cases ok")
    return {"cases": n_cases, "transport": transport,
            "rank_counts": sorted(rank_counts),
            "backends": sorted(backends), "executions": checked}
