"""Whole-step optimization passes over the recorded loop graph.

:func:`build_plan` turns the pending node list into an execution
:class:`Plan`.  Two passes, each judged by what it counts rather than
by step time:

1. **move+deposit rewrite** — a separate deposit loop following a
   ``particle_move`` over the same set becomes the move's fused deposit
   (the ``particle_move(deposit_kernel=...)`` hand fusion, derived
   automatically), when every intermediate node commutes with the move
   and the deposit passes the shared
   :func:`~repro.core.move.deposit_fusion_conflict` legality check;
2. **exchange coalescing** — adjacent halo pushes over the same plan
   merge into one frame per neighbour pair.

Every other loop is a group of its own and runs exactly as it would
eagerly.  A refused rewrite leaves both loops as they were and records
why (``skips`` / the move group's ``reason``).
"""
from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.move import (MoveDeposit, MoveLoop, declare_move,
                         deposit_fusion_conflict)
from ..core.types import AccessMode, IterateType
from .graph import ExchangeNode, LoopNode, MoveNode

__all__ = ["Group", "Plan", "build_plan"]


class Group:
    """One schedulable unit of the plan: a loop, a move, or a batch of
    coalescible halo exchanges."""

    __slots__ = ("kind", "nodes", "fused", "reason", "rewritten")

    def __init__(self, kind: str, nodes: List):
        self.kind = kind                # "loops" | "move" | "exchange"
        self.nodes = nodes
        #: the move carries a deposit / the exchanges were coalesced
        self.fused = False
        #: why a move did not absorb the deposit loop after it
        self.reason: Optional[str] = None
        #: the move's deposit was rewritten from a separate loop
        self.rewritten = False

    @property
    def name(self) -> str:
        return "+".join(n.name for n in self.nodes)


class Plan:
    """The optimized schedule for one flush of the pending node list."""

    __slots__ = ("groups", "rewrites", "skips", "signature", "mode")

    def __init__(self, groups, rewrites, skips, signature, mode):
        self.groups: List[Group] = groups
        self.rewrites: List[str] = rewrites
        self.skips: List[Tuple[str, str, str]] = skips
        self.signature = signature
        self.mode = mode


def _node_written_ids(node) -> frozenset:
    if isinstance(node, LoopNode):
        return frozenset(id(a.dat) for a in node.loop.args
                         if a.access is not AccessMode.READ)
    return node.touched_ids             # moves/exchanges: be conservative


def _move_written_ids(node: MoveNode) -> frozenset:
    """What a move writes: every particle dat (hole filling permutes the
    whole set), the p2c map, the set itself, plus any non-READ args."""
    loop = node.loop
    written = {id(loop.pset), id(loop.p2c_map)}
    for dat in loop.pset.dats:
        written.add(id(dat))
    for a in loop.args:
        if a.access is not AccessMode.READ:
            written.add(id(a.dat))
    return frozenset(written)


def node_pair_conflict(a_touched: frozenset, a_written: frozenset,
                       b_touched: frozenset, b_written: frozenset) -> bool:
    """Coarse commutativity test between two nodes (the rewrite hoists a
    move past intermediate loops): they commute when neither writes
    anything the other touches."""
    return bool((a_written & b_touched) or (b_written & a_touched))


def _deposit_shared_dat_conflict(mv: MoveLoop, dloop) -> Optional[str]:
    """Why the deposit loop cannot fire inside the move's frontier walk.

    Direct (particle-row) sharing is safe: a lane's row is final when it
    settles and the ``when="done"`` deposit fires after that round's
    writeback.  Any dat the deposit addresses *indirectly* must be
    untouched by the move itself — a mid-walk deposit would expose
    partial accumulations to later move rounds (and vice versa)."""
    move_touch = {id(a.dat) for a in mv.args}
    for a in dloop.args:
        if a.is_global:
            continue
        if a.is_indirect and id(a.dat) in move_touch:
            return (f"move kernel touches {a.dat.name!r} which the deposit "
                    "addresses through the cell")
    return None


def _with_deposit(node: MoveNode, dloop) -> MoveLoop:
    """The node's move launch with ``dloop`` as its ``done`` deposit,
    declared through the context's call-site memo as an eager move is: a
    repeated flush reuses the declaration and its native binding."""
    mv = node.loop
    return declare_move(node.ctx, mv.kernel, mv.name, mv.pset, mv.c2c_map,
                        mv.p2c_map, mv.args, mv.max_hops,
                        MoveDeposit(dloop.kernel, dloop.args, when="done"))


def _rewrite_move_deposits(nodes: List, rewrites: List[str],
                           skips: List[Tuple[str, str, str]]) -> List:
    """The hand-fused move as a program rewrite: hoist a bare move past
    commuting nodes and absorb the next particle loop as its ``done``
    deposit.  Mutates matched :class:`MoveNode` objects in place so any
    outstanding :class:`~repro.core.move.LazyMoveResult` stays valid."""
    out = list(nodes)
    i = 0
    while i < len(out):
        node = out[i]
        if (not isinstance(node, MoveNode) or node.loop.deposit is not None
                or node.ctx is None
                or getattr(node.ctx, "backend_name", "") != "vec"):
            i += 1
            continue
        mv = node.loop
        m_written = _move_written_ids(node)
        j = i + 1
        while j < len(out):
            cand = out[j]
            if (isinstance(cand, LoopNode) and cand.ctx is node.ctx
                    and cand.loop.iterset is mv.pset
                    and cand.loop.iterate_type is IterateType.ALL):
                reason = deposit_fusion_conflict(cand.loop.args, mv.pset)
                if reason is None:
                    reason = _deposit_shared_dat_conflict(mv, cand.loop)
                if reason is None:
                    try:
                        cand.loop.kernel.ir()   # must be translatable
                    except Exception as exc:
                        reason = f"deposit kernel not translatable: {exc}"
                if reason is None:
                    node.loop = _with_deposit(node, cand.loop)
                    node.touched_ids = node.touched_ids | cand.touched_ids
                    node.rewritten = True
                    out.pop(j)
                    out.pop(i)
                    out.insert(j - 1, node)
                    rewrites.append(f"{mv.name}+{cand.loop.name} -> "
                                    "move deposit (when=done)")
                else:
                    node.reason = f"deposit rewrite: {reason}"
                    skips.append((mv.name, cand.loop.name, node.reason))
                break
            if node_pair_conflict(node.touched_ids, m_written,
                                  cand.touched_ids, _node_written_ids(cand)):
                break                    # move cannot hoist past this node
            j += 1
        i += 1
    return out


def _coalesces(group: Group, node: ExchangeNode) -> bool:
    head = group.nodes[0]
    return (group.kind == "exchange" and head.op == node.op
            and head.plan is node.plan and head.comm is node.comm)


def build_plan(nodes: List, mode: str) -> Plan:
    """Schedule the pending nodes: rewrite moves, coalesce exchanges."""
    signature = tuple(n.signature() for n in nodes)
    rewrites: List[str] = []
    skips: List[Tuple[str, str, str]] = []
    if mode == "fuse":
        nodes = _rewrite_move_deposits(nodes, rewrites, skips)

    groups: List[Group] = []
    for node in nodes:
        if isinstance(node, ExchangeNode):
            if mode == "fuse" and groups and _coalesces(groups[-1], node):
                groups[-1].nodes.append(node)
                groups[-1].fused = True
                continue
            groups.append(Group("exchange", [node]))
        elif isinstance(node, MoveNode):
            g = Group("move", [node])
            g.fused = node.loop.deposit is not None
            g.reason = node.reason
            g.rewritten = node.rewritten
            groups.append(g)
        else:
            groups.append(Group("loops", [node]))
    return Plan(groups, rewrites, skips, signature, mode)
