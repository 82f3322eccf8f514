"""Whole-step optimization pass over the recorded loop graph.

:func:`build_plan` turns the pending node list into an execution
:class:`Plan`.  One pass, judged by what it counts rather than by step
time: **exchange coalescing** — adjacent halo pushes over the same plan
merge into one frame per neighbour pair.

Every loop and every move is a group of its own and runs exactly as it
would eagerly, so a ``fuse`` program is bit-equal to the eager one.  A
move fused with a deposit is one the app writes as a single kernel
(CabanaPIC's ``Move_Deposit``).
"""
from __future__ import annotations

from typing import List

from .graph import ExchangeNode, MoveNode

__all__ = ["Group", "Plan", "build_plan"]


class Group:
    """One schedulable unit of the plan: a loop, a move, or a batch of
    coalescible halo exchanges."""

    __slots__ = ("kind", "nodes", "fused")

    def __init__(self, kind: str, nodes: List):
        self.kind = kind                # "loops" | "move" | "exchange"
        self.nodes = nodes
        #: the exchanges were coalesced
        self.fused = False

    @property
    def name(self) -> str:
        return "+".join(n.name for n in self.nodes)


class Plan:
    """The optimized schedule for one flush of the pending node list."""

    __slots__ = ("groups", "signature", "mode")

    def __init__(self, groups, signature, mode):
        self.groups: List[Group] = groups
        self.signature = signature
        self.mode = mode


def _coalesces(group: Group, node: ExchangeNode) -> bool:
    head = group.nodes[0]
    return (group.kind == "exchange" and head.op == node.op
            and head.plan is node.plan and head.comm is node.comm)


def build_plan(nodes: List, mode: str) -> Plan:
    """Schedule the pending nodes, coalescing exchanges."""
    signature = tuple(n.signature() for n in nodes)
    groups: List[Group] = []
    for node in nodes:
        if isinstance(node, ExchangeNode):
            if mode == "fuse" and groups and _coalesces(groups[-1], node):
                groups[-1].nodes.append(node)
                groups[-1].fused = True
                continue
            groups.append(Group("exchange", [node]))
        elif isinstance(node, MoveNode):
            groups.append(Group("move", [node]))
        else:
            groups.append(Group("loops", [node]))
    return Plan(groups, signature, mode)
