"""Execution of an optimized :class:`~repro.program.optimizer.Plan`.

Loops and moves run through the same
:func:`~repro.core.loops.execute_parloop` /
:func:`~repro.core.move.execute_moveloop` the eager path uses, under the
node's own context (so a repeated launch is the call site's memo hit and
one native call); a coalesced exchange group is one multi-field push.
"""
from __future__ import annotations

from ..core.context import push_context
from ..core.loops import execute_parloop
from ..core.move import execute_moveloop
from .optimizer import Group, Plan

__all__ = ["execute_plan", "execute_group"]


def execute_plan(plan: Plan) -> None:
    for group in plan.groups:
        execute_group(group)


def execute_group(group: Group) -> None:
    if group.kind == "exchange":
        _execute_exchanges(group)
        return
    node, = group.nodes
    with push_context(node.ctx):
        if group.kind == "move":
            node.result = execute_moveloop(node.loop, node.ctx)
        else:
            execute_parloop(node.loop, node.ctx)


def _execute_exchanges(group: Group) -> None:
    from ..runtime import halo
    head = group.nodes[0]
    if len(group.nodes) == 1:
        fn = (halo.push_cell_halos if head.op == "cell_push"
              else halo.push_node_halos)
        fn(head.dats, head.plan, head.comm)
        return
    halo.push_halos_grouped(head.op, [n.dats for n in group.nodes],
                            head.plan, head.comm)
