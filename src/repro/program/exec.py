"""Execution of an optimized :class:`~repro.program.optimizer.Plan`.

The fused-group driver runs the group's concatenated argument list
through the vec backend's blocked stage → kernel → commit pipeline
(:mod:`repro.backends.blocked`) — same staging rules, same commit order —
and only *describes* what a multi-loop view enables, per block:

* **buffer aliasing** for direct producer→consumer chains (`live`): the
  consumer loop reads the producer's output buffer, so the intermediate
  value never round-trips through the dat between loops;
* **gather hoisting** (`gathers`): identical indirect READ gathers
  across the group's loops are materialised once;
* **temp elimination**: writebacks of fusion-local ``transient`` dats
  are skipped.

Any group the optimizer could not fuse executes loop-by-loop through
the same :func:`~repro.core.loops.execute_parloop` /
:func:`~repro.core.move.execute_moveloop` the eager path uses, under
the node's own context.
"""
from __future__ import annotations

import time
from typing import Dict, Tuple

from ..backends.blocked import BlockedArgs, loop_slot, range_rows
from ..core.args import ArgKind
from ..core.context import push_context
from ..core.loops import execute_parloop
from ..core.move import execute_moveloop
from ..core.types import AccessMode
from .optimizer import Group, Plan

__all__ = ["execute_plan", "execute_group"]


def execute_plan(plan: Plan) -> None:
    for group in plan.groups:
        execute_group(group)


def execute_group(group: Group) -> None:
    if group.kind == "move":
        node = group.nodes[0]
        with push_context(node.ctx):
            node.result = execute_moveloop(node.loop, node.ctx)
        return
    if group.kind == "exchange":
        _execute_exchanges(group)
        return
    if group.fused:
        _execute_fused(group)
        return
    for node in group.nodes:
        with push_context(node.ctx):
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


# -- the fused loop driver ------------------------------------------------------


def _read_gather_key(a) -> Tuple:
    return (id(a.dat), a.kind,
            id(a.map) if a.map is not None else 0,
            a.map_idx if a.map_idx is not None else -1,
            id(a.p2c) if a.p2c is not None else 0)


def _execute_fused(group: Group) -> None:
    ctx = group.nodes[0].ctx
    backend = ctx.backend
    loops = [node.loop for node in group.nodes]
    name = "Fused[" + "+".join(l.name for l in loops) + "]"

    bounds = {(l.start, l.end) for l in loops}
    if len(bounds) != 1:
        # signature-equal loops over one set share bounds by construction;
        # degrade safely if that invariant ever breaks at runtime
        group.fused = False
        group.reason = "iteration bounds diverged at execution"
        for node in group.nodes:
            with push_context(node.ctx):
                execute_parloop(node.loop, node.ctx)
        return
    start, end = bounds.pop()
    n = end - start
    indirect_inc = any(l.has_indirect_inc for l in loops)
    flops = sum(l.flops() for l in loops)
    nbytes = sum(l.bytes_moved() for l in loops)
    extras = {"fused_loops": len(loops),
              "eliminated_temps": len(group.eliminated_names),
              "hoisted_gathers": group.hoisted,
              "strategy": getattr(backend, "strategy_name", "")}
    if n <= 0:
        ctx.perf.record_loop(name, n=0, seconds=0.0, flops=0.0, nbytes=0,
                             indirect_inc=indirect_inc, **extras)
        return

    t0 = time.perf_counter()
    span = slice(start, end)
    slots = []
    live: Dict[int, int] = {}       # id(dat) -> slot holding its buffer
    gathers: Dict[Tuple, int] = {}  # indirect READ gather -> first slot
    for loop in loops:
        for apos, a in enumerate(loop.args):
            alias, commit = None, True
            if a.is_global:
                pass
            elif a.kind == ArgKind.DIRECT:
                key = id(a.dat)
                if a.access in (AccessMode.READ, AccessMode.RW):
                    alias = live.get(key)
                if a.access in (AccessMode.RW, AccessMode.WRITE):
                    live[key] = len(slots) if alias is None else alias
                # fusion-local temps are never materialised
                commit = key not in group.eliminated_ids
            elif a.access is AccessMode.READ:
                first = gathers.setdefault(_read_gather_key(a), len(slots))
                alias = first if first != len(slots) else None
            slots.append(loop_slot(backend, loop, span, a, apos,
                                   alias=alias, commit=commit))
    max_coll = BlockedArgs(slots, backend.strategy).run(
        group.gen.fn, n, range_rows(start))

    dt = time.perf_counter() - t0
    ctx.perf.record_loop(name, n=n, seconds=dt, flops=flops, nbytes=nbytes,
                         indirect_inc=indirect_inc, collisions=max_coll,
                         **extras)
