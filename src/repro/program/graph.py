"""Loop-graph IR nodes for the whole-step program optimizer.

Each deferred runtime call becomes one node: a ``par_loop`` a
:class:`LoopNode`, a ``particle_move`` a :class:`MoveNode`, a halo push a
:class:`ExchangeNode`.  Nodes carry

* the backend-independent loop description itself (kernel + access
  descriptors — the same :class:`~repro.core.args.Arg` metadata every
  backend consumes),
* the declaring :class:`~repro.core.context.Context` (distributed steps
  interleave loops from several per-rank contexts),
* ``touched_ids`` — the ``id()`` set of every host-observable object the
  node reads or writes; the tracer flushes when host code touches any of
  them, and
* a structural ``signature`` — object identities plus access metadata,
  *excluding* sizes — that names a flush's shape (``Program.executed``
  counts flushes per shape).
"""
from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.loops import ParLoop
from ..core.move import MoveLoop, MoveResult

__all__ = ["LoopNode", "MoveNode", "ExchangeNode", "arg_signature"]


def arg_signature(a) -> Tuple:
    return (id(a.dat), a.kind, a.access.name,
            id(a.map) if a.map is not None else 0,
            a.map_idx if a.map_idx is not None else -1,
            id(a.p2c) if a.p2c is not None else 0)


def _arg_touched(args, out: set) -> None:
    for a in args:
        out.add(id(a.dat))
        if a.map is not None:
            out.add(id(a.map))
        if a.p2c is not None:
            out.add(id(a.p2c))


class LoopNode:
    """One deferred ``par_loop`` declaration."""

    kind = "loop"

    def __init__(self, loop: ParLoop, ctx):
        self.loop = loop
        self.ctx = ctx
        touched = {id(loop.iterset)}
        _arg_touched(loop.args, touched)
        self.touched_ids = frozenset(touched)

    @property
    def name(self) -> str:
        return self.loop.name

    def signature(self) -> Tuple:
        loop = self.loop
        return ("loop", id(loop.kernel), loop.name, id(loop.iterset),
                loop.iterate_type.name, id(self.ctx),
                tuple(arg_signature(a) for a in loop.args))

    def __repr__(self) -> str:
        return f"<LoopNode {self.loop.name!r}>"


class MoveNode:
    """One deferred ``particle_move`` declaration.

    A move's observable footprint is the whole particle set: hole-filling
    after removals permutes *every* particle dat, so the set itself is in
    ``touched_ids`` (and, through the hooked ``ParticleSet.size``, so is
    every dat view on it).
    """

    kind = "move"

    def __init__(self, loop: MoveLoop, ctx):
        self.loop = loop
        self.ctx = ctx
        self.result: Optional[MoveResult] = None
        touched = {id(loop.pset), id(loop.p2c_map), id(loop.c2c_map)}
        for dat in loop.pset.dats:
            touched.add(id(dat))
        _arg_touched(loop.args, touched)
        self.touched_ids = frozenset(touched)

    @property
    def name(self) -> str:
        return self.loop.name

    def signature(self) -> Tuple:
        loop = self.loop
        return ("move", id(loop.kernel), loop.name, id(loop.pset),
                id(loop.c2c_map), id(loop.p2c_map), loop.max_hops,
                id(self.ctx), tuple(arg_signature(a) for a in loop.args))

    def __repr__(self) -> str:
        return f"<MoveNode {self.loop.name!r}>"


class ExchangeNode:
    """One deferred halo push (``push_cell_halos``/``push_node_halos``).

    ``dats`` is the per-rank instance list of one logical field — exactly
    the argument of the eager functions.  Adjacent exchange nodes sharing
    (op, plan, comm) coalesce at flush into one multi-field frame per
    neighbour pair.
    """

    kind = "exchange"

    def __init__(self, op: str, dats: List, plan, comm):
        self.op = op                    # "cell_push" | "node_push"
        self.dats = list(dats)
        self.plan = plan
        self.comm = comm
        self.ctx = None
        self.touched_ids = frozenset(id(d) for d in self.dats)

    @property
    def name(self) -> str:
        # under an SPMD transport only the resident rank's entry is set
        field = next((d.name for d in self.dats if d is not None), "?")
        return f"{self.op}:{field}"

    def signature(self) -> Tuple:
        return ("exchange", self.op, id(self.plan), id(self.comm),
                tuple(id(d) for d in self.dats))

    def __repr__(self) -> str:
        return f"<ExchangeNode {self.name!r}>"
