"""Recording API: trace a step's loops, optimize, execute on demand.

    from repro import program

    with program.record(mode="fuse") as prog:
        for _ in range(steps):
            sim.step()
    print(prog.explain())

While the trace is active, ``par_loop`` / ``particle_move`` /
halo-push calls *defer*: each becomes a loop-graph node instead of
executing.  The trace flushes — optimizes and runs everything pending,
in order — whenever host code observes an object a pending node touches
(a dat's ``.data``, a map's values, a particle set's size, a lazy move
result's attributes), at ``prog.flush()``, and at context-manager exit.
Laziness is therefore invisible to correct host code: every read sees
exactly the state the eager program would have produced.

Each flush is planned (:func:`~repro.program.optimizer.build_plan`) and
counted under its *shape*, the signature of the pending node list.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core import tracing
from ..core.move import LazyMoveResult
from .exec import execute_plan
from .graph import ExchangeNode, LoopNode, MoveNode
from .optimizer import Plan, build_plan

__all__ = ["Program", "Tracer", "record"]

_MODES = ("off", "fuse")


class Program:
    """Accumulated record of every optimized flush of a trace, across
    every :func:`record` invocation that shares the Program."""

    def __init__(self, mode: str = "fuse"):
        if mode not in _MODES:
            raise ValueError(f"program mode must be one of {_MODES}, "
                             f"got {mode!r}")
        self.mode = mode
        #: plan-signature -> [Plan, flush count]
        self.executed: Dict[Tuple, List] = {}
        self.n_flushes = 0

    @classmethod
    def from_step(cls, fn, mode: str = "fuse") -> "Program":
        """Record one call of ``fn()`` (e.g. a bound ``sim.step``)."""
        prog = cls(mode)
        with record(mode=mode, program=prog):
            fn()
        return prog

    # -- bookkeeping -----------------------------------------------------------

    def note(self, plan: Plan) -> None:
        entry = self.executed.get(plan.signature)
        if entry is None:
            self.executed[plan.signature] = [plan, 1]
        else:
            entry[1] += 1
        self.n_flushes += 1

    @property
    def plans(self) -> List[Plan]:
        return [entry[0] for entry in self.executed.values()]

    # -- observability (--program-explain) -------------------------------------

    def explain(self) -> str:
        lines = [f"program mode: {self.mode}",
                 f"flushes: {self.n_flushes} "
                 f"({len(self.executed)} distinct shapes)"]
        for shape_no, (plan, count) in enumerate(self.executed.values(),
                                                 start=1):
            lines.append(f"shape {shape_no} (x{count}):")
            for g in plan.groups:
                if g.kind == "move":
                    lines.append(f"  move  {g.name}")
                elif g.kind == "exchange":
                    if len(g.nodes) > 1:
                        fields = ", ".join(n.dats[0].name if n.dats else "?"
                                           for n in g.nodes)
                        lines.append(f"  exch  {g.nodes[0].op}: coalesced "
                                     f"{len(g.nodes)} pushes ({fields})")
                    else:
                        lines.append(f"  exch  {g.name}")
                else:
                    lines.append(f"  loop  {g.name}")
        return "\n".join(lines)


class Tracer:
    """The active trace: pending nodes plus the flush machinery.

    Implements the contract :mod:`repro.core.tracing` expects
    (``touch`` / ``record`` / ``flush`` / ``defer_parloop`` /
    ``defer_move`` / ``defer_exchange``).
    """

    def __init__(self, mode: str = "fuse",
                 program: Optional[Program] = None):
        self.mode = mode
        self.program = program if program is not None else Program(mode)
        self.nodes: List = []
        self.pending_ids: Set[int] = set()
        #: reentrancy guard: execution inside a flush touches the very
        #: objects the nodes declare; those touches must not re-flush,
        #: and loops the executor itself runs must not re-defer
        self.flushing = False

    # -- deferral hooks --------------------------------------------------------

    def record(self, node) -> None:
        self.nodes.append(node)
        self.pending_ids |= node.touched_ids

    def defer_parloop(self, loop, ctx) -> bool:
        if self.flushing:
            return False
        self.record(LoopNode(loop, ctx))
        return True

    def defer_move(self, loop, ctx) -> Optional[LazyMoveResult]:
        if self.flushing:
            return None
        node = MoveNode(loop, ctx)
        self.record(node)

        def resolve():
            if node.result is None:
                self.flush()
            if node.result is None:
                raise RuntimeError(
                    f"move {loop.name!r} was traced but never executed")
            return node.result

        return LazyMoveResult(resolve)

    def defer_exchange(self, op: str, dats, plan, comm) -> bool:
        if self.flushing:
            return False
        self.record(ExchangeNode(op, dats, plan, comm))
        return True

    # -- flush -----------------------------------------------------------------

    def touch(self, obj) -> None:
        if self.flushing or not self.nodes:
            return
        if id(obj) in self.pending_ids:
            self.flush()

    def flush(self) -> None:
        if self.flushing or not self.nodes:
            return
        self.flushing = True
        try:
            nodes, self.nodes = self.nodes, []
            self.pending_ids = set()
            plan = build_plan(nodes, self.mode)
            execute_plan(plan)
            self.program.note(plan)
        finally:
            self.flushing = False


class record:
    """Context manager activating a program trace (see module docstring).

    ``mode="off"`` is a no-op passthrough so call sites can be wired
    unconditionally; ``program=`` threads one :class:`Program` through
    several recording spans.
    """

    def __init__(self, mode: str = "fuse",
                 program: Optional[Program] = None):
        self.program = program if program is not None else Program(mode)
        self.mode = mode
        self._tracer: Optional[Tracer] = None

    def __enter__(self) -> Program:
        if self.mode != "off":
            self._tracer = Tracer(self.mode, self.program)
            tracing.install(self._tracer)
        return self.program

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._tracer is None:
            return
        try:
            if exc_type is None:
                self._tracer.flush()
        finally:
            self._tracer = None
            tracing.uninstall()
