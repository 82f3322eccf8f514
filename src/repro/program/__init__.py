"""Whole-step program optimizer (lazy loop-graph IR).

Public surface:

* :func:`repro.program.record` — trace a span of DSL calls lazily;
* :class:`repro.program.Program` — the accumulated optimization record
  (``explain()``, per-flush plans);
* the IR and the passes live in :mod:`~repro.program.graph`,
  :mod:`~repro.program.optimizer` and :mod:`~repro.program.exec`.
"""
from .graph import ExchangeNode, LoopNode, MoveNode
from .optimizer import Group, Plan, build_plan
from .record import Program, Tracer, record

__all__ = ["record", "Program", "Tracer", "build_plan", "Plan", "Group",
           "LoopNode", "MoveNode", "ExchangeNode"]
