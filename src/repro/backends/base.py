"""Backend interface.

A backend executes :class:`~repro.core.loops.ParLoop` and
:class:`~repro.core.move.MoveLoop` descriptions.  Backends differ in *how*
they run the same declaration — elemental reference execution, generated
vector code, thread-chunked execution with scatter arrays (the OpenMP
strategy), or a simulated GPU device with atomics / segmented reductions —
exactly the per-target specialisations OP-PIC's code generator emits.
"""
from __future__ import annotations

import abc
from typing import Union

from ..core.loops import ParLoop
from ..core.move import MoveLoop, MoveResult

__all__ = ["Backend"]


class Backend(abc.ABC):
    """Abstract execution backend."""

    #: registry name, set by subclasses
    name = "abstract"

    #: constructor options the conformance harness uses for this backend
    #: (e.g. a thread count that makes chunk boundaries fall inside the
    #: mini-meshes); subclasses override as needed
    conformance_options: dict = {}

    @abc.abstractmethod
    def execute(self, loop: ParLoop, start: int, end: int
                ) -> Union[None, dict, int]:
        """Run a parallel loop over ``[start, end)`` (its
        :meth:`~repro.core.loops.ParLoop.bounds`, read once per launch);
        may return extra perf counters, or — a launch that was one
        compiled call — just its collision depth."""

    @abc.abstractmethod
    def execute_move(self, loop: MoveLoop) -> MoveResult:
        """Run a particle-move loop; returns the migration summary."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"
