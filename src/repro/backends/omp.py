"""Simulated OpenMP (shared-memory CPU) backend.

OP-PIC's OpenMP target parallelises loop iterations across threads and
resolves indirect increments with thread-private scatter arrays
(Figure 2(b)).  Here the iteration space is processed in ``nthreads``
chunks over real per-chunk private arrays — the algorithm, memory traffic
and final reduction are the real ones; only the concurrent scheduling is
sequentialised (Python cannot run true threads over the same ufuncs
without the GIL dominating the measurement).
"""
from __future__ import annotations

from typing import Optional

from ..core.loops import ParLoop
from .vec import VecBackend

__all__ = ["OmpBackend"]


class OmpBackend(VecBackend):
    name = "omp"

    #: odd thread count so conformance chunk boundaries rarely align
    #: with anything structural in the generated mini-meshes
    conformance_options = {"nthreads": 3}

    def __init__(self, nthreads: int = 4, strategy: str = "scatter_arrays",
                 **strategy_options):
        if strategy == "scatter_arrays":
            strategy_options.setdefault("nthreads", nthreads)
        super().__init__(strategy=strategy, **strategy_options)
        self.nthreads = int(nthreads)

    def execute(self, loop: ParLoop, start: int, end: int) -> Optional[dict]:
        extras = super().execute(loop, start, end) or {}
        extras["nthreads"] = self.nthreads
        return extras
