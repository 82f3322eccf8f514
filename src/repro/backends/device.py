"""Simulated GPU device backend (CUDA / HIP targets).

Runs the same generated vector kernels as :class:`VecBackend` — predication
via masks is already the SIMT execution model — but parameterised the way a
GPU target differs from a CPU one:

* race handling defaults to **atomics** on the CUDA target and
  **unsafe atomics** on the HIP target (paper §3.3: NVIDIA hardware
  atomics are fast; on AMD, CAS atomics serialise badly and RMW "unsafe"
  atomics or segmented reductions are preferred);
* per-loop collision counts (max lanes hitting one element) and kernel
  branch counts are reported so the :mod:`repro.perf.machine` device model
  can apply atomic-serialization and warp-divergence penalties — the two
  effects the paper identifies as the GPU bottlenecks.
"""
from __future__ import annotations

from typing import Optional

from ..core.loops import ParLoop
from ..core.move import MoveLoop, MoveResult
from .vec import VecBackend

__all__ = ["DeviceBackend"]

_DEFAULT_STRATEGY = {"cuda": "atomics", "hip": "unsafe_atomics",
                     "xe": "atomics"}


def _branch_count(kernel) -> float:
    """Divergent-branch weight (see Kernel.branch_count)."""
    return kernel.branch_count()


class DeviceBackend(VecBackend):
    name = "device"

    def __init__(self, kind: str = "cuda", strategy: Optional[str] = None,
                 **strategy_options):
        if kind not in ("cuda", "hip", "xe"):
            raise ValueError(f"device kind must be 'cuda', 'hip' or 'xe' "
                             f"(Intel, the paper's future-work target), "
                             f"got {kind!r}")
        super().__init__(strategy=strategy or _DEFAULT_STRATEGY[kind],
                         **strategy_options)
        self.kind = kind
        self.name = kind

    def execute(self, loop: ParLoop, start: int, end: int) -> Optional[dict]:
        extras = super().execute(loop, start, end) or {}
        extras["device"] = self.kind
        extras["branches"] = _branch_count(loop.kernel)
        return extras

    def execute_move(self, loop: MoveLoop) -> MoveResult:
        return super().execute_move(loop)
