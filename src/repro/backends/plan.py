"""Loop execution plans (the OP2 "plan" concept).

OP2/OP-PIC build a *plan* the first time a loop executes — precomputed
indirection schedules reused by every subsequent execution, valid because
the mesh (and therefore every mesh map) is static for the whole
simulation.  Here a plan caches, per indirect mesh-map argument, the
contiguous row-index array the gather/scatter needs, so steady-state
executions of a mesh loop skip the per-call index arithmetic.

Particle-mapped arguments (``p2c`` / double indirection) are *not*
planned: the particle-to-cell map changes every move.
"""
from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..core.args import Arg, ArgKind
from ..core.loops import ParLoop

__all__ = ["PlanCache", "loop_arg_rows"]


def loop_arg_rows(loop, arg: Arg) -> Optional[np.ndarray]:
    """Target-set rows touched by ``arg`` over a loop's iteration domain.

    Shared by the descriptor sanitizer's static race analysis and by
    backends wanting an up-front footprint.  Works for ``ParLoop`` and
    ``MoveLoop`` alike (both expose ``iter_indices``); rows of dead
    particles (``p2c < 0``) come back as ``-1`` so callers can mask
    them.  Globals have no rows — returns ``None``.
    """
    if arg.is_global:
        return None
    idx = loop.iter_indices()
    if arg.kind == ArgKind.DIRECT:
        return idx
    if arg.kind == ArgKind.INDIRECT:
        return arg.map.values[idx, arg.map_idx]
    cells = arg.p2c.p2c[idx]
    if arg.kind == ArgKind.P2C:
        return cells
    rows = np.full(idx.shape, -1, dtype=np.int64)   # DOUBLE
    alive = cells >= 0
    rows[alive] = arg.map.values[cells[alive], arg.map_idx]
    return rows


class PlanCache:
    """Per-backend cache of gather plans for static mesh loops."""

    def __init__(self):
        self._rows: Dict[Tuple, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(loop: ParLoop, arg: Arg) -> Optional[Tuple]:
        if arg.kind != ArgKind.INDIRECT:
            return None          # dynamic (particle) or direct addressing
        if loop.iterset.is_particle_set:
            return None          # particle counts change between calls
        return (id(arg.map), arg.map_idx, loop.start, loop.end)

    def rows(self, loop: ParLoop, arg: Arg,
             idx: np.ndarray) -> Optional[np.ndarray]:
        """Cached (contiguous) target rows for a plannable argument, or
        ``None`` when the argument cannot be planned."""
        key = self._key(loop, arg)
        if key is None:
            return None
        rows = self._rows.get(key)
        if rows is None:
            self.misses += 1
            rows = np.ascontiguousarray(arg.gather_indices(idx))
            self._rows[key] = rows
        else:
            self.hits += 1
        return rows

    def clear(self) -> None:
        self._rows.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._rows)
