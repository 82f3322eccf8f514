"""Generated-code backend: runs what the translator generates.

Plain ``vec`` first asks :mod:`repro.translator.native` for the loop's
compiled C function (one call per launch, ``seq``'s algorithm); the rest
of this module is the NumPy target's driver, which runs every loop the
native tier declines and everything on the subclasses.  That driver
implements the gather → generated-kernel → scatter execution
plan, one cache-sized block of lanes at a time
(:mod:`repro.backends.blocked`).  Race handling for indirect increments
is pluggable (:mod:`repro.backends.reduction`), which is exactly how the
OpenMP and GPU backends below specialise this driver.

Particle moves run as a *frontier* loop: every still-moving particle
advances one hop per round through the generated (predicated) move kernel;
finished / removed / migrating particles drop out of the frontier.  This
is the SIMT formulation of OP-PIC's multi-hop move.
"""
from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from ..core.loops import ParLoop
from ..core.move import MoveLoop, MoveResult, finish_move
from ..core.types import MoveStatus
from ..translator import native
from .base import Backend
from .blocked import (BlockedArgs, Slot, blocks, lane_rows, loop_slot,
                      range_rows)
from .plan import PlanCache
from .reduction import ReductionStrategy, make_strategy
from .seq import SeqBackend

__all__ = ["VecBackend"]


class VecBackend(Backend):
    """Generated-code backend: native loops where they exist, else the
    NumPy target with a configurable reduction strategy."""

    name = "vec"

    def __init__(self, strategy: str = "atomics",
                 check_unique_writes: bool = False, **strategy_options):
        self.strategy_name = strategy
        self.strategy: ReductionStrategy = make_strategy(strategy,
                                                         **strategy_options)
        #: debug mode: indirect WRITE/RW through a non-injective mapping
        #: is last-writer-wins and backend-ordering dependent, so fail
        #: loudly instead of racing silently
        self.check_unique_writes = bool(check_unique_writes)
        #: OP2-style plan cache: static mesh-map indirection schedules
        self.plan = PlanCache()
        self._seq = SeqBackend()

    # -- the native tier --------------------------------------------------------

    def _numpy_only(self) -> Optional[str]:
        """Why this backend keeps the NumPy target (None = plain ``vec``,
        whose loops run as compiled C where they can).  The reduction
        strategies and the ``omp``/device subclasses are mechanisms *of*
        the NumPy target; the native loop is ``seq``'s algorithm and
        models none of them."""
        if type(self) is not VecBackend:
            return "backend subclass models its own reduction strategy"
        if self.strategy_name != "atomics":
            return f"reduction strategy {self.strategy_name!r} is forced"
        if self.check_unique_writes:
            return "check_unique_writes inspects staged target rows"
        return None

    # -- opp_par_loop -----------------------------------------------------------

    def execute(self, loop: ParLoop, start: int, end: int
                ) -> Union[None, dict, int]:
        n = end - start
        if n <= 0:
            return None
        declined = self._numpy_only()
        if declined is None:
            collisions, declined = native.par_loop(loop, start, end)
            if collisions is not None:
                return collisions
        extras = self._execute_numpy(loop, slice(start, end), n)
        if type(self) is VecBackend:
            extras["fallback"] = declined
        return extras

    def _execute_numpy(self, loop: ParLoop, span: slice, n: int) -> dict:
        gen = loop.kernel.generated("vec")
        if not gen.vectorized:
            self._seq.execute(loop, span.start, span.stop)
            return {"fallback": True}

        slots = [loop_slot(self, loop, span, a, apos)
                 for apos, a in enumerate(loop.args)]
        max_coll = BlockedArgs(slots, self.strategy).run(
            gen.fn, n, range_rows(span.start))
        return {"collisions": max_coll, "strategy": self.strategy_name}

    # -- opp_particle_move --------------------------------------------------------

    def execute_move(self, loop: MoveLoop) -> MoveResult:
        declined = self._numpy_only()
        if declined is None:
            walked, declined = native.particle_move(loop)
            if walked is not None:
                return finish_move(loop, *walked)
        result = self._execute_move_numpy(loop)
        if type(self) is VecBackend:
            result.extras["fallback"] = declined
        return result

    def _execute_move_numpy(self, loop: MoveLoop) -> MoveResult:
        gen = loop.kernel.generated("vec")
        if not gen.vectorized:
            return self._seq.execute_move(loop)
        move_args = BlockedArgs([Slot(a) for a in loop.args], self.strategy)

        from ..translator.codegen import VecMoveContext

        p2c = loop.p2c_map.p2c
        c2c = loop.c2c_map.values
        foreign = loop.foreign_cell_mask

        idx = loop.iter_indices()
        alive = p2c[idx] >= 0
        active = idx[alive]
        cells = p2c[active].copy()

        removed_parts: List[np.ndarray] = []
        foreign_parts: List[np.ndarray] = []
        foreign_cells: List[np.ndarray] = []
        total_hops = 0
        max_coll = 0
        hop = 0

        while active.size:
            if hop >= loop.max_hops:
                raise RuntimeError(
                    f"{active.size} particles exceeded {loop.max_hops} hops "
                    f"in move loop {loop.name!r}")
            if foreign is not None:
                fmask = foreign[cells]
                if fmask.any():
                    stopped = active[fmask]
                    p2c[stopped] = cells[fmask]
                    foreign_parts.append(stopped)
                    foreign_cells.append(cells[fmask])
                    active = active[~fmask]
                    cells = cells[~fmask]
                    if active.size == 0:
                        break

            # hop-major: this hop's frontier is strip-mined, and the
            # blocks' verdicts assembled into frontier-length arrays
            status = np.empty(active.size, dtype=np.int64)
            next_cell = np.empty(active.size, dtype=np.int64)
            rows_of = lane_rows(active, cells)
            with np.errstate(invalid="ignore", divide="ignore",
                             over="ignore"):
                for lo, hi in blocks(active.size):
                    bcells = cells[lo:hi]
                    mctx = VecMoveContext(bcells, c2c[bcells], hop)
                    gen.fn(mctx, *move_args.stage(rows_of, lo, hi))
                    move_args.commit()
                    status[lo:hi] = mctx.status
                    next_cell[lo:hi] = mctx.next_cell
            max_coll = max(max_coll, move_args.finish())
            total_hops += active.size

            done = status == int(MoveStatus.MOVE_DONE)
            gone = status == int(MoveStatus.NEED_REMOVE)
            moving = status == int(MoveStatus.NEED_MOVE)

            p2c[active[done]] = cells[done]
            if gone.any():
                dead = active[gone]
                p2c[dead] = -1
                removed_parts.append(dead)
            active = active[moving]
            cells = next_cell[moving]
            hop += 1

        empty = np.empty(0, dtype=np.int64)
        return finish_move(
            loop, np.concatenate(removed_parts) if removed_parts else empty,
            np.concatenate(foreign_parts) if foreign_parts else empty,
            np.concatenate(foreign_cells) if foreign_cells else empty,
            total_hops, max_coll)
