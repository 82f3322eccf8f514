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

from time import perf_counter
from typing import List, Optional

import numpy as np

from ..core.args import Arg, ArgKind
from ..core.loops import ParLoop
from ..core.move import MoveLoop, MoveResult
from ..core.types import AccessMode, MoveStatus
from ..translator import native
from .base import Backend
from .blocked import (BlockedArgs, Slot, blocks, lane_rows, loop_slot,
                      range_rows)
from .locality import LocalityAutotuner
from .plan import PlanCache
from .reduction import (ReductionStrategy, SegmentedPresorted,
                        make_strategy)
from .seq import SeqBackend
from .sparse_ops import have_scipy

__all__ = ["VecBackend"]


class VecBackend(Backend):
    """Generated-code backend: native loops where they exist, else the
    NumPy target with a configurable reduction strategy."""

    name = "vec"

    def __init__(self, strategy: str = "atomics",
                 check_unique_writes: bool = False,
                 locality: str = "never", sparse: str = "never",
                 **strategy_options):
        self.strategy_name = strategy
        self.strategy: ReductionStrategy = make_strategy(strategy,
                                                         **strategy_options)
        #: debug mode: make the duplicate-row assertion of
        #: :meth:`Backend.scatter` real — indirect WRITE/RW through a
        #: non-injective mapping is last-writer-wins and backend-ordering
        #: dependent, so fail loudly instead of racing silently
        self.check_unique_writes = bool(check_unique_writes)
        #: OP2-style plan cache: static mesh-map indirection schedules
        #: plus the maintained Matrix-PIC operators
        self.plan = PlanCache()
        #: the particle-locality engine; opt-in (``locality="auto"`` /
        #: ``"always"``) because sorting permutes particle storage order.
        #: ``sparse`` arbitrates the Matrix-PIC operator per loop the same
        #: way (never = off and bit-stable, always = force, auto = EWMA)
        self.locality = LocalityAutotuner(mode=locality, sparse=sparse)
        self._seq = SeqBackend()

    # -- the Matrix-PIC sparse-operator path --------------------------------------

    def _arg_operator(self, a: Arg):
        """The maintained CSR operator addressing this P2C/DOUBLE arg."""
        if a.kind == ArgKind.DOUBLE:
            return self.plan.sparse_operator(a.p2c, map_=a.map,
                                             map_idx=a.map_idx)
        return self.plan.sparse_operator(a.p2c)

    def _sparse_select(self, loop, fastseg, n: int):
        """Per-loop strategy election for the sparse-operator engine.

        Returns ``None`` when the Matrix-PIC path cannot apply (sparse
        mode off and strategy not forced, non-particle loop, windowed
        iteration, no scipy, no eligible float64 P2C/DOUBLE traffic);
        otherwise a dict naming the chosen gather/deposit arm —
        ``"sparse_csr"`` vs the baseline — plus the dead-row indices the
        deposit must zero before the product (the operator gives dead
        rows zero weight, but ``0 · non-finite`` would still poison the
        sum) and whether to feed timings back into the autotuner.
        """
        forced = self.strategy_name == "sparse_csr"
        if not forced and self.locality.sparse == "never":
            return None
        pset = loop.iterset
        if not pset.is_particle_set or pset.p2c_map is None:
            return None
        if not (loop.start == 0 and loop.end == pset.size):
            return None       # operator rows cover the whole set
        if not have_scipy():
            return None
        has_g = has_d = False
        for a in loop.args:
            if a.is_global or a.kind not in (ArgKind.P2C, ArgKind.DOUBLE) \
                    or a.dat.dtype != np.float64:
                continue
            has_g |= a.access is AccessMode.READ
            has_d |= a.access is AccessMode.INC
        if not (has_g or has_d):
            return None
        dead = np.flatnonzero(pset.p2c_map.p2c < 0)
        sel = {"gather": None, "deposit": None,
               "dead_rows": dead if dead.size else None, "timing": False}
        if forced:
            # dead rows gather data[-1] on the indexed path (the seq
            # oracle's wrap) but 0.0 through P — keep them off the
            # sparse gather so dead-lane direct writes stay comparable
            sel["gather"] = ("sparse_csr" if has_g and not dead.size
                             else "indexed" if has_g else None)
            sel["deposit"] = "sparse_csr" if has_d else None
            return sel
        sel["timing"] = self.locality.sparse == "auto"
        if has_g:
            sel["gather"] = "indexed" if dead.size else \
                self.locality.pick_strategy(loop.name, "gather",
                                            ["indexed", "sparse_csr"], n)
        if has_d:
            base = ("segmented_presorted" if fastseg is not None
                    else self.strategy_name)
            sel["deposit"] = self.locality.pick_strategy(
                loop.name, "deposit", [base, "sparse_csr"], n)
        return sel

    # -- the sort-aware fast path -------------------------------------------------

    def _locality_segments(self, loop):
        """Cached per-cell segment offsets when the sorted fast path
        applies to this loop, else None.  May trigger an autotuned
        re-sort (recorded as a ``SortParticles`` pseudo-loop)."""
        if not self.locality.enabled:
            return None
        pset = loop.iterset
        if not pset.is_particle_set or pset.p2c_map is None:
            return None
        if not (loop.start == 0 and loop.end == pset.size):
            return None       # injected-only / windowed loops
        if not any(a.kind in (ArgKind.P2C, ArgKind.DOUBLE)
                   for a in loop.args):
            return None       # nothing addressed through the cell
        order = pset.order
        if not order.is_valid():
            if not self.locality.should_sort(pset.size):
                return None
            from ..core.particles import sort_particles_by_cell
            t0 = perf_counter()
            sort_particles_by_cell(pset)
            dt = perf_counter() - t0
            self.locality.note_sort(pset.size, dt)
            self._record_sort(pset, dt)
            if not order.is_valid():
                return None   # e.g. dead (-1) rows sorted to the front
        return self.plan.segments(pset)

    @staticmethod
    def _record_sort(pset, seconds: float) -> None:
        from ..core.context import get_context
        get_context().perf.record_loop("SortParticles", n=pset.size,
                                       seconds=seconds, indirect_inc=False,
                                       locality_sort=True)

    # -- the native tier --------------------------------------------------------

    def _numpy_only(self) -> Optional[str]:
        """Why this backend keeps the NumPy target (None = plain ``vec``,
        whose loops run as compiled C where they can).  The reduction
        strategies, the locality and Matrix-PIC engines and the
        ``omp``/device subclasses are mechanisms *of* the NumPy target;
        the native loop is ``seq``'s algorithm and models none of them."""
        if type(self) is not VecBackend:
            return "backend subclass models its own reduction strategy"
        if self.strategy_name != "atomics":
            return f"reduction strategy {self.strategy_name!r} is forced"
        if self.locality.enabled or self.locality.sparse != "never":
            return "the locality / sparse-operator engine is on"
        if self.check_unique_writes:
            return "check_unique_writes inspects staged target rows"
        return None

    # -- opp_par_loop -----------------------------------------------------------

    def execute(self, loop: ParLoop) -> Optional[dict]:
        start, end = loop.bounds()
        n = end - start
        if n <= 0:
            return None
        declined = self._numpy_only()
        if declined is None:
            extras, declined = native.par_loop(loop, start, end)
            if extras is not None:
                return extras
        extras = self._execute_numpy(loop, slice(start, end), n)
        if type(self) is VecBackend:
            extras["fallback"] = declined
        return extras

    def _execute_numpy(self, loop: ParLoop, span: slice, n: int) -> dict:
        gen = loop.kernel.generated("vec")
        if not gen.vectorized:
            self._seq.execute(loop)
            return {"fallback": True}

        fastseg = self._locality_segments(loop)
        track = self.locality.enabled and loop.iterset.is_particle_set
        t_start = perf_counter() if track else 0.0

        sparse_sel = self._sparse_select(loop, fastseg, n)
        whole_set = fastseg is not None or sparse_sel is not None
        #: what the whole-set arms did: seconds per phase for the sparse
        #: autotuner, and the deposit strategy that actually ran
        acct = {"gather": 0.0, "deposit": 0.0,
                "strategy": self.strategy_name}
        slots = [
            self._whole_set_slot(loop, a, fastseg, sparse_sel, acct)
            if whole_set and a.kind in (ArgKind.P2C, ArgKind.DOUBLE)
            and a.access in (AccessMode.READ, AccessMode.INC)
            else loop_slot(self, loop, span, a, apos)
            for apos, a in enumerate(loop.args)]
        max_coll = BlockedArgs(slots, self.strategy).run(
            gen.fn, n, range_rows(span.start))

        if track:
            self.locality.note_loop(n, perf_counter() - t_start,
                                    fast=fastseg is not None)
        if sparse_sel is not None and sparse_sel["timing"]:
            for phase in ("gather", "deposit"):
                if sparse_sel[phase] is not None and acct[phase] > 0.0:
                    self.locality.note_strategy_cost(
                        loop.name, phase, sparse_sel[phase], n, acct[phase])
        extras = {"collisions": max_coll, "strategy": acct["strategy"]}
        if fastseg is not None:
            extras["locality_fast_path"] = True
        if sparse_sel is not None and (sparse_sel["gather"] == "sparse_csr"
                                       or sparse_sel["deposit"]
                                       == "sparse_csr"):
            extras["sparse_operator"] = True
        return extras

    def _whole_set_slot(self, loop: ParLoop, a: Arg, fastseg, sparse_sel,
                        acct: dict) -> Slot:
        """A P2C/DOUBLE ``READ`` or ``INC`` argument under the opt-in
        locality / Matrix-PIC engines.  Their operators (``np.repeat``
        over per-cell counts, ``P.T @ q``) span the whole set, so the
        argument gets a range-length buffer: gathered here, or drained by
        the returned slot's ``final`` after the last block."""
        timed = sparse_sel is not None
        sparse = timed and a.dat.dtype == np.float64
        if a.access is AccessMode.READ:
            t0 = perf_counter() if timed else 0.0
            if sparse and sparse_sel["gather"] == "sparse_csr":
                # Matrix-PIC gather: one CSR SpMM replaces the index
                # build + fancy gather (unit weights, so the product
                # is bit-identical to data[rows])
                buf = self._arg_operator(a).gather(a.dat.data)
            elif fastseg is not None:
                # sorted fast path: the per-particle indirect gather
                # is a per-cell broadcast of contiguous segments
                # (bit-identical values to data[rows], no index array
                # ever built)
                counts = fastseg[0]
                if a.kind == ArgKind.P2C:
                    buf = np.repeat(a.dat.data, counts, axis=0)
                else:
                    cell_rows = a.map.values[:, a.map_idx]
                    buf = np.repeat(a.dat.data[cell_rows], counts, axis=0)
            else:
                buf = self.gather(a, loop.iter_indices())
            if timed:
                acct["gather"] += perf_counter() - t0
            return Slot(a, whole=buf)

        def deposit(buf: np.ndarray) -> int:
            t0 = perf_counter() if timed else 0.0
            if sparse and sparse_sel["deposit"] == "sparse_csr":
                # Matrix-PIC deposit: target += P.T @ buf — one
                # compiled CSC accumulation, no atomics, no per-loop
                # sort; same sums as segmented_presorted up to
                # floating-point reassociation
                if sparse_sel["dead_rows"] is not None:
                    buf[sparse_sel["dead_rows"]] = 0.0
                coll = self._arg_operator(a).deposit(a.dat.data, buf)
                acct["strategy"] = "sparse_csr"
            elif fastseg is not None:
                # sorted fast path: per-cell segment sums via the
                # cached reduceat boundaries — no per-loop argsort,
                # no atomics
                _counts, _offsets, nonempty, starts = fastseg
                if a.kind == ArgKind.P2C:
                    seg_rows = nonempty
                else:
                    seg_rows = a.map.values[nonempty, a.map_idx]
                coll = SegmentedPresorted.apply_segments(
                    a.dat.data, seg_rows, starts, buf, total=buf.shape[0])
                acct["strategy"] = "segmented_presorted"
            else:
                coll = self.scatter(a, loop.iter_indices(), buf,
                                    strategy=self.strategy)
            if timed:
                acct["deposit"] += perf_counter() - t0
            return coll

        return Slot(a, whole=np.zeros((loop.n_iter, a.dat.dim),
                                      dtype=a.dat.dtype), final=deposit)

    # -- opp_particle_move --------------------------------------------------------

    def execute_move(self, loop: MoveLoop) -> MoveResult:
        declined = self._numpy_only()
        if declined is None:
            walked, declined = native.particle_move(loop)
            if walked is not None:
                return self._move_result(loop, *walked)
        result = self._execute_move_numpy(loop)
        if type(self) is VecBackend:
            result.extras["fallback"] = declined
        return result

    def _execute_move_numpy(self, loop: MoveLoop) -> MoveResult:
        gen = loop.kernel.generated("vec")
        if not gen.vectorized:
            return self._seq.execute_move(loop)
        dep = loop.deposit
        dep_gen = dep_args = None
        if dep is not None:
            dep_gen = dep.kernel.generated("vec")
            if not dep_gen.vectorized:
                return self._seq.execute_move(loop)
            dep_args = BlockedArgs([Slot(a) for a in dep.args],
                                   self.strategy)
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
        relocated = 0
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
            if hop == 0:
                # particles still walking (or leaving) after the first hop
                # end up outside their original cell segment
                relocated = int(np.count_nonzero(moving)) \
                    + int(np.count_nonzero(gone))

            if dep_gen is not None:
                if dep.when == "hop":
                    dpart, dcells = active, cells
                else:                     # "done": settled this round
                    dpart, dcells = active[done], cells[done]
                if dpart.size:
                    # one fused-deposit round over those frontier lanes
                    coll = dep_args.run(dep_gen.fn, dpart.size,
                                        lane_rows(dpart, dcells))
                    max_coll = max(max_coll, coll)

            p2c[active[done]] = cells[done]
            if gone.any():
                dead = active[gone]
                p2c[dead] = -1
                removed_parts.append(dead)
            active = active[moving]
            cells = next_cell[moving]
            hop += 1

        empty = np.empty(0, dtype=np.int64)
        return self._move_result(
            loop, np.concatenate(removed_parts) if removed_parts else empty,
            np.concatenate(foreign_parts) if foreign_parts else empty,
            np.concatenate(foreign_cells) if foreign_cells else empty,
            total_hops, relocated, max_coll)

    @staticmethod
    def _move_result(loop: MoveLoop, removed: np.ndarray,
                     foreign_particles: np.ndarray,
                     foreign_cells: np.ndarray, total_hops: int,
                     relocated: int, max_coll: int) -> MoveResult:
        """What follows the walk on either target: order bookkeeping and
        the (possibly deferred) deletion of the removed particles."""
        loop.pset.order.note_relocated(relocated)
        result = MoveResult()
        result.total_hops = total_hops
        result.max_collisions = max_coll
        result.foreign_particles = foreign_particles
        result.foreign_cells = foreign_cells
        result.n_removed = int(removed.size)
        if removed.size and not loop.defer_removal:
            loop.pset.remove_particles(removed)
        else:
            result.removed_indices = removed
        return result
