"""Blocked stage → kernel → commit pipeline of the generated-code drivers.

The translator's NumPy kernels are sequences of whole-array ufunc
passes: run over a full iteration range, every temporary is a fresh
range-length allocation that is page-faulted, written to memory and read
back.  Processing the range in contiguous blocks of :data:`BLOCK` lanes
— each block gathers its arguments, runs the unchanged generated kernel
and commits its write-backs before the next block starts — keeps a
step's temporaries cache-resident, the way the paper's generated
OpenMP/CUDA code keeps an element's intermediates in registers.

One pipeline serves ``par_loop`` (:meth:`VecBackend.execute`) and every
hop of ``particle_move``; a range no longer than one block is simply
the one-block case.  Blocks commit in ascending lane
order.  Arguments that must see the whole range — global reductions —
carry a range-length ``whole`` buffer that blocks take slices of and
that is drained once after the last block.
"""
from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.args import Arg, ArgKind
from ..core.types import AccessMode

__all__ = ["BLOCK", "Slot", "BlockedArgs", "blocks", "loop_slot",
           "range_rows", "lane_rows", "reduce_init"]

#: lanes per block (an 8192-lane float64 temporary is 64 KB: a kernel's
#: working set stays in L2).  Chosen from the sweep recorded in
#: docs/performance_model.md (FemPIC step, 115k ions: one block 76 ms ·
#: 32768 → 59.7 · 16384 → 58 · 8192 → 55 · 4096 → 55 · 2048 → 64 ·
#: 1024 → 77).  A constant on purpose: no Context/CLI/config option
#: reaches it; tests monkeypatch it
BLOCK = 8192


def reduce_init(access: AccessMode, dtype: np.dtype):
    """Identity a global reduction's range-length buffer starts from, in
    the global's own dtype (``inf`` cast to int64 is INT64_MIN)."""
    if access is AccessMode.INC:
        return 0
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        return info.max if access is AccessMode.MIN else info.min
    return np.inf if access is AccessMode.MIN else -np.inf


def blocks(n: int) -> Iterator[Tuple[int, int]]:
    """``(lo, hi)`` bounds of the blocks covering ``n`` lanes."""
    for lo in range(0, n, BLOCK):
        yield lo, min(lo + BLOCK, n)


class Slot:
    """How one kernel parameter is staged and committed.

    ``rows`` are planned target rows for the whole range (sliced per
    block); ``whole`` is a range-length buffer blocks take slices of,
    drained after the last block by ``final(whole) -> collisions``.  A
    global ``READ`` is the same ``(1, dim)`` constant for every block.
    """

    __slots__ = ("arg", "data", "const", "rows", "commit", "whole", "final",
                 "hits")

    def __init__(self, arg: Arg, rows: Optional[np.ndarray] = None,
                 whole: Optional[np.ndarray] = None,
                 final: Optional[Callable[[np.ndarray], int]] = None):
        self.arg = arg
        self.data = arg.dat.data       # one live view for the whole pass
        self.const = (self.data.reshape(1, -1) if arg.is_global
                      and arg.access is AccessMode.READ else None)
        self.rows = rows
        self.commit = arg.access.writes and whole is None
        self.whole = whole
        self.final = final
        self.hits: Optional[np.ndarray] = None


def _reduce_global(arg: Arg) -> Callable[[np.ndarray], int]:
    def final(buf: np.ndarray) -> int:
        data = arg.dat.data
        if arg.access is AccessMode.INC:
            data += buf.sum(axis=0)
        elif arg.access is AccessMode.MIN:
            np.minimum(data, buf.min(axis=0), out=data)
        else:
            np.maximum(data, buf.max(axis=0), out=data)
        return 0
    return final


def loop_slot(backend, loop, span: slice, a: Arg, apos: int) -> Slot:
    """Default staging of one ``par_loop`` argument over the iteration
    range ``span``.

    Whole-loop properties are settled here, before the first block:
    global reductions get their range-length buffer, static mesh-map
    rows come from the backend's plan cache (one lookup per loop), and
    ``check_unique_writes`` inspects every target row.
    """
    if a.is_global:
        if a.access is AccessMode.READ:
            return Slot(a)
        dtype = a.dat.data.dtype
        buf = np.full((span.stop - span.start, a.dat.dim),
                      reduce_init(a.access, dtype), dtype=dtype)
        return Slot(a, whole=buf, final=_reduce_global(a))
    rows = (backend.plan.rows(loop, a, span)
            if a.kind == ArgKind.INDIRECT else None)
    if (backend.check_unique_writes and a.is_indirect
            and a.access in (AccessMode.WRITE, AccessMode.RW)):
        r = rows if rows is not None else a.gather_indices(span)
        r = r[r >= 0]
        if r.size and np.unique(r).size != r.size:
            raise RuntimeError(
                f"loop {loop.name!r}: nonunique-write on arg "
                f"{apos} (dat {a.dat.name!r}): duplicate indirect "
                f"{a.access.name} target rows race under vector "
                "execution (declare OPP_INC or make the mapping "
                "injective)")
    return Slot(a, rows=rows)


def range_rows(start: int) -> Callable:
    """Block addressing over the contiguous range starting at ``start``:
    direct arguments get a slice (so READ stages a view), mapped ones
    their index rows."""
    def rows_of(a: Arg, lo: int, hi: int):
        return a.gather_indices(slice(start + lo, start + hi))
    return rows_of


def lane_rows(part_idx: np.ndarray, cells: np.ndarray) -> Callable:
    """Block addressing over explicit frontier lanes of a move: particle
    ``part_idx[k]`` currently sits in ``cells[k]``."""
    def rows_of(a: Arg, lo: int, hi: int):
        return a.gather_indices(part_idx[lo:hi], cells[lo:hi])
    return rows_of


class BlockedArgs:
    """The argument list of one generated kernel, staged block by block.

    ``stage`` builds a block's parameters, ``commit`` writes the block's
    results back, ``finish`` drains the whole-range buffers and returns
    the pass's collision depth — the maximum multiplicity of any
    indirect-INC target row over *all* blocks (it feeds the
    atomic-serialisation model), not the per-block maximum.
    """

    def __init__(self, slots: Sequence[Slot], strategy):
        self.slots = slots
        self.strategy = strategy
        self._staged: List[Tuple[Slot, np.ndarray, object]] = []

    def stage(self, rows_of: Callable, lo: int, hi: int) -> List[np.ndarray]:
        params: List[np.ndarray] = []
        staged = self._staged
        staged.clear()
        for s in self.slots:
            if s.const is not None:
                params.append(s.const)
                continue
            if s.whole is not None:
                params.append(s.whole[lo:hi])
                continue
            a = s.arg
            rows = (s.rows[lo:hi] if s.rows is not None
                    else rows_of(a, lo, hi))
            if a.access is AccessMode.READ:
                buf = s.data[rows]
            elif a.access is AccessMode.RW:
                buf = s.data[rows]
                if isinstance(rows, slice):
                    buf = buf.copy()
            else:   # WRITE / INC start from a clean buffer
                buf = np.zeros((hi - lo, a.dat.dim), dtype=a.dat.dtype)
            params.append(buf)
            if s.commit:
                staged.append((s, buf, rows))
        return params

    def commit(self) -> None:
        for s, buf, rows in self._staged:
            a = s.arg
            if a.access is not AccessMode.INC:
                s.data[rows] = buf
            elif a.kind == ArgKind.DIRECT:
                s.data[rows] += buf         # iteration rows are unique
            else:
                # the strategy's own return value is this block's depth
                # only; the pass's depth needs the hits of every block
                self.strategy.apply(s.data, rows, buf)
                hits = np.bincount(rows, minlength=s.data.shape[0])
                s.hits = hits if s.hits is None else s.hits + hits

    def finish(self) -> int:
        coll = 0
        for s in self.slots:
            if s.final is not None:
                coll = max(coll, s.final(s.whole))
            if s.hits is not None:
                coll = max(coll, int(s.hits.max()))
                s.hits = None
        return coll

    def run(self, fn: Callable, n: int, rows_of: Callable) -> int:
        """Stage → ``fn`` → commit over ``n`` lanes; returns the pass's
        collision depth."""
        # predication evaluates both branch sides; masked-off lanes may
        # produce invalid intermediates that the np.where discards — the
        # same thing a SIMT machine does — so FP warnings are suppressed
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            for lo, hi in blocks(n):
                fn(*self.stage(rows_of, lo, hi))
                self.commit()
        return self.finish()
