"""Access-descriptor race sanitizer.

OP-PIC's correctness story rests on access descriptors (``OPP_READ`` /
``OPP_WRITE`` / ``OPP_INC`` / ``OPP_RW`` crossed with direct / indirect /
double-indirect addressing) telling each backend which race-handling
strategy a loop needs.  A mis-declared descriptor does not crash — it
silently corrupts deposition on exactly the backends whose scatter-array
/ atomics machinery trusted the declaration.  This module machine-checks
the contract two ways.

**Shadow execution** (:class:`SanitizerBackend`) runs every loop
elementally — sequential-oracle semantics, bit-identical results for
clean applications — but hands the kernel :class:`RecordingView`
proxies instead of raw rows.  The observed per-component read/write
footprint is compared against the declared descriptors:

* ``write-to-read``     — a READ-declared argument was mutated;
* ``read-before-write`` — a WRITE-declared argument consumed its prior
  value (data the vectorised backends never gather: they hand WRITE
  args a zero buffer);
* ``partial-write``     — a WRITE-declared argument left components
  unwritten (stale lanes under gather/scatter execution);
* ``non-additive-inc``  — an INC argument failed the *offset-shift
  differential*: the element kernel is re-run with the accumulator
  pre-loaded with τ instead of 0, and the accumulated result must
  shift by exactly τ (increments commute; overwrites do not);
* ``non-monotonic-global`` — a MIN/MAX global reduction moved the
  wrong way.

**Static race analysis** (:func:`static_violations`) needs no shadow
run: it gathers each argument's target-row footprint and flags

* ``nonunique-write``  — indirect WRITE/RW with duplicate target rows
  (last-writer-wins order differs between backends);
* ``aliasing-race``    — two arguments reaching overlapping rows of the
  same dat with conflicting modes (anything but INC+INC or READ+READ).

The static pass is cheap enough to run under any backend as a loop hook
(:func:`install_static_checker`); shadow execution is a backend of its
own, selected like any other target (``backend="sanitizer"`` in an app
config, or ``repro verify`` from the CLI).  Both are strictly opt-in —
the default execution path is untouched.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.args import Arg, ArgKind
from ..core.loops import ParLoop, add_loop_hook, remove_loop_hook
from ..core.move import MoveContext, MoveLoop, MoveResult, finish_move
from ..core.types import AccessMode, MoveStatus
from ..backends.base import Backend
from ..backends.plan import loop_arg_rows

__all__ = [
    "Violation", "DescriptorViolationError", "RecordingView",
    "SanitizerBackend", "static_violations", "install_static_checker",
    "uninstall_static_checker",
    "WRITE_TO_READ", "READ_BEFORE_WRITE", "PARTIAL_WRITE",
    "NON_ADDITIVE_INC", "ALIASING_RACE", "NONUNIQUE_WRITE",
    "NON_MONOTONIC_GLOBAL",
]

# -- violation kinds -----------------------------------------------------------

WRITE_TO_READ = "write-to-read"
READ_BEFORE_WRITE = "read-before-write"
PARTIAL_WRITE = "partial-write"
NON_ADDITIVE_INC = "non-additive-inc"
ALIASING_RACE = "aliasing-race"
NONUNIQUE_WRITE = "nonunique-write"
NON_MONOTONIC_GLOBAL = "non-monotonic-global"

#: offsets used by the INC additivity differential
_TAU_FLOAT = 0.5
_TAU_INT = 3


class Violation:
    """One observed descriptor violation (deduplicated per loop/arg/kind)."""

    def __init__(self, loop_name: str, arg_index: int, kind: str,
                 detail: str, arg: Optional[Arg] = None):
        self.loop_name = loop_name
        self.arg_index = arg_index
        self.kind = kind
        self.detail = detail
        self.descriptor = (arg.describe(arg_index) if arg is not None
                           else f"arg {arg_index}")
        self.count = 1      # occurrences merged into this record

    @property
    def key(self) -> Tuple[str, int, str]:
        return (self.loop_name, self.arg_index, self.kind)

    def __str__(self) -> str:
        extra = f" [x{self.count}]" if self.count > 1 else ""
        return (f"loop {self.loop_name!r}: {self.kind} on "
                f"{self.descriptor}: {self.detail}{extra}")

    def __repr__(self) -> str:
        return f"<Violation {self.loop_name!r} arg={self.arg_index} {self.kind}>"


class DescriptorViolationError(RuntimeError):
    """Raised in ``on_violation="raise"`` mode; carries the violation."""

    def __init__(self, violation: Violation):
        super().__init__(str(violation))
        self.violation = violation


def _record(seen: Dict[Tuple, Violation], out: List[Violation],
            v: Violation, on_violation: str) -> None:
    prior = seen.get(v.key)
    if prior is not None:
        prior.count += 1
        return
    seen[v.key] = v
    out.append(v)
    if on_violation == "raise":
        raise DescriptorViolationError(v)


# -- recording proxy -----------------------------------------------------------


class RecordingView:
    """A 1-D array proxy recording which components a kernel touched.

    Kernels in this DSL address their parameters with scalar component
    indices (``p[0]``, ``p[2]``); slices are accepted and expanded.
    Reads of a component not yet written in the same elemental call are
    additionally tracked as *fresh* reads — the signal distinguishing
    WRITE from RW semantics.
    """

    __slots__ = ("arr", "reads", "writes", "fresh_reads")

    def __init__(self, arr: np.ndarray):
        self.arr = arr
        self.reads: set = set()
        self.writes: set = set()
        self.fresh_reads: set = set()

    def _components(self, key):
        if isinstance(key, slice):
            return range(*key.indices(len(self.arr)))
        c = int(key)
        return (c if c >= 0 else c + len(self.arr),)

    def __getitem__(self, key):
        for c in self._components(key):
            self.reads.add(c)
            if c not in self.writes:
                self.fresh_reads.add(c)
        return self.arr[key]

    def __setitem__(self, key, value) -> None:
        for c in self._components(key):
            self.writes.add(c)
        self.arr[key] = value

    def __len__(self) -> int:
        return len(self.arr)

    def __iter__(self):
        return (self[i] for i in range(len(self.arr)))

    def __repr__(self) -> str:
        return f"<RecordingView {self.arr!r}>"


# -- static race analysis ------------------------------------------------------


def _valid(rows: np.ndarray) -> np.ndarray:
    """Drop negative rows (dead particles / boundary map entries)."""
    return rows[rows >= 0]


def static_violations(loop) -> List[Violation]:
    """Execution-free descriptor race analysis of one declared loop.

    Works for :class:`~repro.core.loops.ParLoop` and
    :class:`~repro.core.move.MoveLoop` alike — a move loop's footprint
    is taken at the particles' *current* cells (the walk may widen the
    rows it touches, never the access modes it uses).
    """
    out: List[Violation] = []
    name = loop.name
    args = list(loop.args)
    rows_cache: Dict[int, Optional[np.ndarray]] = {}

    def rows_of(pos: int) -> np.ndarray:
        if pos not in rows_cache:
            rows_cache[pos] = loop_arg_rows(loop, args[pos])
        return rows_cache[pos]

    # 1. non-unique indirect WRITE/RW: duplicate target rows mean
    #    last-writer-wins ordering, which differs between backends.
    for pos, a in enumerate(args):
        if a.is_global or not a.is_indirect:
            continue
        if a.access not in (AccessMode.WRITE, AccessMode.RW):
            continue
        rows = _valid(rows_of(pos))
        if rows.size and np.unique(rows).size != rows.size:
            out.append(Violation(
                name, pos, NONUNIQUE_WRITE,
                "duplicate target rows: concurrent iterations write the "
                "same element (declare OPP_INC, or make the mapping "
                "injective)", a))

    # 2. aliasing: two descriptors reaching overlapping rows of the same
    #    dat with conflicting modes.  INC+INC commutes (fempic deposits
    #    node weight through all four tet corners this way) and
    #    READ+READ is harmless; any other overlapping pair races under
    #    parallel execution and already diverges from the gather/scatter
    #    backends, which read all inputs before any writeback.
    by_dat: Dict[int, List[int]] = {}
    for pos, a in enumerate(args):
        by_dat.setdefault(id(a.dat), []).append(pos)
    for positions in by_dat.values():
        for i, pa in enumerate(positions):
            for pb in positions[i + 1:]:
                a, b = args[pa], args[pb]
                if not (a.access.writes or b.access.writes):
                    continue
                if (a.access is AccessMode.INC
                        and b.access is AccessMode.INC):
                    continue
                if a.is_global:
                    overlap = True   # same Global object, one writing
                else:
                    overlap = np.intersect1d(
                        _valid(rows_of(pa)), _valid(rows_of(pb))).size > 0
                if overlap:
                    out.append(Violation(
                        name, pb, ALIASING_RACE,
                        f"overlaps {a.describe(pa)} with conflicting "
                        f"access ({a.access.name} vs {b.access.name})", b))
    return out


class _StaticCheckerHook:
    """Loop hook wrapping :func:`static_violations` (collect or raise)."""

    def __init__(self, on_violation: str = "raise"):
        self.on_violation = on_violation
        self.violations: List[Violation] = []
        self._seen: Dict[Tuple, Violation] = {}

    def __call__(self, loop) -> None:
        for v in static_violations(loop):
            _record(self._seen, self.violations, v, self.on_violation)


def install_static_checker(on_violation: str = "raise") -> _StaticCheckerHook:
    """Register the static descriptor checker as a global loop hook.

    Every loop declared afterwards — on *any* backend — is analysed
    before execution.  Returns the hook object (its ``violations`` list
    accumulates in ``collect`` mode); pass it to
    :func:`uninstall_static_checker` when done.
    """
    hook = _StaticCheckerHook(on_violation)
    add_loop_hook(hook)
    return hook


def uninstall_static_checker(hook: _StaticCheckerHook) -> None:
    remove_loop_hook(hook)


# -- shadow-execution backend --------------------------------------------------


def _tau_for(dtype) -> float:
    return _TAU_INT if np.issubdtype(dtype, np.integer) else _TAU_FLOAT


def _shifted_by_tau(base: np.ndarray, shifted: np.ndarray, tau) -> bool:
    delta = shifted.astype(np.float64) - base.astype(np.float64)
    return bool(np.allclose(delta, float(tau), rtol=1e-6, atol=1e-9))


class SanitizerBackend(Backend):
    """Shadow-execution backend enforcing declared access descriptors.

    Results are produced with sequential-oracle semantics (elemental
    order, increments applied immediately after each element), so a
    clean application behaves exactly as under ``seq``; every elemental
    call additionally runs through :class:`RecordingView` proxies, and
    elements with INC arguments are re-executed with shifted
    accumulators to prove the increments really are increments.

    Parameters
    ----------
    on_violation:
        ``"collect"`` (default) records violations on ``self.violations``;
        ``"raise"`` raises :class:`DescriptorViolationError` at the first.
    check_additivity:
        Disable to skip the double-execution differential (roughly half
        the cost, loses the ``non-additive-inc`` check).
    """

    name = "sanitizer"

    def __init__(self, on_violation: str = "collect",
                 check_additivity: bool = True):
        if on_violation not in ("collect", "raise"):
            raise ValueError("on_violation must be 'collect' or 'raise'")
        self.on_violation = on_violation
        self.check_additivity = check_additivity
        self.violations: List[Violation] = []
        self._seen: Dict[Tuple, Violation] = {}
        self.loops_checked = 0
        self.elements_checked = 0

    # -- reporting -------------------------------------------------------------

    def _flag(self, loop_name: str, pos: int, kind: str, detail: str,
              arg: Optional[Arg] = None) -> None:
        _record(self._seen, self.violations,
                Violation(loop_name, pos, kind, detail, arg),
                self.on_violation)

    def clear(self) -> None:
        self.violations.clear()
        self._seen.clear()

    def report(self) -> str:
        head = (f"sanitizer: {self.loops_checked} loop execution(s), "
                f"{self.elements_checked} element(s) checked, "
                f"{len(self.violations)} violation(s)")
        if not self.violations:
            return head
        return "\n".join([head] + [f"  - {v}" for v in self.violations])

    # -- opp_par_loop ----------------------------------------------------------

    def execute(self, loop: ParLoop, start: int, end: int) -> Optional[dict]:
        for v in static_violations(loop):
            _record(self._seen, self.violations, v, self.on_violation)
        self.loops_checked += 1

        args = loop.args
        kernel = loop.kernel.fn
        has_inc = self.check_additivity and any(
            a.access is AccessMode.INC for a in args)

        for i in range(start, end):
            rows = [self._row(a, i) for a in args]
            snapshots = [self._snapshot(a, r) for a, r in zip(args, rows)]
            proxies = [self._proxy(a, r, s)
                       for a, r, s in zip(args, rows, snapshots)]
            kernel(*proxies)
            self._check_element(loop.name, args, snapshots, proxies, i)
            if has_inc:
                self._additivity_pass(loop.name, kernel, args, snapshots,
                                      proxies, f"element {i}")
            self._apply_incs(args, rows, proxies)
            self.elements_checked += 1
        return {"sanitized": True}

    # -- element mechanics -----------------------------------------------------

    @staticmethod
    def _row(a: Arg, i: int) -> Optional[int]:
        if a.is_global:
            return None
        if a.kind == ArgKind.DIRECT:
            return i
        if a.kind == ArgKind.INDIRECT:
            return int(a.map.values[i, a.map_idx])
        cell = int(a.p2c.p2c[i])
        if a.kind == ArgKind.P2C:
            return cell
        return int(a.map.values[cell, a.map_idx])   # DOUBLE

    @staticmethod
    def _snapshot(a: Arg, row: Optional[int]) -> np.ndarray:
        """Pre-call copy of this argument's element (or global) data."""
        data = a.dat.data
        return np.array(data if row is None else data[row])

    @staticmethod
    def _proxy(a: Arg, row: Optional[int],
               snapshot: np.ndarray) -> RecordingView:
        """Recording view the kernel receives.

        READ arguments wrap a private copy, so an undeclared write is
        both detected and contained; INC arguments wrap a zero
        accumulator (applied immediately after the call, which
        reproduces seq's in-place accumulation bit-for-bit); everything
        else wraps the live row so legal updates behave exactly as the
        sequential oracle.
        """
        if a.access is AccessMode.READ:
            return RecordingView(snapshot.copy())
        if a.access is AccessMode.INC:
            return RecordingView(np.zeros_like(snapshot))
        if a.is_global:      # MIN/MAX globals reduce in place, like seq
            return RecordingView(a.dat.data)
        return RecordingView(a.dat.data[row])

    @staticmethod
    def _apply_incs(args, rows, proxies) -> None:
        for a, r, p in zip(args, rows, proxies):
            if a.access is not AccessMode.INC:
                continue
            if a.is_global:
                a.dat.data += p.arr
            else:
                a.dat.data[r] += p.arr

    def _check_element(self, loop_name: str, args, snapshots, proxies,
                       elem: int) -> None:
        for pos, (a, snap, p) in enumerate(zip(args, snapshots, proxies)):
            if a.access is AccessMode.READ:
                if p.writes:
                    self._flag(loop_name, pos, WRITE_TO_READ,
                               f"kernel wrote component(s) "
                               f"{sorted(p.writes)} at element {elem} "
                               "(declare OPP_WRITE/OPP_RW/OPP_INC)", a)
            elif a.access is AccessMode.WRITE:
                if p.fresh_reads:
                    self._flag(loop_name, pos, READ_BEFORE_WRITE,
                               f"kernel read component(s) "
                               f"{sorted(p.fresh_reads)} before writing "
                               f"them at element {elem} (declare "
                               "OPP_RW)", a)
                missing = set(range(len(p.arr))) - p.writes
                if missing:
                    self._flag(loop_name, pos, PARTIAL_WRITE,
                               f"component(s) {sorted(missing)} left "
                               f"unwritten at element {elem}: stale "
                               "lanes under vector execution (declare "
                               "OPP_RW or write every component)", a)
            elif a.access is AccessMode.MIN:
                if np.any(p.arr > snap):
                    self._flag(loop_name, pos, NON_MONOTONIC_GLOBAL,
                               f"MIN reduction increased at element "
                               f"{elem}: kernel must only lower the "
                               "value (use min(g[c], x))", a)
            elif a.access is AccessMode.MAX:
                if np.any(p.arr < snap):
                    self._flag(loop_name, pos, NON_MONOTONIC_GLOBAL,
                               f"MAX reduction decreased at element "
                               f"{elem}: kernel must only raise the "
                               "value (use max(g[c], x))", a)

    def _additivity_pass(self, loop_name: str, kernel, args, snapshots,
                         pass1_proxies, where: str,
                         move_ctx_args: Optional[tuple] = None) -> None:
        """Re-run one element with INC accumulators pre-loaded with τ.

        All non-INC arguments are replayed from their pre-call snapshots
        into throwaway buffers, so the second execution is side-effect
        free; only the shifted accumulators are compared: each must end
        exactly τ above its pass-1 value.
        """
        replay: List[RecordingView] = []
        incs: List[Tuple[int, RecordingView, RecordingView]] = []
        for pos, (a, snap) in enumerate(zip(args, snapshots)):
            if a.access is AccessMode.INC:
                tau = _tau_for(a.dat.dtype)
                buf = RecordingView(np.full_like(snap, tau))
                incs.append((pos, pass1_proxies[pos], buf))
                replay.append(buf)
            else:
                replay.append(RecordingView(snap.copy()))
        if move_ctx_args is not None:
            ghost = MoveContext()
            ghost.reset(*move_ctx_args)
            kernel(ghost, *replay)
        else:
            kernel(*replay)
        for pos, p1, p2 in incs:
            a = args[pos]
            tau = _tau_for(a.dat.dtype)
            if not _shifted_by_tau(p1.arr, p2.arr, tau):
                self._flag(loop_name, pos, NON_ADDITIVE_INC,
                           f"re-running {where} with the accumulator "
                           f"pre-loaded with {tau} did not shift the "
                           f"result by {tau}: the kernel overwrites or "
                           "scales instead of incrementing (declare "
                           "OPP_WRITE/OPP_RW)", a)

    # -- opp_particle_move -----------------------------------------------------

    def execute_move(self, loop: MoveLoop) -> MoveResult:
        for v in static_violations(loop):
            _record(self._seen, self.violations, v, self.on_violation)
        self.loops_checked += 1

        kernel = loop.kernel.fn
        args = loop.args
        for a in args:
            if a.kind == ArgKind.INDIRECT:
                raise ValueError("move kernels address data directly, via "
                                 "the current cell, or doubly-indirectly")
        p2c = loop.p2c_map.p2c
        c2c = loop.c2c_map.values
        foreign = loop.foreign_cell_mask
        has_inc = self.check_additivity and any(
            a.access is AccessMode.INC for a in args)

        move = MoveContext()
        removed: List[int] = []
        foreign_p: List[int] = []
        foreign_c: List[int] = []
        total_hops = 0

        for part in loop.iter_indices():
            part = int(part)
            cell = int(p2c[part])
            if cell < 0:
                continue
            # Per-walk aggregate footprint of particle-direct WRITE
            # args: a move kernel legally defers its WRITEs to the
            # final hop (fempic writes lc only when the search ends).
            walk_writes: Dict[int, set] = {}
            walk_fresh: Dict[int, set] = {}
            hop = 0
            finished = False
            while True:
                if foreign is not None and foreign[cell]:
                    foreign_p.append(part)
                    foreign_c.append(cell)
                    p2c[part] = cell
                    break
                rows = [self._move_row(a, part, cell) for a in args]
                snapshots = [self._snapshot(a, r)
                             for a, r in zip(args, rows)]
                proxies = [self._proxy(a, r, s)
                           for a, r, s in zip(args, rows, snapshots)]
                move.reset(cell, c2c[cell], hop)
                kernel(move, *proxies)
                self._check_move_hop(loop.name, args, proxies, part,
                                     walk_writes, walk_fresh)
                if has_inc:
                    self._additivity_pass(
                        loop.name, kernel, args, snapshots, proxies,
                        f"hop {hop} of particle {part}",
                        move_ctx_args=(cell, c2c[cell], hop))
                self._apply_incs(args, rows, proxies)
                self.elements_checked += 1
                hop += 1
                total_hops += 1
                if move.status == MoveStatus.MOVE_DONE:
                    p2c[part] = cell
                    finished = True
                    break
                if move.status == MoveStatus.NEED_REMOVE:
                    removed.append(part)
                    p2c[part] = -1
                    break
                cell = int(move.next_cell)
                if hop >= loop.max_hops:
                    raise RuntimeError(
                        f"particle {part} exceeded {loop.max_hops} hops "
                        f"in move loop {loop.name!r}; mesh walk is not "
                        "converging")
            if finished:
                self._check_walk_complete(loop.name, args, walk_writes,
                                          walk_fresh, part)

        result = finish_move(loop, np.asarray(removed, dtype=np.int64),
                             np.asarray(foreign_p, dtype=np.int64),
                             np.asarray(foreign_c, dtype=np.int64),
                             total_hops)
        result.extras = {"sanitized": True}
        return result

    @staticmethod
    def _move_row(a: Arg, part: int, cell: int) -> Optional[int]:
        if a.is_global:
            return None
        if a.kind == ArgKind.DIRECT:
            return part
        if a.kind == ArgKind.P2C:
            return cell
        return int(a.map.values[cell, a.map_idx])   # DOUBLE

    def _check_move_hop(self, loop_name: str, args, proxies, part: int,
                        walk_writes: Dict[int, set],
                        walk_fresh: Dict[int, set]) -> None:
        for pos, (a, p) in enumerate(zip(args, proxies)):
            if a.access is AccessMode.READ:
                if p.writes:
                    self._flag(loop_name, pos, WRITE_TO_READ,
                               f"kernel wrote component(s) "
                               f"{sorted(p.writes)} for particle {part} "
                               "(declare OPP_WRITE/OPP_RW/OPP_INC)", a)
            elif a.access is AccessMode.WRITE and a.kind == ArgKind.DIRECT:
                # WRITE semantics hold over the whole walk, not per hop:
                # fresh means "read before any hop wrote it".
                seen = walk_writes.setdefault(pos, set())
                walk_fresh.setdefault(pos, set()).update(
                    p.fresh_reads - seen)
                seen |= p.writes

    def _check_walk_complete(self, loop_name: str, args,
                             walk_writes: Dict[int, set],
                             walk_fresh: Dict[int, set],
                             part: int) -> None:
        for pos, a in enumerate(args):
            if (a.is_global or a.access is not AccessMode.WRITE
                    or a.kind != ArgKind.DIRECT):
                continue
            fresh = walk_fresh.get(pos, set())
            if fresh:
                self._flag(loop_name, pos, READ_BEFORE_WRITE,
                           f"kernel read component(s) {sorted(fresh)} "
                           f"of particle {part} before any hop wrote "
                           "them (declare OPP_RW)", a)
            missing = set(range(a.dat.dim)) - walk_writes.get(pos, set())
            if missing:
                self._flag(loop_name, pos, PARTIAL_WRITE,
                           f"component(s) {sorted(missing)} never "
                           f"written over particle {part}'s completed "
                           "walk (declare OPP_RW or write them)", a)
