"""Parallel-loop declaration and dispatch (``opp_par_loop``).

A :class:`ParLoop` is the backend-independent description of one loop:
kernel + iteration set + argument descriptors.  Executing it asks the
active backend (sequential reference, generated-vector, simulated OpenMP
or simulated GPU device) to run it, and records per-kernel performance
counters used by the roofline/breakdown benchmarks.
"""
from __future__ import annotations

import time
from typing import Callable, List, Sequence, Tuple

import numpy as np

from . import tracing
from .args import Arg, ArgKind
from .context import get_context
from .kernel import Kernel, as_kernel
from .sets import ParticleSet, Set
from .types import AccessMode, IterateType

__all__ = ["ParLoop", "par_loop", "execute_parloop", "add_loop_hook",
           "remove_loop_hook", "active_loop_hooks"]


# -- loop hooks ----------------------------------------------------------------
#
# A hook is called with every declared loop (ParLoop and MoveLoop alike)
# just before the backend executes it.  This is the seam the descriptor
# sanitizer uses for per-loop static race analysis; the default path pays
# a single empty-list truthiness test.

_LOOP_HOOKS: List[Callable] = []


def add_loop_hook(hook: Callable) -> Callable:
    """Register ``hook(loop)`` to run before every loop execution."""
    if not callable(hook):
        raise TypeError("loop hook must be callable")
    _LOOP_HOOKS.append(hook)
    return hook


def remove_loop_hook(hook: Callable) -> None:
    """Unregister a hook previously added with :func:`add_loop_hook`."""
    try:
        _LOOP_HOOKS.remove(hook)
    except ValueError:
        pass


def active_loop_hooks() -> int:
    """Number of installed loop hooks (0 on the default path)."""
    return len(_LOOP_HOOKS)


def run_loop_hooks(loop) -> None:
    """Invoke every registered hook on a declared loop."""
    if _LOOP_HOOKS:
        for hook in tuple(_LOOP_HOOKS):
            hook(loop)


class ParLoop:
    """Backend-independent description of a parallel loop over a set.

    A declaration is validated once and then shared by every launch from
    its call site (and by loop hooks and the program trace, which must
    treat it as read-only): it records only what the call site fixes.
    What a launch may find changed — the iteration bounds, array
    addresses, set sizes — is read when the loop runs.
    """

    def __init__(self, kernel: Kernel, name: str, iterset: Set,
                 iterate_type: IterateType, args: Sequence[Arg]):
        self.kernel = as_kernel(kernel)
        self.name = name
        self.iterset = iterset
        self.iterate_type = iterate_type
        self.args: List[Arg] = list(args)
        #: True when some argument increments data through a mapping —
        #: the pattern that requires scatter arrays / atomics / segmented
        #: reductions, and the loops that also run over the exec halo
        self.has_indirect_inc = any(a.is_indirect
                                    and a.access is AccessMode.INC
                                    for a in self.args)
        if (iterate_type is IterateType.INJECTED
                and not isinstance(iterset, ParticleSet)):
            raise TypeError("OPP_ITERATE_INJECTED only applies to particle "
                            "sets")
        for a in self.args:
            a.validate_against(iterset)
        self.kernel.check_arity(len(self.args), loop_name=name)
        #: modelled bytes one iteration transfers (paper's counter model:
        #: each argument streams ``dim*itemsize`` once per direction;
        #: indirect addressing additionally streams the map entries)
        self.bytes_per_iter = _bytes_per_iter(self.args)
        #: the kernel's divergent-branch weight and flop count per
        #: element (both 0 for a kernel outside the kernel language)
        self.branches = self.kernel.branch_count()
        self.flops_per_elem = float(self.kernel.flops_per_elem or 0.0)
        #: what the backend's compiled tier bound to this declaration,
        #: by launch variant (see :mod:`repro.translator.native`)
        self.bindings: dict = {}
        #: the perf extras of a launch the backend ran as one compiled
        #: call (its ``execute`` returns just the collision depth)
        self.compiled_extras = {"strategy": "in_place",
                                "branches": self.branches}

    # -- iteration domain ------------------------------------------------------

    def bounds(self) -> Tuple[int, int]:
        """``(start, end)`` of this launch's iteration range.

        Owner-compute: halo elements are updated by exchanges, not loops
        — except that loops incrementing through a mapping also run
        redundantly over the exec halo (paper §3.2.1: "data races ... are
        handled with redundant computations over MPI halos"), which
        completes every owned target element locally.
        """
        iterset = self.iterset
        start = (iterset.injected_start
                 if self.iterate_type is IterateType.INJECTED else 0)
        if self.has_indirect_inc and iterset.exec_halo_size:
            return start, min(iterset.owned_size + iterset.exec_halo_size,
                              iterset.size)
        return start, iterset.owned_size

    @property
    def start(self) -> int:
        return self.bounds()[0]

    @property
    def end(self) -> int:
        return self.bounds()[1]

    @property
    def n_iter(self) -> int:
        start, end = self.bounds()
        return max(end - start, 0)

    def iter_indices(self) -> np.ndarray:
        return np.arange(*self.bounds(), dtype=np.int64)

    # -- race analysis ---------------------------------------------------------

    @property
    def indirect_inc_args(self) -> List[Arg]:
        return [a for a in self.args
                if a.is_indirect and a.access is AccessMode.INC]

    # -- data-movement model ---------------------------------------------------

    def bytes_moved(self) -> int:
        """Modelled bytes transferred per execution."""
        return self.n_iter * self.bytes_per_iter

    def flops(self) -> float:
        return self.flops_per_elem * self.n_iter

    def __repr__(self) -> str:
        return (f"<ParLoop {self.name!r} over {self.iterset.name!r} "
                f"n={self.n_iter} args={len(self.args)}>")


def _bytes_per_iter(args: Sequence[Arg]) -> int:
    total = 0
    for a in args:
        if a.is_global:
            continue
        directions = (1 if a.access in (AccessMode.READ, AccessMode.WRITE)
                      else 2)
        if a.kind in (ArgKind.INDIRECT, ArgKind.DOUBLE):
            total += 8
        if a.kind in (ArgKind.P2C, ArgKind.DOUBLE):
            total += 8
        total += a.dat.nbytes_per_elem * directions
    return total


def execute_parloop(loop: ParLoop, ctx) -> None:
    """Run a declared loop on ``ctx`` and record its perf row.

    Shared by the eager ``par_loop`` path and the program optimizer's
    deferred-flush executor so both record identical counters.  The
    bounds are read once, here, and handed to the backend.
    """
    start, end = loop.bounds()
    n = end - start if end > start else 0
    t0 = time.perf_counter()
    extras = ctx.backend.execute(loop, start, end)
    dt = time.perf_counter() - t0
    if type(extras) is int:         # one compiled call: its collisions
        collisions, extras = extras, loop.compiled_extras
    else:
        extras = extras or {}
        collisions = extras.pop("collisions", 0)
        extras.setdefault("branches", loop.branches)
    ctx.perf.add(loop.name, n, dt, loop.flops_per_elem * n,
                 loop.bytes_per_iter * n, loop.has_indirect_inc, 0, False,
                 collisions, extras)


def par_loop(kernel, name: str, iterset: Set, iterate_type: IterateType,
             *args: Arg) -> None:
    """Declare-and-execute a parallel loop (the ``opp_par_loop`` call).

    The loop runs on whatever backend the active context holds; the calling
    code is identical for all of them — that is the DSL's separation of
    concerns.  Under an active program trace the declaration is deferred
    instead: it joins the pending loop graph and executes when host code
    next observes its data.

    The call site is declared once per context: the first call validates
    the descriptors and remembers the :class:`ParLoop`; a repeated call
    with the same kernel, set and argument descriptors (the same
    memoised :class:`Arg` objects) launches that declaration again.
    """
    ctx = get_context()
    key = (kernel, name, iterset, iterate_type, *args)
    loop = ctx.sites.get(key)
    if loop is None:
        loop = ParLoop(kernel, name, iterset, iterate_type, args)
        ctx.remember_site(key, loop)
    run_loop_hooks(loop)
    if tracing.active:
        tracer = tracing.current()
        if tracer is not None and tracer.defer_parloop(loop, ctx):
            return
    execute_parloop(loop, ctx)
