"""The particle-move loop (``opp_particle_move``).

Moving particles is *the* special operation of a PIC DSL: each particle
walks cell-to-cell through the unstructured mesh until it finds the cell
containing its new position (multi-hop), possibly leaving the domain
(removal), possibly crossing onto another MPI rank (migration).  A move
that deposits as it walks (CabanaPIC's ``Move_Deposit``) is written that
way by the app: the deposit is part of its move kernel.

The elemental move kernel receives a :class:`MoveContext` as its first
parameter and must finish each hop by calling exactly one of

* ``move.done()``                 — OPP_PARTICLE_MOVE_DONE
* ``move.move_to(next_cell)``     — OPP_PARTICLE_NEED_MOVE
* ``move.remove()``               — OPP_PARTICLE_NEED_REMOVE

``move.c2c`` exposes the current cell's neighbour row so kernels can pick
the next probable cell; ``move.move_to(-1)`` is treated as leaving the
domain.
"""
from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from .args import Arg, structure
from .context import get_context, site_shape
from .kernel import Kernel, as_kernel
from .loops import run_loop_hooks
from .maps import Map
from .sets import ParticleSet
from .types import AccessMode, MoveStatus

__all__ = ["MoveContext", "MoveShape", "MoveDecl", "MoveLoop",
           "declare_move", "particle_move", "MoveResult", "finish_move",
           "execute_moveloop"]

#: Safety bound on hops per particle per move call; a well-posed PIC step
#: moves particles at most a few cells, so hitting this indicates a bug.
DEFAULT_MAX_HOPS = 1000


class MoveContext:
    """Per-hop control object handed to elemental move kernels."""

    __slots__ = ("status", "next_cell", "cell", "c2c", "hop")

    def __init__(self):
        self.status = MoveStatus.MOVE_DONE
        self.next_cell = -1
        self.cell = -1          # current cell index (read-only for kernels)
        self.c2c = None         # current cell's neighbour row (read-only)
        self.hop = 0            # hop number within this move (0 = first)

    def reset(self, cell: int, c2c_row, hop: int) -> None:
        self.status = MoveStatus.MOVE_DONE
        self.next_cell = -1
        self.cell = cell
        self.c2c = c2c_row
        self.hop = hop

    def done(self) -> None:
        self.status = MoveStatus.MOVE_DONE

    def move_to(self, next_cell: int) -> None:
        if next_cell < 0:
            self.status = MoveStatus.NEED_REMOVE
        else:
            self.status = MoveStatus.NEED_MOVE
            self.next_cell = int(next_cell)

    def remove(self) -> None:
        self.status = MoveStatus.NEED_REMOVE


#: what a result holds for a list that is empty: one shared read-only
#: array, not three fresh allocations per launch
NO_INDICES = np.empty(0, dtype=np.int64)
NO_INDICES.flags.writeable = False


class MoveResult:
    """Outcome of one (rank-local) particle-move execution."""

    def __init__(self):
        #: particle indices that stopped in a foreign (halo/off-rank) cell
        self.foreign_particles: np.ndarray = NO_INDICES
        #: the foreign cell each such particle stopped in (local index)
        self.foreign_cells: np.ndarray = NO_INDICES
        #: number of particles removed (left the domain)
        self.n_removed: int = 0
        #: indices of removed particles when the loop defers deletion
        self.removed_indices: np.ndarray = NO_INDICES
        #: total hops performed (for the hop-count performance model)
        self.total_hops: int = 0
        #: worst per-hop collision depth on indirect-INC scatters
        self.max_collisions: int = 0
        #: backend-specific perf extras merged into the loop record
        #: (e.g. the native tier's strategy or a fallback reason)
        self.extras: dict = {}

    @property
    def n_foreign(self) -> int:
        return int(self.foreign_particles.size)


class MoveShape:
    """What a move call site's descriptors fix, whatever sets, dats and
    maps they name — the process-wide half of a :class:`MoveDecl`, as
    :class:`~repro.core.loops.LoopShape` is of a ``ParLoop``.  Holds no
    set, dat, map or global."""

    def __init__(self, kernel, name: str, c2c_arity: int,
                 args: Sequence[Arg]):
        self.kernel = as_kernel(kernel)
        for a in args:
            if a.access is AccessMode.WRITE and a.is_indirect:
                raise ValueError("indirect WRITE inside a move kernel is "
                                 "racy; use OPP_INC")
            if a.is_global and a.access is not AccessMode.READ:
                raise ValueError("global reductions inside a move kernel "
                                 "are not supported; reduce in a separate "
                                 "opp_par_loop after the move")
        # +1: the elemental move kernel receives the MoveContext first
        self.kernel.check_arity(len(args) + 1, loop_name=name)
        self.has_indirect_inc = any(a.is_indirect
                                    and a.access is AccessMode.INC
                                    for a in args)
        #: modelled bytes per hop: the p2c entry, the c2c row, and each
        #: argument's row once per direction
        self.hop_bytes = 8 + 8 * c2c_arity + sum(
            a.dat.nbytes_per_elem
            * (1 if a.access in (AccessMode.READ, AccessMode.WRITE) else 2)
            for a in args if not a.is_global)
        #: the perf extras every launch records
        self.row_extras = {"branches": self.kernel.branch_count()}
        #: foreign-mask variant -> the compiled tier's launcher for this
        #: shape, or the reason it has none
        self.launchers: dict = {}


class MoveDecl:
    """The static half of a particle move: everything its call site fixes
    — kernel, sets, maps, argument descriptors and their legality.
    Validated once, then shared by every launch from the site (each a
    :class:`MoveLoop`) and read-only from then on.  What follows from
    the descriptors alone comes from its :class:`MoveShape`.
    """

    def __init__(self, kernel: Kernel, name: str, pset: ParticleSet,
                 c2c_map: Map, p2c_map: Map, args: Sequence[Arg],
                 max_hops: int = DEFAULT_MAX_HOPS):
        self.name = name
        self.pset = pset
        self.c2c_map = c2c_map
        self.p2c_map = p2c_map
        self.args: List[Arg] = list(args)
        self.max_hops = int(max_hops)

        if not isinstance(pset, ParticleSet):
            raise TypeError("particle_move iterates a ParticleSet")
        if c2c_map.from_set is not pset.cells_set or \
                c2c_map.to_set is not pset.cells_set:
            raise ValueError("c2c map must be a cell-to-cell neighbour map")
        if not p2c_map.is_particle_map or p2c_map.from_set is not pset:
            raise ValueError("p2c map must be the particle set's "
                             "particle-to-cell map")
        for a in self.args:
            a.validate_against(pset)
        #: the compiled loop's slots: the two maps, then the distinct
        #: objects the arguments address
        self.objs: list = [p2c_map, c2c_map]
        arity = c2c_map.arity
        key = ("move", kernel, name, arity, self.max_hops,
               structure(self.args, self.objs))
        shape = self.shape = site_shape(
            key, lambda: MoveShape(kernel, name, arity, self.args))
        self.kernel = shape.kernel
        self.has_indirect_inc = shape.has_indirect_inc
        self.hop_bytes = shape.hop_bytes
        self.row_extras = shape.row_extras
        #: what the backend's compiled tier bound to this declaration,
        #: by launch variant (see :mod:`repro.translator.native`)
        self.bindings: dict = {}


class MoveLoop:
    """One launch of a particle move: the fields of its shared
    declaration (``kernel``, ``pset``, ``args`` … — read only) plus
    the state of this launch alone.

    Constructing one directly declares the move afresh;
    :func:`declare_move` reuses the call site's declaration.
    """

    def __init__(self, kernel: Kernel, name: str, pset: ParticleSet,
                 c2c_map: Map, p2c_map: Map, args: Sequence[Arg],
                 max_hops: int = DEFAULT_MAX_HOPS,
                 only_indices: Optional[np.ndarray] = None):
        self._begin(MoveDecl(kernel, name, pset, c2c_map, p2c_map, args,
                             max_hops), only_indices)

    @classmethod
    def of(cls, decl: MoveDecl,
           only_indices: Optional[np.ndarray] = None) -> "MoveLoop":
        """A new launch of an existing declaration."""
        loop = cls.__new__(cls)
        loop._begin(decl, only_indices)
        return loop

    def _begin(self, decl: MoveDecl, only_indices) -> None:
        vars(self).update(vars(decl))
        self.decl = decl
        #: restrict the move to these particle indices (used when resuming
        #: the move for particles just received from another rank)
        self.only_indices = only_indices
        #: boolean mask over cells marking halo/foreign cells; particles
        #: entering such a cell pause for migration (set by the runtime)
        self.foreign_cell_mask: Optional[np.ndarray] = None
        #: if set, particles finishing in a removed state are *not* deleted
        #: by the backend (the runtime batches deletion with migration)
        self.defer_removal = False

    def iter_indices(self) -> np.ndarray:
        if self.only_indices is not None:
            return np.asarray(self.only_indices, dtype=np.int64)
        return np.arange(self.pset.size, dtype=np.int64)

    def bytes_per_hop(self) -> int:
        return self.hop_bytes

    def __repr__(self) -> str:
        return f"<MoveLoop {self.name!r} over {self.pset.name!r}>"


def finish_move(loop: MoveLoop, removed: np.ndarray,
                foreign_particles: np.ndarray, foreign_cells: np.ndarray,
                total_hops: int, max_collisions: int = 0) -> MoveResult:
    """What follows the walk on every backend: the result, then the
    removed particles deleted — or, when the loop defers removal, their
    indices handed back for the runtime to delete with migration."""
    result = MoveResult()
    result.foreign_particles = foreign_particles
    result.foreign_cells = foreign_cells
    result.total_hops = total_hops
    result.max_collisions = max_collisions
    result.n_removed = int(removed.size)
    if removed.size:
        if loop.defer_removal:
            result.removed_indices = removed
        else:
            loop.pset.remove_particles(removed)
    return result


def declare_move(ctx, kernel, name: str, pset: ParticleSet, c2c_map: Map,
                 p2c_map: Map, args: Sequence[Arg], max_hops: int,
                 only_indices: Optional[np.ndarray] = None) -> MoveLoop:
    """A new launch of a move call site, which ``ctx`` declares once (as
    ``par_loop`` does its sites): the first call validates and remembers
    the :class:`MoveDecl`, a repeated one only makes the launch object."""
    key = (kernel, name, pset, c2c_map, p2c_map, max_hops, *args)
    decl = ctx.sites.get(key)
    if decl is None:
        decl = MoveDecl(kernel, name, pset, c2c_map, p2c_map, args,
                        max_hops)
        ctx.remember_site(key, decl)
    return MoveLoop.of(decl, only_indices)


def execute_moveloop(loop: MoveLoop, ctx) -> MoveResult:
    """Run a declared move loop on ``ctx`` and record its perf row.

    Shared by ``particle_move`` and the distributed move
    (:func:`repro.runtime.exchange.mpi_particle_move`), so both record
    identical counters.
    """
    t0 = time.perf_counter()
    result = ctx.backend.execute_move(loop)
    dt = time.perf_counter() - t0
    hops = result.total_hops
    extras = loop.row_extras
    if result.extras:
        extras = {**extras, **result.extras}
    ctx.perf.add(loop.name, loop.pset.size, dt,
                 (loop.kernel.flops_per_elem or 0.0) * hops,
                 loop.hop_bytes * hops, loop.has_indirect_inc, hops, True,
                 result.max_collisions, extras)
    return result


def particle_move(kernel, name: str, pset: ParticleSet, c2c_map: Map,
                  p2c_map: Map, *args: Arg,
                  max_hops: int = DEFAULT_MAX_HOPS) -> MoveResult:
    """Declare-and-execute a particle move (the ``opp_particle_move`` call).

    This fully relocates every particle of one rank's set (multi-hop
    walk) and deletes the ones that leave the domain.  An app written on
    :class:`repro.runtime.ranked.RankedApp` declares its move once, as
    ``move_particles``: at one rank that is this call, at N ranks
    :func:`repro.runtime.exchange.mpi_particle_move`, which runs the same
    declaration per rank (hooks, ``execute_moveloop``) and migrates
    particles between the rounds.
    """
    ctx = get_context()
    loop = declare_move(ctx, kernel, name, pset, c2c_map, p2c_map, args,
                        max_hops)
    run_loop_hooks(loop)
    return execute_moveloop(loop, ctx)
