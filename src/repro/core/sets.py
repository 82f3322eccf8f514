"""Mesh sets and particle sets.

A :class:`Set` names a class of mesh elements (cells, nodes, faces…) and
carries only a size.  A :class:`ParticleSet` is a dynamic set defined *on*
a mesh set (its cells): particles are created, migrate between cells (and
ranks) and are removed, so the set grows and shrinks during a simulation.

Storage for particle data uses a capacity/size scheme (amortised doubling)
so that injection and hole-filling are O(moved) rather than O(n) per step.
"""
from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, List, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .dats import Dat
    from .maps import Map

__all__ = ["Set", "ParticleSet", "recording_sets"]


class Set:
    """A set of mesh elements (e.g. cells or nodes) of fixed size."""

    _counter = 0
    #: where :func:`recording_sets` collects the sets declared in its block
    _recording: Optional[List["Set"]] = None

    def __init__(self, size: int, name: str = ""):
        if size < 0:
            raise ValueError(f"set size must be non-negative, got {size}")
        Set._counter += 1
        if Set._recording is not None:
            Set._recording.append(self)
        self.size = int(size)
        self.name = name or f"set_{Set._counter}"
        #: owner-compute split: rows past this are halo/ghost elements and
        #: are excluded from loop iteration (None = everything is owned)
        self._owned: int | None = None
        #: redundant-execution window: this many halo rows after the owned
        #: region are *also* iterated by loops that increment data through
        #: a mapping (OP2's exec halo — the alternative to reducing ghost
        #: contributions back to their owners)
        self.exec_halo_size: int = 0
        #: dats declared on this set (appended by Dat.__init__)
        self.dats: List["Dat"] = []
        #: maps *from* this set (appended by Map.__init__)
        self.maps_from: List["Map"] = []

    @property
    def is_particle_set(self) -> bool:
        return False

    @property
    def owned_size(self) -> int:
        """Number of owned (non-halo) elements; loops iterate these."""
        return self.size if self._owned is None else self._owned

    @owned_size.setter
    def owned_size(self, n: int) -> None:
        if not 0 <= n <= self.size:
            raise ValueError(f"owned size {n} outside [0, {self.size}]")
        self._owned = int(n)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"<Set {self.name!r} size={self.size}>"


@contextmanager
def recording_sets() -> Iterator[List[Set]]:
    """The list of every set declared inside the ``with`` block: what
    one rank declared, and so what its snapshots cover."""
    outer, Set._recording = Set._recording, []
    try:
        yield Set._recording
    finally:
        Set._recording = outer


class ParticleSet(Set):
    """A dynamic set of particles living on the cells of a mesh set.

    Parameters
    ----------
    cells:
        The mesh set that particles are mapped to (a particle always
        resides in exactly one cell).
    size:
        Initial particle count (may be 0; particles can be injected later).
    name:
        Human-readable label.
    """

    def __init__(self, cells: Set, size: int = 0, name: str = ""):
        if cells.is_particle_set:
            raise TypeError("a particle set must be defined on a mesh set")
        super().__init__(size, name)
        self.cells_set = cells
        self.capacity = max(int(size), 16)
        #: index of the first particle injected in the current step; used by
        #: OPP_ITERATE_INJECTED loops.
        self.injected_start = self.size
        #: the dynamic particle-to-cell map, registered by Map.__init__
        self.p2c_map: Optional["Map"] = None

    @property
    def is_particle_set(self) -> bool:
        return True

    @property
    def n_injected(self) -> int:
        return self.size - self.injected_start

    # -- capacity management -------------------------------------------------

    def ensure_capacity(self, needed: int) -> None:
        """Grow the backing storage of every particle dat to hold ``needed``."""
        if needed <= self.capacity:
            return
        new_cap = self.capacity
        while new_cap < needed:
            new_cap *= 2
        for dat in self.dats:
            dat._grow(new_cap)
        if self.p2c_map is not None:
            self.p2c_map._grow(new_cap)
        self.capacity = new_cap

    def begin_injection(self) -> int:
        """Mark the current end-of-set; subsequently added particles are
        considered *injected* until :meth:`end_injection`."""
        self.injected_start = self.size
        return self.injected_start

    def add_particles(self, count: int, cell_indices=None) -> slice:
        """Append ``count`` new particles, optionally assigning their cells.

        Returns the slice of newly created particle indices.  New dat values
        are zero-initialised; the caller (usually an injection kernel run
        with ``OPP_ITERATE_INJECTED``) fills them in.
        """
        if count < 0:
            raise ValueError("cannot add a negative number of particles")
        start = self.size
        self.ensure_capacity(start + count)
        for dat in self.dats:
            dat._raw[start:start + count] = 0
        if self.p2c_map is not None:
            if cell_indices is not None:
                self.p2c_map._raw[start:start + count, 0] = cell_indices
            else:
                self.p2c_map._raw[start:start + count, 0] = -1
        self.size = int(start + count)
        return slice(start, self.size)

    def end_injection(self) -> None:
        self.injected_start = self.size

    # -- removal / hole filling ----------------------------------------------

    def _copy_rows(self, dst, src) -> None:
        """``raw[dst] = raw[src]`` for every array of the set: each dat,
        then the ``p2c`` map.  A C-contiguous array is copied as one
        opaque byte row per particle (the bytes move unchanged, NaN
        payloads and ``-0.0`` included), which is a plain 1-D gather
        instead of a 2-D fancy copy."""
        arrays = [dat._raw for dat in self.dats]
        if self.p2c_map is not None:
            arrays.append(self.p2c_map._raw)
        for raw in arrays:
            if raw.flags.c_contiguous:
                raw = raw.view(np.dtype((np.void, raw.strides[0]))) \
                    .reshape(-1)
            raw[dst] = raw[src]

    def remove_particles(self, indices: np.ndarray) -> None:
        """Delete the given particle indices with tail hole-filling.

        This is the hole-filling routine of OP-PIC's multi-hop exchange: data
        from the end of each dat is shifted into the holes so the live region
        stays contiguous.  Order of surviving particles is not preserved
        (exactly as in the reference implementation): the ascending holes
        take the ascending surviving tail rows.

        Every move hands in strictly increasing indices (the walk lists
        removals in particle order), which are used as they are; anything
        else is sorted and de-duplicated first.
        """
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        if indices.size == 0:
            return
        if not (indices[1:] > indices[:-1]).all():
            indices = np.sort(indices)
            keep = np.empty(indices.size, dtype=bool)
            keep[0] = True
            np.not_equal(indices[1:], indices[:-1], out=keep[1:])
            indices = indices[keep]
        size = self.size
        if indices[0] < 0 or indices[-1] >= size:
            raise IndexError("particle removal index out of range")
        new_size = size - indices.size
        # Holes below new_size are filled from surviving tail particles.
        n_holes = int(np.searchsorted(indices, new_size))
        if n_holes:
            dead = np.zeros(indices.size, dtype=bool)
            dead[indices[n_holes:] - new_size] = True
            movers = np.flatnonzero(~dead)
            movers += new_size
            self._copy_rows(indices[:n_holes], movers)
        self.size = new_size
        self.injected_start = min(self.injected_start, new_size)

    def compact_reorder(self, order: np.ndarray) -> None:
        """Permute live particles into ``order`` (used by particle sorting)."""
        order = np.asarray(order, dtype=np.int64)
        if order.shape != (self.size,):
            raise ValueError("reorder permutation must cover the live region")
        self._copy_rows(slice(0, self.size), order)

    def __repr__(self) -> str:
        return (f"<ParticleSet {self.name!r} size={self.size} "
                f"capacity={self.capacity} on {self.cells_set.name!r}>")
