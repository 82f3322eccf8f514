"""Connectivity between sets (``opp_map`` in the C++ API).

A static :class:`Map` encodes unstructured-mesh topology, e.g. a
cells-to-nodes map of arity 4 for tetrahedra.  A map from a
:class:`~repro.core.sets.ParticleSet` to its cell set (arity 1) is the
*dynamic* particle-to-cell map that changes as particles move; OP-PIC
treats it specially and so do we.

A ``-1`` entry means "no neighbour" (domain boundary) for mesh maps, and
"unassigned / out of domain" for particle-to-cell maps.
"""
from __future__ import annotations

import numpy as np

from .sets import ParticleSet, Set

__all__ = ["Map"]


class Map:
    """Mapping of each element of ``from_set`` to ``arity`` elements of
    ``to_set``.

    Parameters
    ----------
    from_set, to_set:
        Source and target sets.
    arity:
        Number of target elements per source element (1 for a
        particle-to-cell map).
    data:
        Integer connectivity of shape ``(from_set.size, arity)`` (a flat
        array of that many entries is also accepted).  ``None`` is only
        allowed for particle maps, mirroring the paper's ``nullptr``
        declaration for initially-empty particle sets.
    name:
        Human-readable label.
    """

    def __init__(self, from_set: Set, to_set: Set, arity: int, data=None,
                 name: str = ""):
        if arity < 1:
            raise ValueError(f"map arity must be >= 1, got {arity}")
        self.from_set = from_set
        self.to_set = to_set
        self.arity = int(arity)
        self.name = name or f"{from_set.name}_to_{to_set.name}"
        self.is_particle_map = isinstance(from_set, ParticleSet)

        if self.is_particle_map:
            if arity != 1:
                raise ValueError("a particle is mapped to exactly one mesh "
                                 "element (arity must be 1)")
            if to_set is not from_set.cells_set:
                raise ValueError("particle map target must be the particle "
                                 "set's cell set")
            cap = from_set.capacity
            self._raw = np.full((cap, 1), -1, dtype=np.int64)
            if data is not None:
                self._check_and_store(data, from_set.size)
            from_set.p2c_map = self
        else:
            if data is None:
                raise ValueError("mesh maps require explicit connectivity "
                                 "(only particle maps may be declared null)")
            self._raw = np.empty((from_set.size, arity), dtype=np.int64)
            self._check_and_store(data, from_set.size)
        from_set.maps_from.append(self)

    def _check_and_store(self, data, nrows: int) -> None:
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, self.arity)
        if arr.shape != (nrows, self.arity):
            raise ValueError(
                f"map {self.name!r}: connectivity shape {arr.shape} does not "
                f"match ({nrows}, {self.arity})")
        if arr.size and arr.max() >= len(self.to_set):
            raise ValueError(f"map {self.name!r}: index {arr.max()} out of "
                             f"range for target set of size {len(self.to_set)}")
        if arr.size and arr.min() < -1:
            raise ValueError(f"map {self.name!r}: indices below -1 are invalid")
        self._raw[:nrows] = arr

    @property
    def values(self) -> np.ndarray:
        """Writable ``(live, arity)`` view of the live region."""
        return self._raw[: self.from_set.size]

    @property
    def p2c(self) -> np.ndarray:
        """Flat live cell-index array for particle maps."""
        if not self.is_particle_map:
            raise TypeError(f"{self.name!r} is not a particle-to-cell map")
        return self._raw[: self.from_set.size, 0]

    @property
    def raw(self) -> np.ndarray:
        """Full backing connectivity (capacity rows for particle maps)."""
        return self._raw

    def _grow(self, new_capacity: int) -> None:
        grown = np.full((new_capacity, self.arity), -1, dtype=np.int64)
        grown[: self._raw.shape[0]] = self._raw
        self._raw = grown

    def __repr__(self) -> str:
        kind = "particle-map" if self.is_particle_map else "map"
        return (f"<{kind} {self.name!r} {self.from_set.name}->"
                f"{self.to_set.name} arity={self.arity}>")
