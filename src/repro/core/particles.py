"""Auxiliary particle operations: sorting, shuffling and injection helpers.

The paper notes that full particle sorting (by cell index) is available as
an auxiliary API call, but that *periodic shuffling with hole-filling* was
the most effective strategy on GPUs to limit atomic serialization.  Both
are provided here and compared by ``benchmarks/bench_ablation_sorting.py``.

:class:`ParticleOrder` is the incremental side of the same story: instead
of treating a sort as a one-shot utility, every particle set tracks *how
cell-sorted it still is* across moves, hole-fills and injections.  It is
the ``core``-side hook for memory-order work: a periodic re-sort that
lives here, not in a backend, permutes the data ``seq`` sees too, so
every backend stays comparable to the oracle.
"""
from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .sets import ParticleSet

__all__ = ["ParticleOrder", "sort_particles_by_cell", "shuffle_particles",
           "cell_occupancy", "max_cell_occupancy"]


class ParticleOrder:
    """Incremental cell-sortedness tracker for one :class:`ParticleSet`.

    The set's mutation paths report what happened (``note_appended``,
    ``note_holes_filled``, ``note_relocated``, ``invalidate``) and a sort
    calls :meth:`mark_sorted`; between those events the tracker maintains

    * ``dirty`` — an upper bound on the number of particles sitting
      outside the cell segment they belonged to at the last sort (the
      dirtiness metric: ``dirty_fraction`` is ``dirty / size``);
    * ``sort_epoch`` — bumped per sort, keys cached segment offsets;
    * a *claims-sorted* flag that is only trusted after a cheap O(n)
      monotone re-validation of the live ``p2c`` column, because direct
      map writes (e.g. the DH overlay assignment) can bypass the hooks.
    """

    def __init__(self, pset: ParticleSet):
        self._pset = pset
        self.sort_epoch = 0
        self.dirty = 0
        self._sorted = False
        #: monotone mutation counter; any structural change bumps it so
        #: verification results and cached segment offsets can be keyed
        self.mutations = 0
        self._verified_at: Optional[Tuple[int, int]] = None
        self.n_sorts = 0
        self.n_invalidations = 0

    # -- state ----------------------------------------------------------------

    @property
    def state(self) -> Tuple[int, int, int]:
        """Cache key for anything derived from the current order."""
        return (self.sort_epoch, self.mutations, self._pset.size)

    @property
    def claims_sorted(self) -> bool:
        return self._sorted and self.dirty == 0

    @property
    def dirty_fraction(self) -> float:
        n = self._pset.size
        return min(self.dirty, n) / n if n else 0.0

    def is_valid(self) -> bool:
        """True when the set is verifiably cell-sorted *right now*.

        ``claims_sorted`` is the bookkeeping answer; on top of it the live
        ``p2c`` column is checked non-decreasing (and hole-free: no ``-1``
        rows) once per mutation state — repeated loops between mutations
        hit the cached verdict.
        """
        if not self.claims_sorted:
            return False
        state = (self.mutations, self._pset.size)
        if self._verified_at == state:
            return True
        p2c_map = self._pset.p2c_map
        if p2c_map is None:
            return False
        p2c = p2c_map.p2c
        if p2c.size and (p2c[0] < 0 or np.any(p2c[1:] < p2c[:-1])):
            self.invalidate()
            return False
        self._verified_at = state
        return True

    # -- mutation hooks -------------------------------------------------------

    def _note(self, count: int) -> None:
        self.mutations += 1
        if count > 0:
            self.dirty += int(count)

    def note_appended(self, count: int) -> None:
        """Injection appended ``count`` particles (in arbitrary cells)."""
        self._note(count)

    def note_holes_filled(self, count: int) -> None:
        """Hole-filling removal teleported ``count`` tail particles."""
        self._note(count)

    def note_relocated(self, count: int) -> None:
        """A move left ``count`` particles in a different cell."""
        self._note(count)

    def invalidate(self) -> None:
        """An arbitrary permutation / unknown mutation destroyed order."""
        if self._sorted:
            self.n_invalidations += 1
        self._sorted = False
        self.dirty = self._pset.size
        self.mutations += 1
        self._verified_at = None

    def mark_sorted(self) -> None:
        """The set was just fully sorted by cell."""
        self._sorted = True
        self.dirty = 0
        self.sort_epoch += 1
        self.mutations += 1
        self.n_sorts += 1
        # not pre-trusted: the first is_valid() still runs the O(n) check
        # (a sort of a set holding dead particles leaves -1 rows in front)
        self._verified_at = None

    def __repr__(self) -> str:
        return (f"<ParticleOrder sorted={self.claims_sorted} "
                f"dirty={self.dirty}/{self._pset.size} "
                f"epoch={self.sort_epoch}>")


def sort_particles_by_cell(pset: ParticleSet, stable: bool = True) -> None:
    """Reorder all particle dats so particles of a cell are contiguous.

    Improves locality of cell-indexed gathers and enables coloring-based
    race handling, at the cost of an O(n log n) permutation per call.
    Marks the set's :class:`ParticleOrder` sorted.
    """
    if pset.p2c_map is None:
        raise ValueError("particle set has no particle-to-cell map")
    keys = pset.p2c_map.p2c
    order = np.argsort(keys, kind="stable" if stable else "quicksort")
    pset.compact_reorder(order)
    pset.order.mark_sorted()


def shuffle_particles(pset: ParticleSet,
                      rng: Optional[np.random.Generator] = None) -> None:
    """Randomly permute particles (the paper's periodic shuffle).

    Spreads same-cell particles across the index space so that concurrent
    atomic increments rarely target the same element from adjacent lanes.
    """
    rng = rng or np.random.default_rng(0)
    order = rng.permutation(pset.size)
    pset.compact_reorder(order)


def cell_occupancy(pset: ParticleSet) -> np.ndarray:
    """Particles per cell (length = number of cells); -1 cells ignored."""
    if pset.p2c_map is None:
        raise ValueError("particle set has no particle-to-cell map")
    p2c = pset.p2c_map.p2c
    live = p2c[p2c >= 0]
    return np.bincount(live, minlength=pset.cells_set.size)


def max_cell_occupancy(pset: ParticleSet) -> int:
    """Worst-case particles-per-cell — drives the atomic-serialization
    penalty in the simulated GPU device model."""
    occ = cell_occupancy(pset)
    return int(occ.max()) if occ.size else 0
