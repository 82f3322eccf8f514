"""Auxiliary particle operations: sorting, shuffling and injection helpers.

The paper notes that full particle sorting (by cell index) is available as
an auxiliary API call, but that *periodic shuffling with hole-filling* was
the most effective strategy on GPUs to limit atomic serialization.  Both
are provided here and compared by ``benchmarks/bench_ablation_sorting.py``.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .sets import ParticleSet

__all__ = ["sort_particles_by_cell", "shuffle_particles", "cell_occupancy",
           "max_cell_occupancy"]


def sort_particles_by_cell(pset: ParticleSet, stable: bool = True) -> None:
    """Reorder all particle dats so particles of a cell are contiguous.

    Improves locality of cell-indexed gathers and enables coloring-based
    race handling, at the cost of an O(n log n) permutation per call.
    """
    if pset.p2c_map is None:
        raise ValueError("particle set has no particle-to-cell map")
    keys = pset.p2c_map.p2c
    order = np.argsort(keys, kind="stable" if stable else "quicksort")
    pset.compact_reorder(order)


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
