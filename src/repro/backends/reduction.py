"""Data-race handling strategies for indirect increments (paper §3.3).

The double-indirect increment (particles depositing charge/current onto
mesh elements) is the key bottleneck of the solver and each architecture
wants a different resolution:

* :class:`ScatterArrays` — thread-private arrays, reduced at loop end
  (OP-PIC's choice for OpenMP on CPUs, Figure 2(b));
* :class:`AtomicAdd` — safe compare-and-swap atomics (fast on NVIDIA);
* :class:`UnsafeAtomicAdd` — AMD's read-modify-write atomics, modelled as
  a per-target-column bincount accumulation (no CAS retries);
* :class:`SegmentedReduction` — the three-step
  ``store_values_and_keys`` → ``sort_by_key`` → ``reduce_by_key``
  pipeline of Figure 3;
* :class:`Coloring` — conflict-free colour rounds (requires a sort,
  mentioned as a CPU alternative).

All strategies compute bit-identical sums up to floating-point reassociation
and return the maximum observed collision multiplicity (how many lanes hit
the same element), which drives the atomic-serialization time model.
"""
from __future__ import annotations

import abc

import numpy as np

__all__ = ["ReductionStrategy", "AtomicAdd", "UnsafeAtomicAdd",
           "SegmentedReduction", "ScatterArrays", "Coloring",
           "make_strategy"]


def _max_collisions(rows: np.ndarray) -> int:
    if rows.size == 0:
        return 0
    return int(np.bincount(rows).max())


class ReductionStrategy(abc.ABC):
    """Apply ``target[rows] += values`` race-free; report max collisions."""

    name = "abstract"

    @abc.abstractmethod
    def apply(self, target: np.ndarray, rows: np.ndarray,
              values: np.ndarray) -> int:
        ...

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class AtomicAdd(ReductionStrategy):
    """Safe (CAS-style) atomic increments — ``np.add.at`` is the exact
    sequential-consistency analogue: every duplicate index lands."""

    name = "atomics"

    def apply(self, target, rows, values):
        np.add.at(target, rows, values)
        return _max_collisions(rows)


class UnsafeAtomicAdd(ReductionStrategy):
    """Relaxed read-modify-write atomics.

    Hardware RMW atomics avoid CAS retry storms; algorithmically we realise
    the same sum with a per-component ``bincount`` accumulation, which like
    the hardware path performs one pass with no retries.
    """

    name = "unsafe_atomics"

    def apply(self, target, rows, values):
        n_rows = target.shape[0]
        for c in range(target.shape[1]):
            target[:, c] += np.bincount(rows, weights=values[:, c],
                                        minlength=n_rows)[:n_rows]
        return _max_collisions(rows)


class SegmentedReduction(ReductionStrategy):
    """Figure 3's three-step segmented reduction.

    (1) store values alongside their target keys, (2) sort by key,
    (3) reduce contiguous key segments, then one conflict-free scatter.
    """

    name = "segmented_reduction"

    def apply(self, target, rows, values):
        if rows.size == 0:
            return 0
        # (1) store_values_and_keys
        keys = np.asarray(rows)
        vals = np.asarray(values)
        # (2) sort_by_key
        order = np.argsort(keys, kind="stable")
        keys_sorted = keys[order]
        vals_sorted = vals[order]
        # (3) reduce_by_key: segment boundaries where the key changes
        boundaries = np.flatnonzero(np.diff(keys_sorted)) + 1
        starts = np.concatenate(([0], boundaries))
        segment_keys = keys_sorted[starts]
        segment_sums = np.add.reduceat(vals_sorted, starts, axis=0)
        target[segment_keys] += segment_sums
        return _max_collisions(rows)


class ScatterArrays(ReductionStrategy):
    """Thread-private scatter arrays (Figure 2(b)) for CPU threading.

    The iteration space is divided among ``nthreads`` workers; each worker
    accumulates into its private copy of the target and the copies are
    reduced afterwards.  Execution here is sequential per chunk but the
    algorithm (including the final reduce and its memory cost) is the real
    one.
    """

    name = "scatter_arrays"

    def __init__(self, nthreads: int = 4):
        if nthreads < 1:
            raise ValueError("nthreads must be >= 1")
        self.nthreads = int(nthreads)

    def apply(self, target, rows, values):
        n = rows.size
        if n == 0:
            return 0
        chunks = np.array_split(np.arange(n), self.nthreads)
        privates = np.zeros((self.nthreads,) + target.shape,
                            dtype=target.dtype)
        for t, chunk in enumerate(chunks):
            if chunk.size:
                np.add.at(privates[t], rows[chunk], values[chunk])
        target += privates.sum(axis=0)
        return _max_collisions(rows)


class Coloring(ReductionStrategy):
    """Conflict-free colour rounds.

    Iterations hitting the same target element are assigned distinct
    colours (their rank within the element's hit-list); each colour round
    scatters with unique indices so a plain fancy-store add is safe.
    """

    name = "coloring"

    def apply(self, target, rows, values):
        if rows.size == 0:
            return 0
        order = np.argsort(rows, kind="stable")
        sorted_rows = rows[order]
        # colour = position within its equal-key run
        first_of_run = np.concatenate(
            ([0], np.flatnonzero(np.diff(sorted_rows)) + 1))
        run_id = np.zeros(rows.size, dtype=np.int64)
        run_id[first_of_run] = 1
        run_id = np.cumsum(run_id) - 1
        colour_sorted = np.arange(rows.size) - first_of_run[run_id]
        ncolours = int(colour_sorted.max()) + 1
        for c in range(ncolours):
            sel = order[colour_sorted == c]
            target[rows[sel]] += values[sel]
        return ncolours


_STRATEGIES = {
    "atomics": AtomicAdd,
    "unsafe_atomics": UnsafeAtomicAdd,
    "segmented_reduction": SegmentedReduction,
    "scatter_arrays": ScatterArrays,
    "coloring": Coloring,
}


def make_strategy(name: str, **kwargs) -> ReductionStrategy:
    """Instantiate a race-handling strategy by registry name."""
    try:
        cls = _STRATEGIES[name]
    except KeyError:
        raise ValueError(f"unknown reduction strategy {name!r}; available: "
                         f"{sorted(_STRATEGIES)}") from None
    return cls(**kwargs)
