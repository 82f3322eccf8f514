"""Process-level cache of deterministic construction products.

Warm service workers (:mod:`repro.service.pool`) run many simulation
jobs in one long-lived process; most of a tiny job's latency is spent
rebuilding objects that are pure functions of the configuration.  This
module memoises those products process-wide so the second job with the
same geometry skips the rebuild entirely.  The products kept:

* duct, brick and triangle meshes, and the partitions and per-rank
  tables derived from them;
* FEM stiffness matrices, lumped volume vectors, inlet areas;
* FemPIC's field solver set-up, keyed on the mesh and the boundary
  potentials: the :class:`~repro.fem.DirichletSystem` and the
  :class:`~repro.fem.NewtonPattern` derived from it (the Newton matrix
  pattern, the float64 ``K``, the int64 index copies the C solve reads,
  their checks and the loaded C function);
* the 2-D sheet model's grounded-box :class:`~repro.fem.DirichletSystem`
  (its ``KSPSolver`` owns CG work arrays: it is built with its
  simulation, and a worker reuses it when it reuses that simulation,
  :class:`repro.service.pool.HeldSims`).

Disabled by default: one-shot runs (CLI, tests, benchmarks) keep their
exact allocation behaviour unless a worker opts in with :func:`enable`.
When disabled, :func:`get_or_build` is a transparent pass-through.

Correctness contract: cached values are returned **by reference**, so
they must be treated as immutable — every consumer copies data out
(``decl_dat`` copies its initialiser; ``NewtonSystem`` copies the
matrix values whose diagonal it rewrites and owns its CG work and
constants).  Warm-vs-cold bit-equality of job histories is enforced by
``tests/service/test_determinism.py`` and
``tests/service/test_warm_field_solver.py``.
"""
from __future__ import annotations

from typing import Callable, Dict, Hashable

__all__ = ["enable", "disable", "is_enabled", "get_or_build", "stats",
           "clear"]

_enabled = False
_store: Dict[Hashable, object] = {}
_hits = 0
_misses = 0


def enable() -> None:
    """Turn on process-wide memoisation (the warm-pool worker calls
    this once at boot)."""
    global _enabled
    _enabled = True


def disable(clear_store: bool = True) -> None:
    global _enabled
    _enabled = False
    if clear_store:
        clear()


def is_enabled() -> bool:
    return _enabled


def clear() -> None:
    global _hits, _misses
    _store.clear()
    _hits = 0
    _misses = 0


def get_or_build(key: Hashable, builder: Callable[[], object]):
    """Return the cached value for ``key``, building it on first use.

    ``key`` must capture *every* input of ``builder`` (the callers key
    on the full geometry tuple).  A no-op call of ``builder()`` when the
    cache is disabled.
    """
    global _hits, _misses
    if not _enabled:
        return builder()
    try:
        value = _store[key]
    except KeyError:
        _misses += 1
        value = _store[key] = builder()
        return value
    _hits += 1
    return value


def stats() -> dict:
    """Hit/miss counters (the service reports these per worker so the
    bench can prove warm runs actually reused cached construction)."""
    return {"enabled": _enabled, "entries": len(_store),
            "hits": _hits, "misses": _misses}
