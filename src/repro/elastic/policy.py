"""The rebalance trigger policy.

:class:`RebalancePolicy` is the system's only EWMA cost policy: it keeps
EWMA estimates of what a migration costs (measured wall seconds of past migrations,
allreduce-maxed so every rank sees the same number) and of how long a
repartition's benefit lives (the observed interval between rebalances),
and trigger only when

    excess_seconds · intervals_between_rebalances  >  migrate_seconds

where ``excess_seconds`` is the monitor's projected per-interval saving
(slowest rank's busy time above the mean).  Until a migration has been
measured the policy triggers optimistically — that is also what primes
the cost estimate.  Modes: ``never`` (elastic runtime off — the
default, keeping every existing code path bit-stable), ``always``
(repartition at every check where the imbalance exceeds the threshold)
and ``auto``.
"""
from __future__ import annotations

from typing import Optional

from .monitor import ImbalanceMonitor, _ewma

__all__ = ["RebalancePolicy", "REBALANCE_MODES"]

REBALANCE_MODES = ("never", "auto", "always")


class RebalancePolicy:
    """Decides when a live repartition pays for itself."""

    def __init__(self, mode: str = "never", alpha: float = 0.5,
                 threshold: float = 1.2, min_particles: int = 64):
        if mode not in REBALANCE_MODES:
            raise ValueError(f"unknown rebalance mode {mode!r}; "
                             f"available: {REBALANCE_MODES}")
        self.mode = mode
        self.alpha = float(alpha)
        #: below this max/mean imbalance a repartition cannot win
        self.threshold = float(threshold)
        #: below this global particle count the bookkeeping dominates
        self.min_particles = int(min_particles)
        #: EWMA wall seconds of one migration
        self.migrate_seconds: Optional[float] = None
        #: EWMA checks between consecutive rebalances (benefit lifetime)
        self.intervals_between = 1.0
        self._checks_since_rebalance = 0
        self.n_rebalances = 0
        self.n_skips = 0

    @property
    def enabled(self) -> bool:
        return self.mode != "never"

    # -- measurements ---------------------------------------------------------

    def note_check(self) -> None:
        self._checks_since_rebalance += 1

    def note_migration(self, seconds: float) -> None:
        """Record a completed migration's (rank-agreed) wall seconds."""
        self.migrate_seconds = _ewma(self.migrate_seconds, float(seconds),
                                     self.alpha)
        if self.n_rebalances > 0:
            self.intervals_between = _ewma(
                self.intervals_between,
                float(max(self._checks_since_rebalance, 1)), self.alpha)
        self._checks_since_rebalance = 0
        self.n_rebalances += 1

    # -- the decision ---------------------------------------------------------

    def should_rebalance(self, monitor: ImbalanceMonitor) -> bool:
        if not self.enabled:
            return False
        if monitor.imbalance is None:
            return False          # no complete interval measured yet
        total_particles = (0 if monitor.particles is None
                           else int(monitor.particles.sum()))
        if total_particles < self.min_particles:
            return False
        if monitor.imbalance <= self.threshold:
            return False
        if self.mode == "always":
            return True
        if self.migrate_seconds is None:
            return True           # optimistic bootstrap: migrate and measure
        gain = monitor.excess_seconds * max(self.intervals_between, 1.0)
        if gain > self.migrate_seconds:
            return True
        self.n_skips += 1
        return False

    # -- (de)serialisation for checkpoints ------------------------------------

    def to_dict(self) -> dict:
        return {"mode": self.mode, "alpha": self.alpha,
                "threshold": self.threshold,
                "min_particles": self.min_particles,
                "migrate_seconds": self.migrate_seconds,
                "intervals_between": self.intervals_between,
                "checks_since_rebalance": self._checks_since_rebalance,
                "n_rebalances": self.n_rebalances,
                "n_skips": self.n_skips}

    @classmethod
    def from_dict(cls, payload: dict) -> "RebalancePolicy":
        pol = cls(payload["mode"], payload["alpha"], payload["threshold"],
                  payload["min_particles"])
        pol.migrate_seconds = payload["migrate_seconds"]
        pol.intervals_between = payload["intervals_between"]
        pol._checks_since_rebalance = payload["checks_since_rebalance"]
        pol.n_rebalances = payload["n_rebalances"]
        pol.n_skips = payload["n_skips"]
        return pol

    def __repr__(self) -> str:
        fmt = (lambda v: "?" if v is None else f"{v:.3g}")
        return (f"<RebalancePolicy {self.mode} "
                f"migrate_s={fmt(self.migrate_seconds)} "
                f"rebalances={self.n_rebalances} skips={self.n_skips}>")
