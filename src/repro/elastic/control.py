"""The elastic controller: drives a distributed app's step loop with
online rebalancing, periodic snapshots and (for tests) fault injection
wired in.

Per-step order matters for recovery semantics:

1. ``app.step()``;
2. snapshot (if due) — so a subsequent crash rolls back at most
   ``checkpoint_every`` steps;
3. fault injection (if armed, proc transport only) — placed *after* the
   snapshot so the kill-at-checkpoint-step test exercises the freshest
   snapshot;
4. policy check — gather per-rank busy seconds and particle counts with
   one-hot allreduces (every rank observes bit-identical vectors, so
   the policy decision is identical on every rank and nobody deadlocks
   in the collective migration that follows), then rebalance if the
   policy says the migration amortises.

The partition target comes from ``app._elastic_partition(weights)`` with
per-cell particle counts as weights — each app chooses its slab axis and
layer keys there so rebalancing cannot split layers that determinism
depends on (e.g. fempic's injection layer).
"""
from __future__ import annotations

import os
from typing import Optional

import numpy as np

from .migrate import rebalance
from .monitor import ImbalanceMonitor
from .policy import RebalancePolicy
from .recover import write_snapshot

__all__ = ["ElasticController"]


class ElasticController:
    """Runs an app's step loop with the elastic runtime attached."""

    def __init__(self, app, *, mode: str = "never", check_every: int = 1,
                 alpha: float = 0.5, threshold: float = 1.2,
                 min_particles: int = 64,
                 checkpoint_every: Optional[int] = None,
                 checkpoint_dir=None, keep_snapshots: int = 2,
                 kill_rank: Optional[int] = None,
                 kill_step: Optional[int] = None):
        self.app = app
        self.comm = app.comm
        self.policy = RebalancePolicy(mode, alpha=alpha,
                                      threshold=threshold,
                                      min_particles=min_particles)
        self.monitor = ImbalanceMonitor(self.comm.nranks, alpha=alpha)
        self.check_every = max(int(check_every), 1)
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self.keep_snapshots = keep_snapshots
        self.kill_rank = kill_rank
        self.kill_step = kill_step
        self.n_rebalances = 0
        self.n_snapshots = 0
        self.reports = []

    # -- state round-trip through snapshots -----------------------------------

    def state_dict(self) -> dict:
        return {"policy": self.policy.to_dict(),
                "monitor": self.monitor.to_dict(),
                "n_rebalances": self.n_rebalances}

    def load_state(self, payload: Optional[dict]) -> None:
        if not payload:
            return
        self.policy = RebalancePolicy.from_dict(payload["policy"])
        self.monitor = ImbalanceMonitor.from_dict(payload["monitor"])
        self.n_rebalances = int(payload["n_rebalances"])

    # -- the loop -------------------------------------------------------------

    def run(self, n_steps: int, start_step: int = 0):
        for step in range(start_step, n_steps):
            self.app.step()
            self._after_step(step + 1)
        return self.app.history

    def _after_step(self, completed: int) -> None:
        if (self.checkpoint_every and self.checkpoint_dir is not None
                and completed % self.checkpoint_every == 0):
            write_snapshot(self.app, completed, self.checkpoint_dir,
                           elastic_state=self.state_dict(),
                           keep=self.keep_snapshots)
            self.n_snapshots += 1
        if (self.kill_step is not None and completed == self.kill_step
                and getattr(self.comm, "my_rank", None) == self.kill_rank):
            # simulate a hard rank failure: no cleanup, no goodbye
            os._exit(1)
        if self.policy.enabled and completed % self.check_every == 0:
            self._check()

    # -- one policy check -----------------------------------------------------

    def _gather(self, local_vals, dtype=np.float64) -> np.ndarray:
        """Allreduce-sum of one-hot per-rank vectors: every rank ends
        up with the same full per-rank vector."""
        nranks = self.comm.nranks
        per_rank = []
        for r in range(nranks):
            v = np.zeros(nranks, dtype=dtype)
            if self.comm.is_local(r):
                v[r] = local_vals[r]
            per_rank.append(v)
        return np.asarray(self.comm.allreduce(per_rank, "sum"))

    def _particle_weights(self) -> np.ndarray:
        """Global per-cell particle counts (the repartition weights)."""
        comm, app = self.comm, self.app
        n_cells = len(app.cell_owner)
        per_rank = []
        for r in range(comm.nranks):
            v = np.zeros(n_cells, dtype=np.float64)
            if comm.is_local(r):
                rk = app.ranks[r]
                gcell = app.meshes[r].cells_global[
                    rk.p2c.p2c[: rk.parts.size]]
                np.add.at(v, gcell, 1.0)
            per_rank.append(v)
        return np.asarray(comm.allreduce(per_rank, "sum"))

    def _check(self) -> None:
        app = self.app
        busy = self._gather(app.busy_seconds_per_rank())
        counts = {r: float(app.ranks[r].parts.size)
                  for r in self.comm.local_ranks}
        parts = self._gather([counts.get(r, 0.0)
                              for r in range(self.comm.nranks)])
        self.monitor.observe(busy, parts.astype(np.int64))
        self.policy.note_check()
        if not self.policy.should_rebalance(self.monitor):
            return
        weights = self._particle_weights()
        new_owner = app._elastic_partition(weights)
        report = rebalance(app, new_owner)
        if (report.n_cells_moved or report.n_particles_moved
                or report.n_nodes_moved):
            self.policy.note_migration(report.seconds_max)
            self.monitor.reset_interval()
            self.n_rebalances += 1
            self.reports.append(report)

    def stats(self) -> dict:
        """Replicated-deterministic summary for the driver payload."""
        return {"mode": self.policy.mode,
                "rebalances": self.n_rebalances,
                "skips": self.policy.n_skips,
                "snapshots": self.n_snapshots,
                "migrate_seconds": self.policy.migrate_seconds,
                "cells_moved": int(sum(r.n_cells_moved
                                       for r in self.reports)),
                "particles_moved": int(sum(r.n_particles_moved
                                           for r in self.reports))}
