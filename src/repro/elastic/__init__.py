"""Elastic runtime: online load rebalancing and rank-failure recovery.

Three cooperating pieces turn the static distributed runtime of
PRs 3-4 into an elastic one:

* :mod:`monitor` / :mod:`policy` — measure per-rank busy seconds and
  particle counts each step and decide, from EWMA cost estimates, when
  a repartition's projected gain amortises its migration cost;
* :mod:`migrate` — the live migration protocol for an app written on
  :class:`~repro.runtime.ranked.RankedApp`: given a new ``cell_owner``,
  exchange owned mesh rows and particles over the existing transport
  ops, rebuild halo plans in place and renumber ``p2c`` — the assembled
  global state is preserved bit-for-bit (data moves, no arithmetic);
* :mod:`recover` — per-rank distributed snapshots plus a consistent
  global manifest, and the restore paths (same-rank-count: bit-exact;
  fewer ranks: assemble-and-repartition) the driver's supervisor uses
  after a :class:`~repro.dist.transport.RankFailure`.

:class:`~repro.elastic.control.ElasticController` drives an app's step
loop with all three wired in.
"""
from .control import ElasticController
from .migrate import MigrationReport, rebalance
from .monitor import ImbalanceMonitor
from .policy import REBALANCE_MODES, RebalancePolicy
from .recover import (latest_snapshot, restore_snapshot, snapshot_step_dir,
                      write_snapshot)

__all__ = ["ImbalanceMonitor", "RebalancePolicy", "REBALANCE_MODES",
           "rebalance", "MigrationReport", "ElasticController",
           "write_snapshot", "restore_snapshot", "latest_snapshot",
           "snapshot_step_dir"]
