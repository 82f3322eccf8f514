"""Launch a distributed app over either rank transport.

:func:`run_distributed` is the single entry point the CLI, the tests and
the benchmarks share: the same application code
(:class:`~repro.apps.fempic.distributed.DistributedFemPic`,
:class:`~repro.apps.cabana.distributed.DistributedCabana`,
:class:`~repro.apps.twod.distributed.DistributedTwoD`,
:class:`~repro.apps.advec.simulation.DistributedAdvec`) runs either as an
in-process simulation (``transport="sim"``) or as N real rank processes
(``transport="proc"``), each rank free to use any on-node backend
(``seq``/``vec``/``omp``/``cuda``/``hip``/``xe`` — the MPI+X matrix).

Under ``proc`` every rank ships its history, its :class:`CommStats`
ledgers and its per-loop :class:`PerfRecorder` back to the launcher,
which checks the replicated histories agree and merges the ledgers into
the same program-level view the simulation produces directly.
"""
from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..perf.timers import PerfRecorder
from ..runtime.comm import CommStats, SimComm
from .proc import DEFAULT_MAX_FRAME, DEFAULT_OP_TIMEOUT, ProcCluster
from .transport import RankFailure, TRANSPORT_KINDS

__all__ = ["run_distributed", "DistResult", "APP_NAMES"]

APP_NAMES = ("fempic", "cabana", "twod", "advec")


def _build_app(spec: dict, comm):
    """Instantiate the requested app over ``comm`` (both transports pass
    through here, so sim and proc runs are the same construction)."""
    name = spec["app"]
    config = spec.get("config")
    if spec.get("backend"):
        config = dataclasses.replace(config, backend=spec["backend"])
    if name == "fempic":
        from ..apps.fempic.distributed import DistributedFemPic
        return DistributedFemPic(
            config, comm=comm,
            partition_method=spec.get("partition_method")
            or "principal_direction",
            ranks_per_node=spec.get("ranks_per_node"))
    if name == "cabana":
        from ..apps.cabana.distributed import DistributedCabana
        return DistributedCabana(
            config, comm=comm,
            partition_method=spec.get("partition_method")
            or "principal_direction")
    if name == "twod":
        from ..apps.twod.distributed import DistributedTwoD
        return DistributedTwoD(config, comm=comm)
    if name == "advec":
        from ..apps.advec import DistributedAdvec
        return DistributedAdvec(config, comm=comm)
    raise ValueError(f"unknown app {name!r}; expected one of "
                     f"{APP_NAMES}")


def _rank_perf(app) -> Dict[int, dict]:
    """Per-resident-rank loop stats as serializable dicts."""
    return {r: rk.ctx.perf.to_dict() for r, rk in app._local()}


def _elastic_active(spec: dict) -> bool:
    return bool((spec.get("rebalance") or "never") != "never"
                or spec.get("checkpoint_every") or spec.get("recover")
                or spec.get("_kill"))


def _run_app(app, spec: dict):
    """Run the app's step loop — directly, or under the elastic
    controller when any rebalance/checkpoint/recovery option is on.
    Returns ``(history, elastic_summary_or_None)``."""
    if not _elastic_active(spec):
        return app.run(spec.get("n_steps")), None
    from ..elastic import ElasticController, latest_snapshot, \
        restore_snapshot
    kill = spec.get("_kill")
    ctl = ElasticController(
        app, mode=spec.get("rebalance") or "never",
        check_every=int(spec.get("rebalance_every") or 1),
        checkpoint_every=spec.get("checkpoint_every"),
        checkpoint_dir=spec.get("checkpoint_dir"),
        kill_rank=kill[0] if kill else None,
        kill_step=kill[1] if kill else None)
    start = 0
    if spec.get("recover") and spec.get("checkpoint_dir"):
        found = latest_snapshot(spec["checkpoint_dir"])
        if found is not None:
            start, elastic_state = restore_snapshot(app, found[1])
            ctl.load_state(elastic_state)
    n_steps = spec.get("n_steps")
    if n_steps is None:
        n_steps = app.cfg.n_steps
    history = ctl.run(n_steps, start)
    return history, ctl.stats()


def _rank_entry(transport, spec: dict) -> dict:
    """Runs inside every rank process; the return value is the rank's
    report shipped back through the router."""
    t0 = time.perf_counter()
    app = _build_app(spec, transport)
    if spec.get("seed_ppc"):
        app.seed_uniform_plasma(int(spec["seed_ppc"]))
    history, elastic = _run_app(app, spec)
    wall = time.perf_counter() - t0
    solve_stats = getattr(app, "solve_stats", None)
    return {"rank": transport.my_rank,
            "history": history,
            "stats": transport.stats.to_dict(),
            "solve_stats": solve_stats.to_dict() if solve_stats
            is not None else None,
            "perf": _rank_perf(app),
            "elastic": elastic,
            "wall_seconds": wall}


@dataclass
class DistResult:
    """What a distributed run reports, identically for both transports."""

    app: str
    nranks: int
    transport: str
    history: dict
    #: program-level PIC traffic (merged across ranks under ``proc``)
    stats: CommStats
    #: gathered-field-solve traffic, if the app ledgers it separately
    solve_stats: Optional[CommStats]
    #: per-rank loop breakdowns
    rank_perf: Dict[int, PerfRecorder] = field(default_factory=dict)
    #: launcher-side wall-clock of the whole run
    wall_seconds: float = 0.0
    #: each rank process's own construction+run wall-clock
    rank_walls: List[float] = field(default_factory=list)
    #: elastic-runtime summary (rebalances, snapshots, …) when on
    elastic: Optional[dict] = None
    #: rank-process relaunches the recovery supervisor performed
    restarts: int = 0

    @property
    def perf(self) -> PerfRecorder:
        """Program-level roll-up of every rank's loop stats."""
        merged = PerfRecorder()
        for r in sorted(self.rank_perf):
            merged.merge(self.rank_perf[r])
        return merged

    def busy_seconds_per_rank(self) -> List[float]:
        return [self.rank_perf[r].total_seconds if r in self.rank_perf
                else 0.0 for r in range(self.nranks)]

    @property
    def critical_path_seconds(self) -> float:
        """Busy time of the slowest rank — the quantity that shrinks
        with rank count when the kernels dominate, independently of how
        many cores the host happens to have."""
        return max(self.busy_seconds_per_rank())

    def rank_load_imbalance(self) -> float:
        """max/mean busy seconds across ranks (1.0 = perfect balance;
        the quantity online rebalancing drives down)."""
        return _imbalance(self.busy_seconds_per_rank())

    def loop_imbalance(self) -> Dict[str, float]:
        """Per-loop max/mean seconds across the ranks that ran it."""
        names = sorted({name for rec in self.rank_perf.values()
                        for name in rec.loops})
        return {name: _imbalance([rec.loops[name].seconds
                                  for rec in self.rank_perf.values()
                                  if name in rec.loops])
                for name in names}


def _imbalance(seconds: List[float]) -> float:
    """max/mean of the non-zero entries (0.0 when there are none)."""
    busy = [s for s in seconds if s > 0.0]
    if not busy:
        return 0.0
    return max(busy) * len(busy) / sum(busy)


def _histories_agree(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    return all(np.array_equal(np.asarray(a[k]), np.asarray(b[k]))
               for k in a)


def run_distributed(app: str = "fempic", config=None, nranks: int = 2,
                    transport: str = "sim",
                    n_steps: Optional[int] = None,
                    seed_ppc: Optional[int] = None,
                    backend: Optional[str] = None,
                    partition_method: Optional[str] = None,
                    ranks_per_node: Optional[int] = None,
                    op_timeout: float = DEFAULT_OP_TIMEOUT,
                    max_frame_bytes: int = DEFAULT_MAX_FRAME,
                    rebalance: str = "never",
                    rebalance_every: int = 1,
                    checkpoint_every: Optional[int] = None,
                    checkpoint_dir=None,
                    recover: bool = False,
                    recover_ranks: Optional[int] = None,
                    max_restarts: int = 2,
                    kill: Optional[tuple] = None
                    ) -> DistResult:
    """Run ``app`` on ``nranks`` ranks over the chosen transport.

    The elastic options: ``rebalance`` selects the online-repartition
    mode (``never``/``auto``/``always``), checked every
    ``rebalance_every`` steps; ``checkpoint_every``/``checkpoint_dir``
    enable periodic distributed snapshots; ``recover`` resumes from the
    newest snapshot *and* — under ``proc`` — arms the supervisor, which
    relaunches the cluster (up to ``max_restarts`` times, optionally on
    ``recover_ranks`` < nranks ranks) after a :class:`RankFailure`.
    ``kill=(rank, step)`` injects a hard rank death for the recovery
    tests."""
    if transport not in TRANSPORT_KINDS:
        raise ValueError(f"unknown transport {transport!r}; expected "
                         f"one of {TRANSPORT_KINDS}")
    if config is None:
        raise ValueError("run_distributed needs an app config object")
    spec = {"app": app, "config": config, "n_steps": n_steps,
            "seed_ppc": seed_ppc, "backend": backend,
            "partition_method": partition_method,
            "ranks_per_node": ranks_per_node,
            "rebalance": rebalance, "rebalance_every": rebalance_every,
            "checkpoint_every": checkpoint_every,
            "checkpoint_dir": str(checkpoint_dir)
            if checkpoint_dir is not None else None,
            "recover": recover, "_kill": kill}

    t0 = time.perf_counter()
    if transport == "sim":
        comm = SimComm(nranks)
        instance = _build_app(spec, comm)
        if seed_ppc:
            instance.seed_uniform_plasma(int(seed_ppc))
        history, elastic = _run_app(instance, spec)
        wall = time.perf_counter() - t0
        solve_stats = getattr(instance, "solve_stats", None)
        return DistResult(
            app=app, nranks=nranks, transport=transport,
            history=history, stats=comm.stats,
            solve_stats=solve_stats,
            rank_perf={r: PerfRecorder.from_dict(p)
                       for r, p in _rank_perf(instance).items()},
            wall_seconds=wall, rank_walls=[wall] * nranks,
            elastic=elastic)

    restarts = 0
    while True:
        cluster = ProcCluster(nranks, _rank_entry, args=(spec,),
                              op_timeout=op_timeout,
                              max_frame_bytes=max_frame_bytes)
        try:
            payloads = cluster.run()
            break
        except RankFailure:
            if not (recover and spec["checkpoint_dir"]) \
                    or restarts >= max_restarts:
                raise
            from ..elastic import latest_snapshot
            if latest_snapshot(spec["checkpoint_dir"]) is None:
                raise            # nothing to resume from
            restarts += 1
            # relaunch from the newest snapshot; the injected kill must
            # not fire again, and the survivor count may shrink
            spec = dict(spec, _kill=None, recover=True)
            if recover_ranks is not None:
                nranks = recover_ranks
    wall = time.perf_counter() - t0

    history = payloads[0]["history"]
    for p in payloads[1:]:
        if not _histories_agree(history, p["history"]):
            raise RankFailure(p["rank"], "protocol",
                              "replicated histories diverged between "
                              "ranks — collectives are broken")
    stats = CommStats(nranks)
    solve_stats = None
    rank_perf: Dict[int, PerfRecorder] = {}
    for p in payloads:
        stats.merge(CommStats.from_dict(p["stats"]))
        if p["solve_stats"] is not None:
            if solve_stats is None:
                solve_stats = CommStats(nranks)
            solve_stats.merge(CommStats.from_dict(p["solve_stats"]))
        for r, rec in p["perf"].items():
            rank_perf[int(r)] = PerfRecorder.from_dict(rec)
    return DistResult(
        app=app, nranks=nranks, transport=transport, history=history,
        stats=stats, solve_stats=solve_stats, rank_perf=rank_perf,
        wall_seconds=wall,
        rank_walls=[p["wall_seconds"] for p in payloads],
        elastic=payloads[0].get("elastic"), restarts=restarts)
