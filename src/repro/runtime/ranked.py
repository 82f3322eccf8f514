"""One app definition for every rank count.

An OP-PIC application is declared once: *per rank* — the sets, maps and
dats of one rank's local mesh — and stepped once.  Its ``step`` is a
sequence of **phases** ("on every resident rank, run these loops",
:meth:`RankedApp.each_rank`) separated by **exchanges**:

* :meth:`~RankedApp.push_cells` / :meth:`~RankedApp.push_nodes` —
  owner → ghost refresh of a mesh dat;
* :meth:`~RankedApp.reduce_cells` / :meth:`~RankedApp.reduce_nodes` —
  ghost → owner accumulation after a deposit;
* :meth:`~RankedApp.move_particles` — ``opp_particle_move`` with
  migration;
* :meth:`~RankedApp.gather_nodes` / :meth:`~RankedApp.scatter_nodes` —
  traffic of a field solve run by rank 0 over the whole node vector
  (the PETSc stand-in, ledgered apart in ``solve_stats``);
* :meth:`~RankedApp.diagnostics` — the step's one allreduce.

:class:`RankedApp` owns everything about that shape that is not physics:
partitioning, the rank records, the exchanges, ``run()``, per-rank busy
time and the hooks the elastic runtime drives (:mod:`repro.elastic.migrate`).
An app supplies ``_declare(rk)`` and its phases.

A push that names several fields, as ``push_cells("e", "b")``, is
coalesced under ``cfg.program == "fuse"``: one frame per neighbour pair
carries all of them, and the push is noted on ``self.program``
(:mod:`repro.program`).  Under ``"off"`` each field travels in its own
frame.

The single-rank simulation is the one-rank case, not another code path:
one rank owns every cell, has no halo, and every exchange above returns
before it touches the communicator — no message, no collective — so the
step is exactly its loops.  A one-rank app is also its own rank record
(``sim.ranks == [sim]``), so ``sim.parts``, ``sim.ctx`` or ``sim.phi``
are the declarations themselves.
"""
from __future__ import annotations

import time
from operator import attrgetter
from types import SimpleNamespace
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.api import decl_dat, decl_set
from ..core.context import Context, push_context
from ..core.move import particle_move
from ..core.sets import recording_sets
from ..program import Program
from .comm import CommStats
from .dh import DirectHopGlobalMover, direct_hop_assign
from .exchange import mpi_particle_move
from .halo import (build_rank_meshes, push_cell_halos, push_halos_grouped,
                   push_node_halos, reduce_cell_halos, reduce_node_halos)
from .objcache import get_or_build
from .partition import diffusive, partition

__all__ = ["RankedApp", "Rank"]

_TAG_SCATTER = 40
_TAG_GATHER = 41


class Rank:
    """One rank's declarations: its id ``r``, its
    :class:`~repro.runtime.halo.RankMesh` ``rm``, its backend
    :class:`~repro.core.context.Context` ``ctx``, whatever DSL
    handles the app's ``_declare`` adds as attributes, the ``sets`` it
    declared and the RNG ``streams`` (name → generator) it draws from:
    what :mod:`repro.util.checkpoint` snapshots."""


class RankedApp:
    """Base of an app written once for 1..N ranks (see module docstring).

    Subclasses set the three dat-name tuples, call :meth:`_partition`
    from their constructor and implement ``_declare(rk)``.
    """

    #: particle dats that travel with a migrating particle
    part_dats: Tuple[str, ...] = ()
    #: mesh dats whose values carry from one step into the next — what a
    #: live repartition or a resized restore has to move
    cell_dats: Tuple[str, ...] = ()
    node_dats: Tuple[str, ...] = ()
    #: perf row timing the halo exchanges on every rank (the paper's
    #: ``Update_Ghosts`` breakdown entry); ``None`` records none
    halo_row: Optional[str] = None

    # -- construction ----------------------------------------------------------

    def _partition(self, comm, method: str, mesh_key: tuple, *,
                   centroids: np.ndarray, c2c: np.ndarray,
                   c2n: Optional[np.ndarray] = None, axis: int,
                   layers: Tuple[float, int],
                   ranks_per_node: Optional[int] = None) -> None:
        """Split the global mesh (``c2c`` builds the halo, ``c2n`` the
        node distribution) over ``comm``'s ranks and declare the resident
        ones.  ``layers = (extent, count)`` along ``axis`` are the slabs
        an elastic repartition may not split."""
        cfg = self.cfg
        self.comm = comm
        self._c2c, self._c2n = c2c, c2n
        self._centroids, self._axis, self._layers = centroids, axis, layers
        self._ranks_per_node = ranks_per_node
        #: objcache key of the construction partition and of what is
        #: derived from its rank meshes (``_rank_product``)
        self._part_key = ("partition", method, comm.nranks) + mesh_key

        def split():
            owner = partition(method, comm.nranks, centroids=centroids,
                              c2c=c2c, axis=axis)
            return (owner,) + self._build_partition(owner)

        self.cell_owner, self.meshes, self.plan = get_or_build(
            self._part_key, split)
        self._built_meshes = self.meshes
        #: traffic of the gathered field solve, apart from PIC traffic
        self.solve_stats = CommStats(comm.nranks)
        self.overlay = self.dh_mover = None
        mode = getattr(cfg, "program", "off")
        #: the coalesced pushes under program="fuse" (None when "off")
        self.program = None if mode == "off" else Program(mode)
        self.ranks: List[Optional[Rank]] = [
            self._make_rank(r, self.meshes[r],
                            Context(cfg.backend, **cfg.backend_options))
            if comm.is_local(r) else None for r in range(comm.nranks)]

    def _make_rank(self, r: int, rm, ctx: Context) -> Rank:
        # a one-rank app is its own rank record: ``sim.parts``,
        # ``sim.ctx``, ``sim.phi`` are the declarations themselves
        rk = self if self.nranks == 1 else Rank()
        rk.r, rk.rm, rk.ctx = r, rm, ctx
        rk.streams = {}
        with recording_sets() as sets:
            self._declare(rk)
        rk.sets = tuple(sets)
        return rk

    def _rank_product(self, rk: Rank, name: str, build: Callable):
        """A pure function of rank ``rk``'s mesh, kept in the objcache
        next to the partition it derives from (a rank mesh an elastic
        repartition built later is not cached)."""
        if rk.rm is not self._built_meshes[rk.r]:
            return build()
        return get_or_build((name, rk.r) + self._part_key, build)

    @property
    def nranks(self) -> int:
        return self.comm.nranks

    # -- phases ----------------------------------------------------------------

    def _local(self) -> List[Tuple[int, Rank]]:
        """(rank, declarations) pairs resident in this process."""
        return [(rk.r, rk) for rk in self.ranks if rk is not None]

    def each_rank(self) -> Iterator[Rank]:
        """Every resident rank in turn, with its context installed."""
        for rk in self.ranks:
            if rk is not None:
                with push_context(rk.ctx):
                    yield rk

    def on_ranks(self, build: Callable) -> list:
        """``build(rk)`` per rank (``None`` where the rank lives in
        another process): the rank-indexed lists the exchange functions
        take."""
        return [build(rk) if rk is not None else None for rk in self.ranks]

    def per_rank(self, name: str) -> list:
        return self.on_ranks(attrgetter(name))

    # -- exchanges (each a no-op at one rank) ----------------------------------

    def _halo(self, exchange: Callable, names: Sequence[str],
              op: Optional[str] = None) -> None:
        """Run ``exchange`` once per field; a push (``op`` set) of
        several fields under program="fuse" runs as one grouped push."""
        if self.nranks == 1:
            return
        if op is not None and len(names) > 1 and self.program is not None:
            self.program.note_push(op, tuple(names))
            self._timed(names, push_halos_grouped, op,
                        [self.per_rank(name) for name in names],
                        self.plan, self.comm)
            return
        for name in names:
            self._timed((name,), exchange, self.per_rank(name), self.plan,
                        self.comm)

    def _timed(self, names: Sequence[str], exchange: Callable,
               *args) -> None:
        """``exchange(*args)``, its time spread over ``names`` and the
        resident ranks as one ``halo_row`` call each."""
        t0 = time.perf_counter()
        exchange(*args)
        if self.halo_row is None:
            return
        local = self._local()
        dt = (time.perf_counter() - t0) / (len(local) * len(names))
        for _name in names:
            for _r, rk in local:
                rk.ctx.perf.record_loop(
                    self.halo_row, n=rk.rm.n_halo_cells, seconds=dt,
                    flops=0.0, nbytes=rk.rm.n_halo_cells * 24.0,
                    indirect_inc=False)

    def push_cells(self, *names: str) -> None:
        self._halo(push_cell_halos, names, "cell_push")

    def push_nodes(self, *names: str) -> None:
        self._halo(push_node_halos, names, "node_push")

    def reduce_cells(self, *names: str) -> None:
        self._halo(reduce_cell_halos, names)

    def reduce_nodes(self, *names: str) -> None:
        self._halo(reduce_node_halos, names)

    def move_particles(self, kernel, name: str, c2c: str,
                       args: Callable) -> list:
        """``opp_particle_move`` over the map named ``c2c`` on every
        rank, migrating particles that cross a rank boundary.
        ``args(rk)`` builds a rank's kernel arguments.  Returns the
        rank-indexed move results."""
        if self.nranks == 1:
            rk = self.ranks[0]
            with push_context(rk.ctx):
                return [particle_move(kernel, name, rk.parts,
                                      getattr(rk, c2c), rk.p2c, *args(rk))]
        return mpi_particle_move(
            self.comm, self.plan, self.meshes, self.per_rank("ctx"),
            kernel, name, self.per_rank("parts"), self.per_rank(c2c),
            self.per_rank("p2c"), self.on_ranks(args),
            self.on_ranks(self._travelling))

    def _travelling(self, rk: Rank) -> list:
        return [getattr(rk, name) for name in self.part_dats]

    def use_direct_hop(self, overlay) -> None:
        """Jump particles near their cell through ``overlay`` before each
        move (``direct_hop``), to the owning rank when there are several."""
        self.overlay = overlay
        if self.nranks > 1:
            self.dh_mover = DirectHopGlobalMover(
                overlay.with_rank_map(self.cell_owner), self.comm,
                self.plan, self.meshes,
                ranks_per_node=self._ranks_per_node)

    def direct_hop(self, pos: str = "pos") -> None:
        if self.dh_mover is not None:
            self.dh_mover.global_move(
                self.per_rank("parts"), self.per_rank(pos),
                self.per_rank("p2c"), self.on_ranks(self._travelling))
        elif self.overlay is not None:
            for rk in self.each_rank():
                direct_hop_assign(self.overlay, rk.parts,
                                  getattr(rk, pos), rk.p2c)

    def solver_nodes(self, n_nodes: int, **dats) -> Optional[SimpleNamespace]:
        """Where rank 0 runs a field solve over the whole node vector:
        ``ctx``, the node set ``nodes`` and one dim-1 dat per keyword
        (its initial values, or ``None``).  At one rank these *are* the
        rank's own ``nodes`` and same-named dats; at N ranks a global set
        that :meth:`gather_nodes` / :meth:`scatter_nodes` fill and drain.
        ``None`` in a process that does not host rank 0."""
        rk = self.ranks[0]
        if rk is None:
            return None
        if self.nranks == 1:
            return SimpleNamespace(
                ctx=rk.ctx, nodes=rk.nodes,
                **{name: getattr(rk, name) for name in dats})
        nodes = decl_set(n_nodes, "solve_nodes")
        return SimpleNamespace(
            ctx=rk.ctx, nodes=nodes,
            **{name: decl_dat(nodes, 1, np.float64, init, f"solve_{name}")
               for name, init in dats.items()})

    def gather_nodes(self, name: str, into) -> None:
        """Owned rows of every rank's node dat → rank 0's ``into``."""
        if self.nranks == 1:
            return
        comm = self.comm
        old = comm.swap_stats(self.solve_stats)
        try:
            for r, rm in enumerate(self.meshes):
                n = rm.n_owned_nodes
                if r and comm.is_local(r):
                    comm.send(r, 0, getattr(self.ranks[r], name).data[:n],
                              tag=_TAG_GATHER)
                if comm.is_local(0):
                    into.data[rm.nodes_global[:n]] = (
                        comm.recv(0, r, tag=_TAG_GATHER) if r
                        else getattr(self.ranks[0], name).data[:n])
        finally:
            comm.swap_stats(old)

    def scatter_nodes(self, source, name: str) -> None:
        """Rank 0's ``source`` → every rank's owned rows, then ghosts."""
        if self.nranks == 1:
            return
        comm = self.comm
        old = comm.swap_stats(self.solve_stats)
        try:
            for r, rm in enumerate(self.meshes):
                n = rm.n_owned_nodes
                if r and comm.is_local(0):
                    comm.send(0, r, source.data[rm.nodes_global[:n]],
                              tag=_TAG_SCATTER)
                if comm.is_local(r):
                    getattr(self.ranks[r], name).data[:n] = (
                        comm.recv(r, 0, tag=_TAG_SCATTER) if r
                        else source.data[rm.nodes_global[:n]])
        finally:
            comm.swap_stats(old)
        self.push_nodes(name)

    def diagnostics(self, sums: Callable,
                    maxes: Callable = lambda rk: ()):
        """The step's one collective.  ``sums(rk)`` lists the values to
        add over ranks, ``maxes(rk)`` those to maximise; returns the two
        reduced arrays.  The maxima ride in the same sum, one slot per
        rank (adding zeros is exact), so it stays one allreduce."""
        local = {r: (np.asarray(sums(rk), dtype=np.float64),
                     np.asarray(maxes(rk), dtype=np.float64))
                 for r, rk in enumerate(self.ranks) if rk is not None}
        nranks = len(self.ranks)
        if nranks == 1:
            return local[0]
        n_sum, n_max = (part.size for part in next(iter(local.values())))
        rows = np.zeros((nranks, n_sum + nranks * n_max))
        for r, (s, m) in local.items():
            rows[r, :n_sum] = s
            rows[r, n_sum + r * n_max:n_sum + (r + 1) * n_max] = m
        total = self.comm.allreduce(list(rows), "sum")
        return (total[:n_sum],
                total[n_sum:].reshape(nranks, n_max).max(axis=0))

    # -- main loop and perf ----------------------------------------------------

    def run(self, n_steps: Optional[int] = None) -> dict:
        steps = n_steps if n_steps is not None else self.cfg.n_steps
        for _ in range(steps):
            self.step()
        return self.history

    def busy_seconds_per_rank(self) -> List[float]:
        return [rk.ctx.perf.total_seconds if rk is not None else 0.0
                for rk in self.ranks]

    # -- elastic-runtime hooks (see repro.elastic.migrate) ---------------------

    def _build_partition(self, new_owner, nranks: Optional[int] = None):
        return build_rank_meshes(self._c2c, new_owner,
                                 nranks if nranks is not None
                                 else self.nranks, c2n=self._c2n)

    def _rebuild_rank(self, r: int, rank_mesh, old_rank: Rank) -> Rank:
        # the backend context (worker pools, perf counters) is carried
        # over; only the DSL objects are declared afresh
        return self._make_rank(r, rank_mesh, old_rank.ctx)

    def _migration_spec(self) -> dict:
        return {"cell": self.cell_dats, "node": self.node_dats,
                "part": self.part_dats, "c2n": self._c2n}

    def _post_rebalance(self) -> None:
        if self.dh_mover is not None:
            self.use_direct_hop(self.overlay)

    def _elastic_partition(self, weights) -> np.ndarray:
        """Weighted slab repartition that can only shift whole layers,
        so a layer determinism depends on (fempic's inlet layer, whose
        faces feed one injection stream) never splits."""
        extent, count = self._layers
        keys = np.clip(
            np.floor(self._centroids[:, self._axis] / (extent / count)),
            0, count - 1).astype(np.int64)
        return diffusive(self._centroids, self.nranks, weights=weights,
                         axis=self._axis, keys=keys)
