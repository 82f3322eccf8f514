"""Live migration: move a running distributed app to a new partition.

Given a new ``cell_owner`` (from any :mod:`repro.runtime.partition`
method — typically the incremental ``diffusive`` one), the engine

1. rebuilds the rank meshes and halo plan for the new ownership (every
   rank derives them deterministically, as at construction);
2. asks the app to re-declare its per-rank DSL objects against the new
   local meshes (``_rebuild_rank`` runs the app's one ``_declare`` —
   static dats are re-derived from the global mesh, the backend context
   is *reused* so worker pools and accumulated perf counters survive);
3. exchanges the owned rows of every *dynamic* mesh dat between old and
   new owners over the transport's p2p ops (send-all-then-recv-all per
   dat, exactly the halo-push discipline) and migrates the particles
   (packed rows keyed by global cell id, appended retained-first then
   in source-rank order);
4. swaps the new meshes/plan/ranks into the app and lets it rebuild
   any derived machinery (``_post_rebalance`` — e.g. the DH mover's
   RMA windows).

The protocol is pure data movement — no arithmetic touches dat values —
so the *assembled global state* (owned rows scattered to global ids,
particles keyed by id) after a migration is bit-equal to the state
before it, which is exactly what the dist-conformance harness's
``rebalance`` op verifies against the never-migrated oracle.

The app contract is :class:`repro.runtime.ranked.RankedApp` (every
app, and the dist-conformance harness's mini-world, is written on it).
An app names what moves:

* class attributes ``cell_dats`` / ``node_dats`` (mesh dats whose values
  carry into the next step) and ``part_dats`` (what travels with a
  particle) — ``_migration_spec()`` is derived from them, with ``c2n``
  (the global cell-to-node map, for deriving node ownership);
* ``_declare(rk)``, the per-rank declaration: ``_rebuild_rank(r,
  rank_mesh, old_rank)`` calls it on a fresh record (empty particle
  set, static dats initialised) with ``old_rank.ctx`` reused;
* inherited as they stand: attributes ``comm``, ``meshes``, ``plan``,
  ``ranks``, ``cell_owner``; ``_build_partition(new_owner) -> (meshes,
  plan)``; ``_elastic_partition(weights)`` (slab repartition in whole
  layers of the extent the app passed to ``_partition``);
  ``_post_rebalance()`` (rebuilds the DH mover).

A rank record exposes its handles as attributes (``rk.parts``,
``rk.p2c``, ``rk.ctx`` and every name in the spec).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..runtime.exchange import pack_particles, unpack_particles
from ..runtime.halo import push_cell_halos, push_node_halos

__all__ = ["rebalance", "rebuild_partition", "MigrationReport",
           "node_owners"]

#: message tags (distinct from halo 1-4, particle-move 10/11 and the
#: apps' gather/scatter 40/41/60/61 so a migration can interleave with
#: none of them pending)
_TAG_CELL_DAT = 70
_TAG_NODE_DAT = 71
_TAG_PART_PAYLOAD = 72
_TAG_PART_CELLS = 73


def node_owners(c2n: np.ndarray, cell_owner: np.ndarray,
                nranks: int) -> np.ndarray:
    """A node is owned by the lowest rank among its adjacent cells'
    owners — the same rule :func:`repro.runtime.halo.build_rank_meshes`
    applies, repeated here so old/new node ownership can be derived
    from old/new cell ownership alone."""
    n_nodes = int(c2n.max()) + 1
    owner = np.full(n_nodes, nranks, dtype=np.int64)
    np.minimum.at(owner, c2n.ravel(),
                  np.repeat(np.asarray(cell_owner, dtype=np.int64),
                            c2n.shape[1]))
    return owner


@dataclass
class MigrationReport:
    """What one live migration did (identical on every rank)."""

    n_cells_moved: int = 0
    n_nodes_moved: int = 0
    n_particles_moved: int = 0
    #: this process's wall seconds
    seconds: float = 0.0
    #: slowest rank's wall seconds (allreduce-maxed; feed this to the
    #: policy so every rank's cost estimate stays bit-identical)
    seconds_max: float = 0.0


def _exchange_owned_rows(comm, names, old_ranks, new_ranks,
                         old_ids, new_ids, old_owner, new_owner,
                         n_global: int, tag: int) -> int:
    """Move each dat's owned rows from old owners to new owners.

    ``old_ids[r]`` / ``new_ids[r]`` give rank r's local element order
    (owned-first global ids).  Rows whose owner is unchanged are copied
    locally; the rest travel as one message per (src, dst, dat).
    Returns the number of moved elements.
    """
    nranks = comm.nranks
    gids = np.arange(n_global, dtype=np.int64)
    # local index of every element within its owner (old and new);
    # the id lists are owned-only and owners partition the elements,
    # so every slot is written exactly once
    old_local = np.empty(n_global, dtype=np.int64)
    new_local = np.empty(n_global, dtype=np.int64)
    for r in range(nranks):
        old_local[old_ids[r]] = np.arange(len(old_ids[r]))
        new_local[new_ids[r]] = np.arange(len(new_ids[r]))

    pairs: Dict[Tuple[int, int], np.ndarray] = {}
    moved = 0
    for s in range(nranks):
        sel = old_owner == s
        for r in range(nranks):
            rows = gids[sel & (new_owner == r)]
            if rows.size == 0:
                continue
            pairs[(s, r)] = rows
            if s != r:
                moved += rows.size

    for name in names:
        for (s, r), rows in pairs.items():
            if s == r:
                if comm.is_local(s):
                    src = getattr(old_ranks[s], name)
                    dst = getattr(new_ranks[s], name)
                    dst.data[new_local[rows]] = src.data[old_local[rows]]
                continue
            if comm.is_local(s):
                src = getattr(old_ranks[s], name)
                comm.send(s, r, src.data[old_local[rows]].copy(), tag=tag)
        for (s, r), rows in pairs.items():
            if s == r or not comm.is_local(r):
                continue
            dst = getattr(new_ranks[r], name)
            dst.data[new_local[rows]] = comm.recv(r, s, tag=tag)
    return moved


def _migrate_particles(comm, names, old_ranks, new_ranks, old_meshes,
                       new_meshes, new_owner) -> int:
    """Repack every particle onto its cell's new owner.

    The receive order is deterministic on every transport: each rank
    first re-appends its retained particles (original order), then
    appends arrivals in source-rank order, each batch preserving the
    sender's order — so both transports produce identical particle
    layouts and the run stays reproducible.
    """
    nranks = comm.nranks
    counts = np.zeros((nranks, nranks), dtype=np.int64)
    outgoing = {}
    staying = {}

    for s in comm.local_ranks:
        old = old_ranks[s]
        parts = old.parts
        p2c = old.p2c
        n = parts.size
        gcell = old_meshes[s].cells_global[p2c.p2c[:n]]
        dest = new_owner[gcell]
        staying[s] = (np.flatnonzero(dest == s), gcell)
        dats = [getattr(old, nm) for nm in names]
        for d in np.unique(dest):
            d = int(d)
            if d == s:
                continue
            rows = np.flatnonzero(dest == d)
            counts[s, d] = rows.size
            outgoing[(s, d)] = (pack_particles(dats, rows),
                                gcell[rows].copy())

    recv_counts = comm.alltoall_counts(counts)
    for (s, d), (buf, cells) in outgoing.items():
        comm.send(s, d, buf, tag=_TAG_PART_PAYLOAD)
        comm.send(s, d, cells, tag=_TAG_PART_CELLS)

    n_moved = int(counts.sum())
    for r in comm.local_ranks:
        new = new_ranks[r]
        new_parts = new.parts
        g2l = np.full(len(new_owner), -1, dtype=np.int64)
        cg = new_meshes[r].cells_global
        g2l[cg] = np.arange(cg.size)
        stay_rows, gcell = staying[r]
        old = old_ranks[r]
        sl = new_parts.add_particles(stay_rows.size,
                                     cell_indices=g2l[gcell[stay_rows]])
        for nm in names:
            getattr(new, nm).data[sl] = getattr(old, nm).data[stay_rows]
        new_dats = [getattr(new, nm) for nm in names]
        for s in range(nranks):
            cnt = int(recv_counts[r, s])
            if cnt == 0:
                continue
            buf = comm.recv(r, s, tag=_TAG_PART_PAYLOAD)
            cells = comm.recv(r, s, tag=_TAG_PART_CELLS)
            sl = new_parts.add_particles(cnt, cell_indices=g2l[cells])
            unpack_particles(new_dats, sl, buf)
        new_parts.end_injection()
    return n_moved


def _clear_plan_caches(comm, ranks) -> None:
    # rebuilt sets/maps can reuse CPython ids of the dead ones — drop
    # any backend plan caches keyed on object identity, and the call
    # sites declared on the old rank's objects (their keys would keep
    # those objects alive)
    for r in comm.local_ranks:
        ctx = ranks[r].ctx
        ctx.sites.clear()
        cache = getattr(getattr(ctx, "backend", None), "plan", None)
        if cache is not None and hasattr(cache, "_rows"):
            cache.__init__()


def rebuild_partition(app, new_owner: np.ndarray) -> None:
    """Swap the app onto a new partition *without* moving any data —
    for callers (snapshot restore) that are about to overwrite every
    dat anyway."""
    comm = app.comm
    new_owner = np.asarray(new_owner, dtype=np.int64)
    new_meshes, new_plan = app._build_partition(new_owner)
    new_ranks = [app._rebuild_rank(r, new_meshes[r], app.ranks[r])
                 if comm.is_local(r) else None
                 for r in range(comm.nranks)]
    app.meshes, app.plan = new_meshes, new_plan
    app.ranks, app.cell_owner = new_ranks, new_owner
    _clear_plan_caches(comm, new_ranks)
    app._post_rebalance()


def rebalance(app, new_owner: np.ndarray) -> MigrationReport:
    """Migrate ``app`` live to ``new_owner``; returns what moved."""
    comm = app.comm
    nranks = comm.nranks
    new_owner = np.asarray(new_owner, dtype=np.int64)
    old_owner = np.asarray(app.cell_owner, dtype=np.int64)
    if new_owner.shape != old_owner.shape:
        raise ValueError("new cell_owner must cover every global cell")
    if np.array_equal(new_owner, old_owner):
        return MigrationReport()

    t0 = time.perf_counter()
    spec = app._migration_spec()
    old_meshes, old_ranks = app.meshes, app.ranks
    new_meshes, new_plan = app._build_partition(new_owner)
    new_ranks = [app._rebuild_rank(r, new_meshes[r], old_ranks[r])
                 if comm.is_local(r) else None for r in range(nranks)]

    report = MigrationReport()
    n_cells = old_owner.size
    report.n_cells_moved = _exchange_owned_rows(
        comm, spec.get("cell", ()), old_ranks, new_ranks,
        [m.cells_global[: m.n_owned_cells] for m in old_meshes],
        [m.cells_global[: m.n_owned_cells] for m in new_meshes],
        old_owner, new_owner, n_cells, _TAG_CELL_DAT)

    node_names = spec.get("node", ())
    if node_names:
        c2n = spec["c2n"]
        old_nowner = node_owners(c2n, old_owner, nranks)
        new_nowner = node_owners(c2n, new_owner, nranks)
        report.n_nodes_moved = _exchange_owned_rows(
            comm, node_names, old_ranks, new_ranks,
            [m.nodes_global[: m.n_owned_nodes] for m in old_meshes],
            [m.nodes_global[: m.n_owned_nodes] for m in new_meshes],
            old_nowner, new_nowner, old_nowner.size, _TAG_NODE_DAT)

    report.n_particles_moved = _migrate_particles(
        comm, spec.get("part", ()), old_ranks, new_ranks,
        old_meshes, new_meshes, new_owner)

    # refresh ghosts of the migrated dats so halo reads after the swap
    # see exactly the owner values they would on a never-migrated run
    per_rank = (lambda nm: [getattr(rk, nm) if rk is not None else None
                            for rk in new_ranks])
    app.meshes, app.plan = new_meshes, new_plan
    app.ranks, app.cell_owner = new_ranks, new_owner
    for nm in spec.get("cell", ()):
        push_cell_halos(per_rank(nm), new_plan, comm)
    for nm in node_names:
        push_node_halos(per_rank(nm), new_plan, comm)

    _clear_plan_caches(comm, new_ranks)
    app._post_rebalance()

    report.seconds = time.perf_counter() - t0
    report.seconds_max = float(comm.allreduce(
        [report.seconds] * nranks, "max"))
    return report
