"""Particle migration between ranks (paper §3.2.2, multi-hop case).

When a particle's walk enters a halo cell, the owning rank must take over.
The flow implemented here is the paper's:

1. each rank runs its move loop with the halo cells marked *foreign*;
   particles stopping there are flagged for communication;
2. flagged particles' dat rows are **packed** into one buffer per
   destination rank (fewer, larger MPI messages);
3. packing leaves **holes** in the particle dats, filled by shifting data
   from the end of each dat (``ParticleSet.remove_particles``) between
   the send half (:func:`send_packed`) and the receive half
   (:func:`recv_packed`) of the exchange, so the refill overlaps the
   wire as in the reference implementation;
4. receivers **unpack** to the end of their dats and *resume the move*
   for just the received particles (``OPP_ITERATE_INJECTED``-style);
5. repeat until no rank has particles in flight.

A round costs one collective and one frame per destination: every rank
contributes its row of the ``counts[src, dst]`` matrix to a single
``allreduce``, whose sum is the whole matrix — the receive counts and,
summed, the particles still in flight — and the destination cells ride
as the last column of the packed payload.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.context import Context, push_context
from ..core.dats import Dat
from ..core.loops import run_loop_hooks
from ..core.maps import Map
from ..core.move import MoveResult, declare_move, execute_moveloop
from ..core.sets import ParticleSet
from .comm import SimComm
from .halo import HaloPlan, RankMesh

__all__ = ["pack_particles", "send_packed", "recv_packed", "migrate",
           "mpi_particle_move"]

_TAG_PAYLOAD = 10


def pack_particles(dats: Sequence[Dat], rows: np.ndarray) -> np.ndarray:
    """Pack the given particle rows of all dats into one (n, Σdim) buffer."""
    if not len(dats):
        raise ValueError("nothing to pack: empty dat list")
    return np.concatenate([np.asarray(d.data[rows], dtype=np.float64)
                           for d in dats], axis=1)


def unpack_particles(dats: Sequence[Dat], rows: slice,
                     buffer: np.ndarray) -> None:
    col = 0
    for d in dats:
        d.data[rows] = buffer[:, col:col + d.dim].astype(d.dtype, copy=False)
        col += d.dim


def send_packed(comm: SimComm, tag: int,
                packed: Dict[Tuple[int, int],
                             Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Send half of a packed exchange: ``packed[(src, dst)] = (rows,
    cells)`` for every local ``src`` goes out as one allreduce of the
    counts matrix, then one frame per destination with ``cells`` as its
    last float64 column (exact below 2**53).  Returns the summed
    ``counts[src, dst]`` matrix :func:`recv_packed` sizes the receives
    from (``counts.sum()`` is the particles moved on all ranks); the
    caller fills its holes in between, while the frames fly.
    """
    nranks = comm.nranks
    rows_of = [np.zeros((nranks, nranks), dtype=np.int64)
               for _ in range(nranks)]
    for (src, dst), (buf, _cells) in packed.items():
        rows_of[src][src, dst] = buf.shape[0]
    counts = comm.allreduce(rows_of, "sum")
    for (src, dst), (buf, cells) in packed.items():
        comm.send(src, dst, np.column_stack([buf, cells]), tag=tag)
    return counts


def recv_packed(comm: SimComm, tag: int,
                counts: np.ndarray) -> Dict[int, list]:
    """Receive half of a packed exchange: ``arrivals[dst]`` lists the
    ``(rows, cells)`` pairs a local ``dst`` received, in source-rank
    order."""
    arrivals: Dict[int, list] = {}
    for dst in comm.local_ranks:
        for src in np.flatnonzero(counts[:, dst]):
            frame = comm.recv(dst, int(src), tag=tag)
            arrivals.setdefault(dst, []).append(
                (frame[:, :-1], frame[:, -1].astype(np.int64)))
    return arrivals


class Received(list):
    """What :func:`migrate` returns: per rank, the indices of the
    particles it just received (``None`` for none), and in
    :attr:`in_flight` how many particles moved on all ranks together."""

    in_flight = 0


def migrate(comm: SimComm, plan: HaloPlan, meshes: Sequence[RankMesh],
            psets: Sequence[ParticleSet], dats: Sequence[Sequence[Dat]],
            results: Sequence[Optional[MoveResult]]) -> Received:
    """One round of pack → send → hole-fill → receive → unpack.

    ``dats[r]`` lists rank r's particle dats in a consistent order across
    ranks.  Returns, per rank, the indices of newly received particles
    (``None`` when a rank received nothing).
    """
    packed = {}

    for r in comm.local_ranks:
        res = results[r]
        if res is None or res.n_foreign == 0:
            continue
        global_cells = meshes[r].cells_global[res.foreign_cells]
        dest_ranks = plan.cell_home[global_cells, 0]
        dest_cells = plan.cell_home[global_cells, 1]
        for d in np.unique(dest_ranks):
            sel = dest_ranks == d
            rows = res.foreign_particles[sel]
            packed[(r, int(d))] = (pack_particles(dats[r], rows),
                                   dest_cells[sel])

    counts = send_packed(comm, _TAG_PAYLOAD, packed)
    # hole filling while the frames fly: deferred removals + everything
    # packed out
    for r in comm.local_ranks:
        res = results[r]
        if res is None:
            continue
        doomed = np.concatenate([res.foreign_particles,
                                 res.removed_indices])
        if doomed.size:
            psets[r].remove_particles(doomed)

    arrivals = recv_packed(comm, _TAG_PAYLOAD, counts)
    received = Received([None] * comm.nranks)
    received.in_flight = int(counts.sum())
    for d, frames in arrivals.items():
        start = psets[d].size
        for buf, cells in frames:
            sl = psets[d].add_particles(buf.shape[0], cell_indices=cells)
            unpack_particles(dats[d], sl, buf)
        received[d] = np.arange(start, psets[d].size, dtype=np.int64)
    return received


def mpi_particle_move(comm: SimComm, plan: HaloPlan,
                      meshes: Sequence[RankMesh],
                      contexts: Sequence[Context],
                      kernel, name: str,
                      psets: Sequence[ParticleSet],
                      c2c_maps: Sequence[Map],
                      p2c_maps: Sequence[Map],
                      args_per_rank: Sequence[Sequence],
                      exchange_dats: Sequence[Sequence[Dat]],
                      max_hops: int = 1000,
                      max_rounds: int = 64) -> List[MoveResult]:
    """The full distributed ``opp_particle_move``.

    Runs every rank's move loop (halo cells as stop markers), migrates
    particles that crossed rank boundaries, and resumes their walk at the
    destination until no particle is in flight anywhere.

    Each rank's round is declared and executed the way ``particle_move``
    does it — loop hooks, then ``execute_moveloop`` for the perf row —
    so the only things this function adds to the single-rank move are
    the foreign-cell mask, the deferred removal and the migration between
    rounds.
    """
    nranks = comm.nranks
    totals = [MoveResult() for _ in range(nranks)]
    pending: List[Optional[np.ndarray]] = [None] * nranks
    first = True

    for _ in range(max_rounds):
        results: List[Optional[MoveResult]] = [None] * nranks
        for r in comm.local_ranks:
            if not first and pending[r] is None:
                continue
            loop = declare_move(contexts[r], kernel, name, psets[r],
                                c2c_maps[r], p2c_maps[r], args_per_rank[r],
                                max_hops, only_indices=pending[r])
            loop.foreign_cell_mask = meshes[r].foreign_cell_mask
            loop.defer_removal = True
            run_loop_hooks(loop)
            with push_context(contexts[r]):
                res = execute_moveloop(loop, contexts[r])
            results[r] = res
            totals[r].total_hops += res.total_hops
            totals[r].n_removed += res.n_removed
        first = False

        pending = migrate(comm, plan, meshes, psets, exchange_dats, results)
        if pending.in_flight == 0:
            return totals
    raise RuntimeError(f"distributed move {name!r} did not drain after "
                       f"{max_rounds} migration rounds")
