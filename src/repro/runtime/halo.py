"""Halo construction and exchange (owner-compute model).

Following OP2/OP-PIC: the mesh is partitioned by cells; each rank holds
its owned cells plus one layer of halo (ghost) cells, and the nodes its
local cells reference (a node is owned by the lowest rank among its
adjacent cells' owners).  Two exchange patterns cover all loops:

* **push** (owner → ghost): after a field solve, updated values on owned
  elements refresh the neighbours' ghosts (for indirect READs);
* **reduce** (ghost → owner): after a particle-deposit loop, increments
  accumulated into ghost rows are sent to and added at the owner, then
  ghosts are zeroed — exactly the node-halo flow of Figure 2(a).

All plans are built once (static mesh), as in the paper.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .comm import SimComm

__all__ = ["RankMesh", "HaloPlan", "build_rank_meshes",
           "push_cell_halos", "push_node_halos", "push_halos_grouped",
           "reduce_cell_halos", "reduce_node_halos"]


@dataclass
class RankMesh:
    """One rank's local view of the partitioned mesh."""

    rank: int
    #: global ids of local cells, owned first then halo
    cells_global: np.ndarray
    n_owned_cells: int
    #: owner rank of every local cell
    cell_owner_local: np.ndarray
    #: local cell-to-cell map (−1 where the neighbour is not local)
    local_c2c: np.ndarray
    #: True for halo cells — the particle mover's stop mask
    foreign_cell_mask: np.ndarray
    #: global ids of local nodes, owned first then ghost
    nodes_global: np.ndarray = field(default=None)
    n_owned_nodes: int = 0
    #: local cell-to-node map over local node ids
    local_c2n: np.ndarray = field(default=None)

    @property
    def n_local_cells(self) -> int:
        return len(self.cells_global)

    @property
    def n_halo_cells(self) -> int:
        return self.n_local_cells - self.n_owned_cells

    @property
    def n_local_nodes(self) -> int:
        return 0 if self.nodes_global is None else len(self.nodes_global)


@dataclass
class HaloPlan:
    """Per-rank-pair gather/scatter index lists for halo traffic.

    ``cell_push[(s, r)] = (src_local_in_s, dst_local_in_r)`` etc.  The
    node lists serve both directions: push uses them as written, reduce
    runs them backwards.
    """

    nranks: int
    cell_push: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] \
        = field(default_factory=dict)
    node_push: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] \
        = field(default_factory=dict)
    #: global cell id → (owner rank, owner-local index); for migration
    cell_home: np.ndarray = field(default=None)


def build_rank_meshes(c2c: np.ndarray, cell_owner: np.ndarray,
                      nranks: int, c2n: np.ndarray = None,
                      halo_mode: str = "face",
                      ) -> Tuple[List[RankMesh], HaloPlan]:
    """Partition a global mesh into per-rank local meshes plus a halo plan.

    This performs what OP-PIC's ``opp_partition`` does from a single
    set's rank assignment: derive every other set's distribution, local
    numberings, and halo exchange lists.

    ``halo_mode``: ``"face"`` imports the one-deep face-neighbour layer
    (sufficient for particle moves and ghost reads through the adjacency
    map); ``"vertex"`` imports every foreign cell sharing a *node* with
    an owned cell (requires ``c2n``) — the exec halo needed for OP2-style
    redundant computation, where a loop over owned+halo cells completes
    all contributions to owned nodes locally, with no reduction.
    """
    if halo_mode not in ("face", "vertex"):
        raise ValueError(f"halo_mode must be 'face' or 'vertex', "
                         f"got {halo_mode!r}")
    if halo_mode == "vertex" and c2n is None:
        raise ValueError("vertex halos need the cell-to-node map")
    n_cells = c2c.shape[0]
    cell_owner = np.asarray(cell_owner, dtype=np.int64)
    if cell_owner.shape != (n_cells,):
        raise ValueError("cell_owner must assign every cell")
    if cell_owner.min() < 0 or cell_owner.max() >= nranks:
        raise ValueError("cell_owner contains out-of-range ranks")

    node_owner = None
    if c2n is not None:
        n_nodes = int(c2n.max()) + 1
        node_owner = np.full(n_nodes, nranks, dtype=np.int64)
        np.minimum.at(node_owner,
                      c2n.ravel(),
                      np.repeat(cell_owner, c2n.shape[1]))

    # owner-local index of every cell (position within its owner's owned list)
    owner_local = np.empty(n_cells, dtype=np.int64)
    owned_lists = []
    for r in range(nranks):
        owned = np.flatnonzero(cell_owner == r)
        owner_local[owned] = np.arange(owned.size)
        owned_lists.append(owned)
    cell_home = np.stack([cell_owner, owner_local], axis=1)

    meshes: List[RankMesh] = []
    cell_g2l_all = []
    node_g2l_all = []
    # for vertex halos: node -> adjacent cells (built once)
    node_cells = None
    if halo_mode == "vertex":
        n_nodes_v = int(c2n.max()) + 1
        order = np.argsort(c2n.ravel(), kind="stable")
        flat_cells = np.repeat(np.arange(n_cells), c2n.shape[1])[order]
        sorted_nodes = c2n.ravel()[order]
        starts = np.searchsorted(sorted_nodes, np.arange(n_nodes_v))
        ends = np.searchsorted(sorted_nodes, np.arange(n_nodes_v),
                               side="right")
        node_cells = (flat_cells, starts, ends)

    for r in range(nranks):
        owned = owned_lists[r]
        if halo_mode == "vertex":
            flat_cells, starts, ends = node_cells
            my_nodes = np.unique(c2n[owned].ravel())
            touching = np.concatenate(
                [flat_cells[starts[v]:ends[v]] for v in my_nodes]) \
                if my_nodes.size else np.empty(0, dtype=np.int64)
            halo = np.unique(touching[cell_owner[touching] != r])
        else:
            nbrs = c2c[owned].ravel()
            nbrs = nbrs[nbrs >= 0]
            halo = np.unique(nbrs[cell_owner[nbrs] != r])
        cells_global = np.concatenate([owned, halo])
        g2l = np.full(n_cells, -1, dtype=np.int64)
        g2l[cells_global] = np.arange(cells_global.size)
        local_c2c = np.where(c2c[cells_global] >= 0,
                             g2l[c2c[cells_global]], -1)
        foreign = np.zeros(cells_global.size, dtype=bool)
        foreign[owned.size:] = True

        rm = RankMesh(rank=r, cells_global=cells_global,
                      n_owned_cells=owned.size,
                      cell_owner_local=cell_owner[cells_global],
                      local_c2c=local_c2c,
                      foreign_cell_mask=foreign)

        if c2n is not None:
            ref_nodes = np.unique(c2n[cells_global].ravel())
            owned_nodes = ref_nodes[node_owner[ref_nodes] == r]
            ghost_nodes = ref_nodes[node_owner[ref_nodes] != r]
            nodes_global = np.concatenate([owned_nodes, ghost_nodes])
            ng2l = np.full(n_nodes, -1, dtype=np.int64)
            ng2l[nodes_global] = np.arange(nodes_global.size)
            rm.nodes_global = nodes_global
            rm.n_owned_nodes = owned_nodes.size
            rm.local_c2n = ng2l[c2n[cells_global]]
            node_g2l_all.append(ng2l)
        cell_g2l_all.append(g2l)
        meshes.append(rm)

    plan = HaloPlan(nranks=nranks, cell_home=cell_home)

    # cell push lists: ghost cells of r owned by s
    for r, rm in enumerate(meshes):
        halo_global = rm.cells_global[rm.n_owned_cells:]
        halo_owner = cell_owner[halo_global]
        for s in np.unique(halo_owner):
            sel = halo_global[halo_owner == s]
            src = cell_g2l_all[s][sel]
            dst = cell_g2l_all[r][sel]
            plan.cell_push[(int(s), r)] = (src, dst)

    # node push lists: ghost nodes of r owned by s
    if c2n is not None:
        for r, rm in enumerate(meshes):
            ghost_global = rm.nodes_global[rm.n_owned_nodes:]
            ghost_owner = node_owner[ghost_global]
            for s in np.unique(ghost_owner):
                sel = ghost_global[ghost_owner == s]
                src = node_g2l_all[s][sel]
                dst = node_g2l_all[r][sel]
                if (src < 0).any():
                    raise RuntimeError(
                        "halo plan inconsistency: node owner does not hold "
                        "a node it owns — partition is disconnected at "
                        f"rank pair ({s},{r})")
                plan.node_push[(int(s), r)] = (src, dst)

    return meshes, plan


# -- exchange operations -------------------------------------------------------


def push_cell_halos(dats: Sequence, plan: HaloPlan, comm: SimComm) -> None:
    """Owner → ghost refresh of one cell dat per rank (``dats[r]``)."""
    _push(dats, plan.cell_push, comm, tag=1)


def push_node_halos(dats: Sequence, plan: HaloPlan, comm: SimComm) -> None:
    """Owner → ghost refresh of one node dat per rank."""
    _push(dats, plan.node_push, comm, tag=2)


def push_halos_grouped(op: str, dat_lists: Sequence[Sequence],
                       plan: HaloPlan, comm: SimComm) -> None:
    """Coalesced owner → ghost refresh of several fields over one plan.

    A push that names several fields under ``program="fuse"`` runs here
    (:meth:`repro.runtime.ranked.RankedApp.push_cells`): per neighbour
    pair the per-field frames concatenate
    column-wise into a single fatter message (fewer frames, same payload
    bytes for float64 fields).  Values travel as float64, matching the
    particle migration packer; integer fields are exact below 2**53.
    """
    lists = plan.cell_push if op == "cell_push" else plan.node_push
    tag = 1 if op == "cell_push" else 2
    for (s, r), (src, _dst) in lists.items():
        if comm.is_local(s):
            frame = np.concatenate(
                [np.asarray(dats[s].data[src], dtype=np.float64)
                 for dats in dat_lists], axis=1)
            comm.send(s, r, frame, tag=tag)
    for (s, r), (_src, dst) in lists.items():
        if comm.is_local(r):
            buf = comm.recv(r, s, tag=tag)
            col = 0
            for dats in dat_lists:
                d = dats[r]
                width = d.dim
                d.data[dst] = buf[:, col:col + width].astype(d.dtype,
                                                             copy=False)
                col += width


def reduce_cell_halos(dats: Sequence, plan: HaloPlan, comm: SimComm) -> None:
    """Ghost → owner accumulation for cell dats (then ghosts zeroed).

    Needed by electromagnetic codes where the fused move+deposit loop
    increments current into halo cells a particle crossed before pausing
    for migration.
    """
    for (s, r), (src, dst) in plan.cell_push.items():
        if comm.is_local(r):
            buf = dats[r].data[dst].copy()
            comm.send(r, s, buf, tag=4)
            dats[r].data[dst] = 0.0
    for (s, r), (src, dst) in plan.cell_push.items():
        if comm.is_local(s):
            buf = comm.recv(s, r, tag=4)
            dats[s].data[src] += buf


def reduce_node_halos(dats: Sequence, plan: HaloPlan, comm: SimComm) -> None:
    """Ghost → owner accumulation (then ghosts zeroed).

    The completion step of a particle-deposit loop: contributions written
    into rank r's node ghosts travel to the owner and are added there.
    """
    for (s, r), (src, dst) in plan.node_push.items():
        # ghosts live on r; owner is s — run the list backwards
        if comm.is_local(r):
            buf = dats[r].data[dst].copy()
            comm.send(r, s, buf, tag=3)
            dats[r].data[dst] = 0.0
    for (s, r), (src, dst) in plan.node_push.items():
        if comm.is_local(s):
            buf = comm.recv(s, r, tag=3)
            dats[s].data[src] += buf


def _push(dats: Sequence, lists: Dict, comm: SimComm, tag: int) -> None:
    # ``dats`` is rank-indexed; under an SPMD transport only the resident
    # rank's entry is populated, so every access is locality-guarded.
    # Iteration follows the plan's (deterministic) insertion order on all
    # ranks, which keeps receive-side application order — and therefore
    # floating-point results — identical to the simulated execution.
    for (s, r), (src, dst) in lists.items():
        if comm.is_local(s):
            comm.send(s, r, dats[s].data[src].copy(), tag=tag)
    for (s, r), (src, dst) in lists.items():
        if comm.is_local(r):
            dats[r].data[dst] = comm.recv(r, s, tag=tag)
