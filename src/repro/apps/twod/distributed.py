"""Distributed 2-D sheet model over the simulated MPI runtime.

Completes the distributed coverage for every mesh family: tetrahedra
(Mini-FEM-PIC), bricks (CabanaPIC), quads (advection) and now triangles.
The structure mirrors :class:`~repro.apps.fempic.distributed.
DistributedFemPic`: x-slab partitioning, node-halo reduction for the
deposit, migration during the move, and a rank-0-gathered Poisson solve
with separately-ledgered traffic.
"""
from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_READ, OPP_RW,
                            OPP_WRITE, Context, arg_dat, decl_const,
                            decl_dat, decl_map, decl_particle_set,
                            decl_set, par_loop, push_context)
from repro.fem import DirichletSystem, KSPSolver
from repro.mesh.tri import square_tri_mesh
from repro.runtime import (SimComm, build_rank_meshes, mpi_particle_move,
                           partition, push_node_halos, reduce_node_halos)
from repro.runtime.comm import CommStats

from . import kernels as k
from .config import TwoDConfig
from .simulation import build_tri_stiffness, lumped_node_areas

__all__ = ["DistributedTwoD"]


class DistributedTwoD:
    """N-rank 2-D sheet model."""

    def __init__(self, config: Optional[TwoDConfig] = None,
                 nranks: int = 2, comm=None):
        self.cfg = cfg = config or TwoDConfig()
        self.comm = comm if comm is not None else SimComm(nranks)
        nranks = self.comm.nranks
        self.solve_stats = CommStats(nranks)
        self.gmesh = square_tri_mesh(cfg.nx, cfg.ny, cfg.lx, cfg.ly)

        decl_const("dt2", cfg.dt)
        decl_const("qm2", cfg.qe / cfg.me)
        decl_const("tol2", cfg.move_tolerance)

        self._centroids3 = np.concatenate(
            [self.gmesh.centroids,
             np.zeros((self.gmesh.n_cells, 1))], axis=1)
        self.cell_owner = partition("principal_direction", nranks,
                                    centroids=self._centroids3, axis=0)
        self.meshes, self.plan = self._build_partition(self.cell_owner)

        # gathered Poisson operator: only the solving rank needs it
        self.K = None
        self.dirichlet = None
        self.ksp = None
        self.background = None
        if self.comm.is_local(0):
            self.K = build_tri_stiffness(self.gmesh)
            node_areas = lumped_node_areas(self.gmesh)
            bnodes = self.gmesh.tags["boundary_nodes"]
            self.dirichlet = DirichletSystem(self.K, bnodes,
                                             np.zeros(len(bnodes)))
            self.ksp = KSPSolver(self.dirichlet.k_ff, pc="jacobi",
                                 rtol=1e-10)
            self.background = -cfg.qe * cfg.density * node_areas

        self.ranks: List[Optional[dict]] = [
            self._make_rank(r, self.meshes[r])
            if self.comm.is_local(r) else None
            for r in range(nranks)]

        self._seed()
        self.history = {"field_energy": [], "n_particles": []}

    def _make_rank(self, r: int, rm, ctx: Optional[Context] = None) -> dict:
        """Per-rank DSL declarations; ``ctx`` is carried over on a live
        rebalance so worker pools and perf counters survive."""
        cfg = self.cfg
        if ctx is None:
            ctx = Context(cfg.backend, **cfg.backend_options)
        cells = decl_set(rm.n_local_cells, f"tri_cells_r{r}")
        cells.owned_size = rm.n_owned_cells
        nodes = decl_set(rm.n_local_nodes, f"tri_nodes_r{r}")
        nodes.owned_size = rm.n_owned_nodes
        parts = decl_particle_set(cells, 0, f"electrons2d_r{r}")
        c2n = decl_map(cells, nodes, 3, rm.local_c2n)
        c2c = decl_map(cells, cells, 3, rm.local_c2c)
        p2c = decl_map(parts, cells, 1, None)
        cg = rm.cells_global
        return dict(
            ctx=ctx, rm=rm, cells=cells, nodes=nodes, parts=parts,
            c2n=c2n, c2c=c2c, p2c=p2c,
            ef=decl_dat(cells, 2, np.float64, None, "e_field2d"),
            xform=decl_dat(cells, 6, np.float64,
                           self.gmesh.xforms[cg], "tri_xform"),
            gradm=decl_dat(cells, 6, np.float64,
                           self.gmesh.grads.reshape(-1, 6)[cg],
                           "tri_grads"),
            phi=decl_dat(nodes, 1, np.float64, None, "phi2d"),
            nw=decl_dat(nodes, 1, np.float64, None, "weights2d"),
            pos=decl_dat(parts, 2, np.float64, None, "pos2d"),
            vel=decl_dat(parts, 2, np.float64, None, "vel2d"),
            lc=decl_dat(parts, 3, np.float64, None, "lc2d"))

    def _local(self):
        """(rank, declarations) pairs resident in this process."""
        return [(r, rk) for r, rk in enumerate(self.ranks)
                if rk is not None]

    def _seed(self) -> None:
        cfg = self.cfg
        rng = np.random.default_rng(cfg.seed)
        n = cfg.n_particles
        cells_g = np.repeat(np.arange(self.gmesh.n_cells), cfg.ppc)
        lam = rng.dirichlet(np.ones(3), size=n)
        verts = self.gmesh.points[self.gmesh.cell2node[cells_g]]
        pts = np.einsum("ni,nid->nd", lam, verts)
        pts[:, 0] = np.clip(
            pts[:, 0] + cfg.displacement * cfg.lx
            * np.sin(np.pi * pts[:, 0] / cfg.lx),
            1e-9, cfg.lx - 1e-9)
        homes = self.gmesh.locate(pts, guesses=cells_g)
        lam_home = self.gmesh.barycentric(homes, pts)
        owner = self.cell_owner[homes]
        for r, rk in self._local():
            g2l = np.full(self.gmesh.n_cells, -1, dtype=np.int64)
            g2l[rk["rm"].cells_global] = np.arange(
                rk["rm"].cells_global.size)
            mine = np.flatnonzero(owner == r)
            sl = rk["parts"].add_particles(mine.size,
                                           cell_indices=g2l[homes[mine]])
            rk["pos"].data[sl] = pts[mine]
            rk["lc"].data[sl] = lam_home[mine]
            rk["parts"].end_injection()

    # -- step ----------------------------------------------------------------------

    def _solve(self) -> None:
        cfg = self.cfg
        comm = self.comm
        # gather owned node weights (PETSc stand-in; separate ledger)
        old = comm.swap_stats(self.solve_stats)
        try:
            w = np.zeros(self.gmesh.n_nodes)
            for r in range(self.nranks):
                rm = self.meshes[r]
                owned = rm.nodes_global[: rm.n_owned_nodes]
                if r == 0:
                    if comm.is_local(0):
                        w[owned] = self.ranks[0]["nw"].data[
                            : rm.n_owned_nodes, 0]
                    continue
                if comm.is_local(r):
                    comm.send(
                        r, 0,
                        self.ranks[r]["nw"].data[: rm.n_owned_nodes, 0],
                        tag=60)
                if comm.is_local(0):
                    w[owned] = comm.recv(0, r, tag=60)
            phi = np.zeros(self.gmesh.n_nodes)
            if comm.is_local(0):
                net = (w * cfg.weight * cfg.qe + self.background) \
                    / cfg.eps0
                free = self.dirichlet.free
                sol = self.ksp.solve(net[free])
                phi = self.dirichlet.full_vector(sol.x)
            for r in range(self.nranks):
                rm = self.meshes[r]
                owned = rm.nodes_global[: rm.n_owned_nodes]
                if r == 0:
                    if comm.is_local(0):
                        self.ranks[0]["phi"].data[: rm.n_owned_nodes] = \
                            phi[owned].reshape(-1, 1)
                    continue
                if comm.is_local(0):
                    comm.send(0, r, phi[owned].reshape(-1, 1), tag=61)
                if comm.is_local(r):
                    self.ranks[r]["phi"].data[: rm.n_owned_nodes] = \
                        comm.recv(r, 0, tag=61)
        finally:
            comm.swap_stats(old)
        push_node_halos([rk["phi"] if rk else None for rk in self.ranks],
                        self.plan, comm)

    def step(self) -> None:
        for _r, rk in self._local():
            with push_context(rk["ctx"]):
                par_loop(k.reset2d_kernel, "Reset2D", rk["nodes"],
                         OPP_ITERATE_ALL, arg_dat(rk["nw"], OPP_WRITE))
                par_loop(k.deposit2d_kernel, "Deposit2D", rk["parts"],
                         OPP_ITERATE_ALL,
                         arg_dat(rk["lc"], OPP_READ),
                         arg_dat(rk["nw"], 0, rk["c2n"], rk["p2c"],
                                 OPP_INC),
                         arg_dat(rk["nw"], 1, rk["c2n"], rk["p2c"],
                                 OPP_INC),
                         arg_dat(rk["nw"], 2, rk["c2n"], rk["p2c"],
                                 OPP_INC))
        reduce_node_halos([rk["nw"] if rk else None for rk in self.ranks],
                          self.plan, self.comm)
        self._solve()
        for _r, rk in self._local():
            with push_context(rk["ctx"]):
                par_loop(k.field2d_kernel, "Field2D", rk["cells"],
                         OPP_ITERATE_ALL,
                         arg_dat(rk["ef"], OPP_WRITE),
                         arg_dat(rk["gradm"], OPP_READ),
                         arg_dat(rk["phi"], 0, rk["c2n"], OPP_READ),
                         arg_dat(rk["phi"], 1, rk["c2n"], OPP_READ),
                         arg_dat(rk["phi"], 2, rk["c2n"], OPP_READ))
        from repro.runtime import push_cell_halos
        push_cell_halos([rk["ef"] if rk else None for rk in self.ranks],
                        self.plan, self.comm)
        for _r, rk in self._local():
            with push_context(rk["ctx"]):
                par_loop(k.push2d_kernel, "Push2D", rk["parts"],
                         OPP_ITERATE_ALL,
                         arg_dat(rk["ef"], rk["p2c"], OPP_READ),
                         arg_dat(rk["pos"], OPP_RW),
                         arg_dat(rk["vel"], OPP_RW))
        mpi_particle_move(
            self.comm, self.plan, self.meshes,
            [rk["ctx"] if rk else None for rk in self.ranks],
            k.move2d_kernel, "Move2D",
            [rk["parts"] if rk else None for rk in self.ranks],
            [rk["c2c"] if rk else None for rk in self.ranks],
            [rk["p2c"] if rk else None for rk in self.ranks],
            [[arg_dat(rk["pos"], OPP_READ),
              arg_dat(rk["lc"], OPP_WRITE),
              arg_dat(rk["xform"], rk["p2c"], OPP_READ)] if rk else None
             for rk in self.ranks],
            [[rk["pos"], rk["vel"], rk["lc"]] if rk else None
             for rk in self.ranks])

        vals = []   # per rank [field energy, particles]: one collective
        for rk in self.ranks:
            if rk is None:
                vals.append(np.zeros(2))
                continue
            owned = rk["rm"].n_owned_cells
            e2 = (rk["ef"].data[:owned] ** 2).sum(axis=1)
            areas = self.gmesh.areas[rk["rm"].cells_global[:owned]]
            vals.append(np.array(
                [0.5 * self.cfg.eps0 * float((e2 * areas).sum()),
                 rk["parts"].size]))
        field_energy, n_particles = self.comm.allreduce(vals, "sum")
        self.history["field_energy"].append(float(field_energy))
        self.history["n_particles"].append(int(n_particles))

    @property
    def nranks(self) -> int:
        return self.comm.nranks

    def run(self, n_steps: Optional[int] = None):
        for _ in range(n_steps if n_steps is not None
                       else self.cfg.n_steps):
            self.step()
        return self.history

    def busy_seconds_per_rank(self) -> List[float]:
        return [rk["ctx"].perf.total_seconds if rk else 0.0
                for rk in self.ranks]

    # -- elastic-runtime hooks (see repro.elastic.migrate) -------------------------

    def _build_partition(self, new_owner, nranks: Optional[int] = None):
        return build_rank_meshes(self.gmesh.c2c, new_owner,
                                 nranks if nranks is not None
                                 else self.nranks,
                                 c2n=self.gmesh.cell2node)

    def _rebuild_rank(self, r: int, rank_mesh, old_rank: dict) -> dict:
        return self._make_rank(r, rank_mesh, ctx=old_rank["ctx"])

    def _migration_spec(self) -> dict:
        # every mesh field is recomputed before use each step; only the
        # particles carry state across steps
        return {"cell": (), "node": (), "part": ("pos", "vel", "lc"),
                "c2n": self.gmesh.cell2node}

    def _elastic_partition(self, weights) -> np.ndarray:
        from repro.runtime import diffusive
        dx = self.cfg.lx / self.cfg.nx
        keys = np.clip(np.floor(self.gmesh.centroids[:, 0] / dx),
                       0, self.cfg.nx - 1).astype(np.int64)
        return diffusive(self._centroids3, self.nranks, weights=weights,
                         axis=0, keys=keys)
