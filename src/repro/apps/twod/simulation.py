"""2-D sheet model: cold-plasma oscillation on a triangular mesh,
written once for 1..N ranks.

:class:`TwoDSheetModel` is the one-rank case; at N ranks
(:class:`~repro.apps.twod.distributed.DistributedTwoD`) the box is cut
into x slabs, the deposit is completed by a node-halo reduction,
particles migrate during the move and rank 0 solves the gathered Poisson
system (its traffic ledgered apart in ``solve_stats``).
"""
from __future__ import annotations

from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from repro.core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_READ, OPP_RW,
                            OPP_WRITE, arg_dat, decl_const, decl_dat,
                            decl_map, decl_particle_set, decl_set, par_loop)
from repro.fem import DirichletSystem, KSPSolver
from repro.mesh.tri import TriMesh, square_tri_mesh
from repro.runtime.comm import SimComm
from repro.runtime.objcache import get_or_build
from repro.runtime.ranked import Rank, RankedApp

from . import kernels as k
from .config import TwoDConfig

__all__ = ["TwoDSheetModel", "build_tri_stiffness",
           "lumped_node_areas"]


def build_tri_stiffness(mesh: TriMesh) -> sp.csr_matrix:
    """P1 stiffness on triangles: ``K_ij = Σ_c A_c ∇λ_i·∇λ_j``."""
    grads = mesh.grads
    local = np.einsum("cid,cjd->cij", grads, grads) \
        * mesh.areas[:, None, None]
    cells = mesh.cell2node
    rows = np.repeat(cells, 3, axis=1).reshape(-1, 3, 3)
    cols = np.tile(cells[:, None, :], (1, 3, 1))
    kmat = sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(mesh.n_nodes, mesh.n_nodes))
    return kmat.tocsr()


def lumped_node_areas(mesh: TriMesh) -> np.ndarray:
    """Lumped mass per node: a third of each adjacent triangle's area
    (sorted scatter, bit-equal to the ``np.add.at`` form)."""
    from repro.fem.assembly import sorted_scatter_add
    return sorted_scatter_add(mesh.cell2node.ravel(),
                              np.repeat(mesh.areas / 3.0, 3),
                              mesh.n_nodes)


class TwoDSheetModel(RankedApp):
    """Electrons over a neutralizing background in a grounded box."""

    #: every mesh field is recomputed before use each step; only the
    #: particles carry state across steps
    part_dats = ("pos", "vel", "lc")

    def __init__(self, config: Optional[TwoDConfig] = None):
        self._build(config or TwoDConfig(), SimComm(1))

    def _build(self, cfg: TwoDConfig, comm) -> None:
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        mesh_key = ("twod_tri", cfg.nx, cfg.ny, cfg.lx, cfg.ly)
        mesh = self.mesh = self.gmesh = get_or_build(
            mesh_key,
            lambda: square_tri_mesh(cfg.nx, cfg.ny, cfg.lx, cfg.ly))

        decl_const("dt2", cfg.dt)
        decl_const("qm2", cfg.qe / cfg.me)
        decl_const("tol2", cfg.move_tolerance)

        self._partition(
            comm, "principal_direction", mesh_key,
            centroids=np.concatenate(
                [mesh.centroids, np.zeros((mesh.n_cells, 1))], axis=1),
            c2c=mesh.c2c, c2n=mesh.cell2node, axis=0,
            layers=(cfg.lx, cfg.nx))

        # the gathered Poisson operator: only the solving rank needs it
        self.K = self.dirichlet = self.ksp = self.background = None
        self.solver = self.solver_nodes(mesh.n_nodes, phi=None, nw=None)
        if self.solver is not None:
            self.K = get_or_build(("twod_stiffness",) + mesh_key,
                                  lambda: build_tri_stiffness(mesh))
            self.node_areas = get_or_build(
                ("twod_areas",) + mesh_key, lambda: lumped_node_areas(mesh))
            # the grounded-box reduction is a pure function of the mesh,
            # so a warm worker builds it once; the solver owns its CG
            # work arrays and stays this job's
            bnodes = mesh.tags["boundary_nodes"]
            self.dirichlet = get_or_build(
                ("twod_dirichlet",) + mesh_key,
                lambda: DirichletSystem(self.K, bnodes,
                                        np.zeros(len(bnodes))))
            self.ksp = KSPSolver(self.dirichlet.k_ff, pc="jacobi",
                                 rtol=1e-10)
            #: background (ion) charge per node, exactly neutralizing
            #: the undisplaced electron population
            self.background = -cfg.qe * cfg.density * self.node_areas

        self._seed_displaced_slab()
        self.history = {"com_x": [], "field_energy": [],
                        "n_particles": []}

    def _declare(self, rk: Rank) -> None:
        mesh, rm = self.mesh, rk.rm
        cg = rm.cells_global
        rk.cells = decl_set(rm.n_local_cells, "tri_cells")
        rk.cells.owned_size = rm.n_owned_cells
        rk.nodes = decl_set(rm.n_local_nodes, "tri_nodes")
        rk.nodes.owned_size = rm.n_owned_nodes
        rk.parts = decl_particle_set(rk.cells, 0, "electrons2d")
        rk.c2n = decl_map(rk.cells, rk.nodes, 3, rm.local_c2n, "tri_c2n")
        rk.c2c = decl_map(rk.cells, rk.cells, 3, rm.local_c2c, "tri_c2c")
        rk.p2c = decl_map(rk.parts, rk.cells, 1, None, "tri_p2c")

        rk.ef = decl_dat(rk.cells, 2, np.float64, None, "e_field2d")
        rk.xform = decl_dat(rk.cells, 6, np.float64, mesh.xforms[cg],
                            "tri_xform")
        rk.gradm = decl_dat(rk.cells, 6, np.float64,
                            mesh.grads.reshape(-1, 6)[cg], "tri_grads")
        rk.phi = decl_dat(rk.nodes, 1, np.float64, None, "phi2d")
        rk.nw = decl_dat(rk.nodes, 1, np.float64, None, "weights2d")
        rk.pos = decl_dat(rk.parts, 2, np.float64, None, "pos2d")
        rk.vel = decl_dat(rk.parts, 2, np.float64, None, "vel2d")
        rk.lc = decl_dat(rk.parts, 3, np.float64, None, "lc2d")
        rk.streams["rng"] = self.rng

    def _seed_displaced_slab(self) -> None:
        cfg, mesh = self.cfg, self.mesh
        n = cfg.n_particles
        cells = np.repeat(np.arange(mesh.n_cells), cfg.ppc)
        lam = self.rng.dirichlet(np.ones(3), size=n)
        verts = mesh.points[mesh.cell2node[cells]]
        pts = np.einsum("ni,nid->nd", lam, verts)
        # seed the fundamental Langmuir mode: ξ(x) = δ·lx·sin(πx/lx).
        # (A rigid displacement would be screened by the grounded walls;
        # the sine mode satisfies φ = 0 at both electrodes and rings at
        # the plasma frequency.)
        pts[:, 0] = np.clip(
            pts[:, 0] + cfg.displacement * cfg.lx
            * np.sin(np.pi * pts[:, 0] / cfg.lx),
            1e-9, cfg.lx - 1e-9)
        homes = mesh.locate(pts, guesses=cells)
        if (homes < 0).any():
            raise RuntimeError("a seeded electron left the box")
        lam_home = mesh.barycentric(homes, pts)
        owner = self.cell_owner[homes]
        for rk in self.each_rank():
            g2l = np.full(mesh.n_cells, -1, dtype=np.int64)
            g2l[rk.rm.cells_global] = np.arange(rk.rm.cells_global.size)
            mine = np.flatnonzero(owner == rk.r)
            sl = rk.parts.add_particles(mine.size,
                                        cell_indices=g2l[homes[mine]])
            rk.pos.data[sl] = pts[mine]
            rk.lc.data[sl] = lam_home[mine]
            rk.parts.end_injection()

    # -- step phases -------------------------------------------------------------

    def deposit_and_solve(self) -> None:
        for rk in self.each_rank():
            par_loop(k.reset2d_kernel, "Reset2D", rk.nodes,
                     OPP_ITERATE_ALL, arg_dat(rk.nw, OPP_WRITE))
            par_loop(k.deposit2d_kernel, "Deposit2D", rk.parts,
                     OPP_ITERATE_ALL,
                     arg_dat(rk.lc, OPP_READ),
                     arg_dat(rk.nw, 0, rk.c2n, rk.p2c, OPP_INC),
                     arg_dat(rk.nw, 1, rk.c2n, rk.p2c, OPP_INC),
                     arg_dat(rk.nw, 2, rk.c2n, rk.p2c, OPP_INC))
        self.reduce_nodes("nw")
        cfg, s = self.cfg, self.solver
        self.gather_nodes("nw", s.nw if s else None)
        if s is not None:
            net = (s.nw.data[:, 0] * cfg.weight * cfg.qe
                   + self.background) / cfg.eps0
            sol = self.ksp.solve(net[self.dirichlet.free])
            s.phi.data[:, 0] = self.dirichlet.full_vector(sol.x)
        self.scatter_nodes(s.phi if s else None, "phi")
        for rk in self.each_rank():
            par_loop(k.field2d_kernel, "Field2D", rk.cells,
                     OPP_ITERATE_ALL,
                     arg_dat(rk.ef, OPP_WRITE),
                     arg_dat(rk.gradm, OPP_READ),
                     arg_dat(rk.phi, 0, rk.c2n, OPP_READ),
                     arg_dat(rk.phi, 1, rk.c2n, OPP_READ),
                     arg_dat(rk.phi, 2, rk.c2n, OPP_READ))
        self.push_cells("ef")

    def push_and_move(self) -> list:
        for rk in self.each_rank():
            par_loop(k.push2d_kernel, "Push2D", rk.parts, OPP_ITERATE_ALL,
                     arg_dat(rk.ef, rk.p2c, OPP_READ),
                     arg_dat(rk.pos, OPP_RW),
                     arg_dat(rk.vel, OPP_RW))
        return self.move_particles(
            k.move2d_kernel, "Move2D", "c2c",
            lambda rk: (arg_dat(rk.pos, OPP_READ),
                        arg_dat(rk.lc, OPP_WRITE),
                        arg_dat(rk.xform, rk.p2c, OPP_READ)))

    def field_energy(self) -> List[Optional[float]]:
        """Each resident rank's share: ½ε₀∫E² over the cells it owns."""
        shares: List[Optional[float]] = [None] * self.nranks
        for rk in self.each_rank():
            owned = rk.rm.n_owned_cells
            e2 = (rk.ef.data[:owned] ** 2).sum(axis=1)
            areas = self.mesh.areas[rk.rm.cells_global[:owned]]
            shares[rk.r] = float(0.5 * self.cfg.eps0 * (e2 * areas).sum())
        return shares

    def step(self) -> None:
        self.deposit_and_solve()
        self.push_and_move()
        energy = self.field_energy()
        (field_energy, n, sum_x), _ = self.diagnostics(
            lambda rk: (energy[rk.r], rk.parts.size,
                        rk.pos.data[: rk.parts.size, 0].sum()))
        self.history["com_x"].append(float(sum_x / n) if n else np.nan)
        self.history["field_energy"].append(float(field_energy))
        self.history["n_particles"].append(int(n))
