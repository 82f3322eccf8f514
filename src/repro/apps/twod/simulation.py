"""2-D sheet model: cold-plasma oscillation on a triangular mesh."""
from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_READ, OPP_RW,
                            OPP_WRITE, Context, arg_dat, decl_const,
                            decl_dat, decl_map, decl_particle_set,
                            decl_set, par_loop, particle_move,
                            push_context)
from repro.fem import DirichletSystem, KSPSolver
from repro.mesh.tri import TriMesh, square_tri_mesh
from repro.runtime.objcache import get_or_build

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


class TwoDSheetModel:
    """Electrons over a neutralizing background in a grounded box."""

    def __init__(self, config: Optional[TwoDConfig] = None):
        self.cfg = cfg = config or TwoDConfig()
        self.ctx = Context(cfg.backend, **cfg.backend_options)
        self.rng = np.random.default_rng(cfg.seed)
        mesh_key = ("twod_tri", cfg.nx, cfg.ny, cfg.lx, cfg.ly)
        self.mesh = get_or_build(
            mesh_key,
            lambda: square_tri_mesh(cfg.nx, cfg.ny, cfg.lx, cfg.ly))

        decl_const("dt2", cfg.dt)
        decl_const("qm2", cfg.qe / cfg.me)
        decl_const("tol2", cfg.move_tolerance)

        mesh = self.mesh
        self.cells = decl_set(mesh.n_cells, "tri_cells")
        self.nodes = decl_set(mesh.n_nodes, "tri_nodes")
        self.parts = decl_particle_set(self.cells, 0, "electrons2d")
        self.c2n = decl_map(self.cells, self.nodes, 3, mesh.cell2node,
                            "tri_c2n")
        self.c2c = decl_map(self.cells, self.cells, 3, mesh.c2c,
                            "tri_c2c")
        self.p2c = decl_map(self.parts, self.cells, 1, None, "tri_p2c")

        self.ef = decl_dat(self.cells, 2, np.float64, None, "e_field2d")
        self.xform = decl_dat(self.cells, 6, np.float64, mesh.xforms,
                              "tri_xform")
        self.gradm = decl_dat(self.cells, 6, np.float64,
                              mesh.grads.reshape(-1, 6), "tri_grads")
        self.phi = decl_dat(self.nodes, 1, np.float64, None, "phi2d")
        self.nw = decl_dat(self.nodes, 1, np.float64, None, "weights2d")
        self.pos = decl_dat(self.parts, 2, np.float64, None, "pos2d")
        self.vel = decl_dat(self.parts, 2, np.float64, None, "vel2d")
        self.lc = decl_dat(self.parts, 3, np.float64, None, "lc2d")

        self.K = get_or_build(("twod_stiffness",) + mesh_key,
                              lambda: build_tri_stiffness(mesh))
        self.node_areas = get_or_build(("twod_areas",) + mesh_key,
                                       lambda: lumped_node_areas(mesh))
        bnodes = mesh.tags["boundary_nodes"]
        self.dirichlet = DirichletSystem(self.K, bnodes,
                                         np.zeros(len(bnodes)))
        self.ksp = KSPSolver(self.dirichlet.k_ff, pc="jacobi", rtol=1e-10)
        #: background (ion) charge per node, exactly neutralizing the
        #: undisplaced electron population
        self.background = -cfg.qe * cfg.density * self.node_areas

        self._seed_displaced_slab()
        self.history = {"com_x": [], "field_energy": [],
                        "n_particles": []}

    def _seed_displaced_slab(self) -> None:
        cfg = self.cfg
        n = cfg.n_particles
        cells = np.repeat(np.arange(self.mesh.n_cells), cfg.ppc)
        lam = self.rng.dirichlet(np.ones(3), size=n)
        verts = self.mesh.points[self.mesh.cell2node[cells]]
        pts = np.einsum("ni,nid->nd", lam, verts)
        # seed the fundamental Langmuir mode: ξ(x) = δ·lx·sin(πx/lx).
        # (A rigid displacement would be screened by the grounded walls;
        # the sine mode satisfies φ = 0 at both electrodes and rings at
        # the plasma frequency.)
        pts[:, 0] = np.clip(
            pts[:, 0] + cfg.displacement * cfg.lx
            * np.sin(np.pi * pts[:, 0] / cfg.lx),
            1e-9, cfg.lx - 1e-9)
        homes = self.mesh.locate(pts, guesses=cells)
        assert (homes >= 0).all()
        sl = self.parts.add_particles(n, cell_indices=homes)
        self.pos.data[sl] = pts
        self.lc.data[sl] = self.mesh.barycentric(homes, pts)
        self.parts.end_injection()

    # -- step phases -------------------------------------------------------------

    def deposit_and_solve(self) -> None:
        par_loop(k.reset2d_kernel, "Reset2D", self.nodes,
                 OPP_ITERATE_ALL, arg_dat(self.nw, OPP_WRITE))
        par_loop(k.deposit2d_kernel, "Deposit2D", self.parts,
                 OPP_ITERATE_ALL,
                 arg_dat(self.lc, OPP_READ),
                 arg_dat(self.nw, 0, self.c2n, self.p2c, OPP_INC),
                 arg_dat(self.nw, 1, self.c2n, self.p2c, OPP_INC),
                 arg_dat(self.nw, 2, self.c2n, self.p2c, OPP_INC))
        cfg = self.cfg
        net = (self.nw.data[:, 0] * cfg.weight * cfg.qe
               + self.background) / cfg.eps0
        free = self.dirichlet.free
        rhs = net[free]
        sol = self.ksp.solve(rhs)
        self.phi.data[:, 0] = self.dirichlet.full_vector(sol.x)
        par_loop(k.field2d_kernel, "Field2D", self.cells,
                 OPP_ITERATE_ALL,
                 arg_dat(self.ef, OPP_WRITE),
                 arg_dat(self.gradm, OPP_READ),
                 arg_dat(self.phi, 0, self.c2n, OPP_READ),
                 arg_dat(self.phi, 1, self.c2n, OPP_READ),
                 arg_dat(self.phi, 2, self.c2n, OPP_READ))

    def push_and_move(self):
        par_loop(k.push2d_kernel, "Push2D", self.parts, OPP_ITERATE_ALL,
                 arg_dat(self.ef, self.p2c, OPP_READ),
                 arg_dat(self.pos, OPP_RW),
                 arg_dat(self.vel, OPP_RW))
        return particle_move(k.move2d_kernel, "Move2D", self.parts,
                             self.c2c, self.p2c,
                             arg_dat(self.pos, OPP_READ),
                             arg_dat(self.lc, OPP_WRITE),
                             arg_dat(self.xform, self.p2c, OPP_READ))

    def field_energy(self) -> float:
        e2 = (self.ef.data ** 2).sum(axis=1)
        return float(0.5 * self.cfg.eps0 * (e2 * self.mesh.areas).sum())

    def step(self) -> None:
        with push_context(self.ctx):
            self.deposit_and_solve()
            self.push_and_move()
        n = self.parts.size
        self.history["com_x"].append(
            float(self.pos.data[:n, 0].mean()) if n else np.nan)
        self.history["field_energy"].append(self.field_energy())
        self.history["n_particles"].append(n)

    def run(self, n_steps: Optional[int] = None) -> dict:
        for _ in range(n_steps if n_steps is not None
                       else self.cfg.n_steps):
            self.step()
        return self.history
