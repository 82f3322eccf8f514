"""Mini-FEM-PIC: single-node simulation driver built on the OP-PIC API.

An electrostatic 3-D unstructured FEM PIC in a duct: ions are injected at
a constant rate from the inlet faces, drift under the self-consistent
field (nonlinear Poisson with Boltzmann electrons, Newton + KSP), deposit
charge to mesh nodes through the particle→cell→node double indirection,
and are removed at boundary faces.
"""
from __future__ import annotations

import time
from typing import NamedTuple, Optional

import numpy as np

from repro.core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_ITERATE_INJECTED,
                            OPP_READ, OPP_RW, OPP_WRITE, Context, arg_dat,
                            arg_gbl, decl_const, decl_dat, decl_global,
                            decl_map, decl_particle_set, decl_set, par_loop,
                            particle_move, push_context)
from repro.fem import DirichletSystem, NewtonSystem, build_stiffness, \
    lumped_node_volumes
from repro.mesh import StructuredOverlay, duct_mesh
from repro.runtime.dh import direct_hop_assign
from repro.runtime.objcache import get_or_build

from . import kernels as k
from .config import FemPicConfig

__all__ = ["FemPicSimulation", "InletTable", "inlet_table",
           "sample_inlet_positions", "declare_fempic_constants"]


def declare_fempic_constants(cfg: FemPicConfig) -> None:
    """Register the kernel constants (``opp_decl_const``) for a config."""
    decl_const("dt", cfg.dt)
    decl_const("qm", cfg.ion_charge / cfg.ion_mass)
    decl_const("spwt", cfg.spwt)
    decl_const("ion_charge", cfg.ion_charge)
    decl_const("inv_eps0", 1.0 / cfg.eps0)
    decl_const("n0", cfg.n0)
    decl_const("phi0", cfg.phi0)
    decl_const("kTe", cfg.kTe)
    decl_const("inj_velocity", cfg.injection_velocity)
    decl_const("tol", cfg.move_tolerance)


class InletTable(NamedTuple):
    """Sampling table of a set of inlet faces (a pure function of the
    mesh, so it is cached next to it)."""
    tri: np.ndarray     #: (nfaces, 3, 3) corner coordinates
    cells: np.ndarray   #: owning cell of each face
    cdf: np.ndarray     #: area-weighted cumulative face probabilities
    area: float         #: total area of the faces
    nudge: float        #: axial offset that puts a sample inside the duct


def inlet_table(points: np.ndarray, face_nodes: np.ndarray,
                face_cells: np.ndarray, lz: float) -> InletTable:
    """Table for the faces with corner nodes ``face_nodes (nfaces, 3)``
    owned by ``face_cells``; an empty face set gives an empty table."""
    tri = points[face_nodes]
    areas = 0.5 * np.linalg.norm(
        np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)
    area = areas.sum()
    # the CDF ``Generator.choice(p=areas / area)`` would build per call
    cdf = (areas / area).cumsum()
    if cdf.size:
        cdf /= cdf[-1]
    return InletTable(tri, face_cells, cdf, area, 1e-9 * lz)


def sample_inlet_positions(table: InletTable, count: int,
                           rng: np.random.Generator):
    """Area-weighted random positions on the duct's inlet faces.

    Returns ``(positions (n,3), cells (n,))`` — the owning inlet cell of
    each sample.  Randomness lives host-side (as in the reference app's
    injection distributions); kernels stay deterministic.  The face draw
    is what ``rng.choice(nfaces, size=count, p=...)`` does internally, so
    the RNG stream is the one that call would consume.
    """
    if table.cdf.size == 0:
        raise RuntimeError("duct mesh has no inlet faces")
    pick = table.cdf.searchsorted(rng.random(count), side="right")
    r1 = rng.random(count)
    r2 = rng.random(count)
    flip = r1 + r2 > 1.0
    r1[flip] = 1.0 - r1[flip]
    r2[flip] = 1.0 - r2[flip]
    t = table.tri[pick]
    pos = t[:, 0] + r1[:, None] * (t[:, 1] - t[:, 0]) \
        + r2[:, None] * (t[:, 2] - t[:, 0])
    # nudge inside the duct so the first barycentric test succeeds
    pos[:, 2] += table.nudge
    return pos, table.cells[pick]


class FemPicSimulation:
    """Declares the mesh/particles through the DSL and advances the PIC
    loop; works unchanged on every backend."""

    def __init__(self, config: Optional[FemPicConfig] = None):
        self.cfg = config or FemPicConfig()
        cfg = self.cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.ctx = Context(cfg.backend, **cfg.backend_options)
        if cfg.mesh_file:
            from repro.mesh.io import load_mesh
            self._mesh_key = ("fempic_mesh_file", str(cfg.mesh_file))
            self.mesh = get_or_build(self._mesh_key,
                                     lambda: load_mesh(cfg.mesh_file))
        else:
            self._mesh_key = ("fempic_duct", cfg.nx, cfg.ny, cfg.nz,
                              cfg.lx, cfg.ly, cfg.lz)
            self.mesh = get_or_build(
                self._mesh_key,
                lambda: duct_mesh(cfg.nx, cfg.ny, cfg.nz, cfg.lx, cfg.ly,
                                  cfg.lz))
        faces = self.mesh.tags["inlet_faces"]
        self.inlet = get_or_build(
            ("fempic_inlet",) + self._mesh_key,
            lambda: inlet_table(self.mesh.points, faces[:, 2:], faces[:, 0],
                                self.mesh.tags["extent"][2]))
        self._declare_constants()
        self._declare_sets_and_data()
        self._setup_field_solver()
        self.overlay = None
        if cfg.move_strategy == "dh":
            self.overlay = StructuredOverlay.build(self.mesh,
                                                   cfg.overlay_bins)
        elif cfg.move_strategy != "mh":
            raise ValueError(f"unknown move strategy {cfg.move_strategy!r}")
        self.collisions = None
        if cfg.collision_frequency > 0.0:
            from repro.field.collisions import MCCollisions
            self.collisions = MCCollisions(self.parts, self.vel,
                                           cfg.collision_frequency,
                                           cfg.dt, seed=cfg.seed + 99)
        self._inject_carry = 0.0
        self.step_count = 0
        #: the Program accumulated by run() when cfg.program != "off"
        self.program = None
        self.history = {"n_particles": [], "field_energy": [],
                        "max_phi": [], "injected": [], "removed": []}

    # -- setup -------------------------------------------------------------------

    def _declare_constants(self) -> None:
        declare_fempic_constants(self.cfg)

    def _declare_sets_and_data(self) -> None:
        mesh = self.mesh
        self.cells = decl_set(mesh.n_cells, "cells")
        self.nodes = decl_set(mesh.n_nodes, "nodes")
        self.parts = decl_particle_set(self.cells, 0, "ions")

        self.c2n = decl_map(self.cells, self.nodes, 4, mesh.cell2node,
                            "cell_to_nodes")
        self.c2c = decl_map(self.cells, self.cells, 4, mesh.c2c,
                            "cell_to_cells")
        self.p2c = decl_map(self.parts, self.cells, 1, None,
                            "particle_to_cell")

        self.ef = decl_dat(self.cells, 3, np.float64, None, "electric_field")
        self.xform = decl_dat(self.cells, 12, np.float64, mesh.xforms,
                              "cell_xform")
        self.gradm = decl_dat(self.cells, 12, np.float64,
                              mesh.grads.reshape(-1, 12), "shape_deriv")
        self.cvol = decl_dat(self.cells, 1, np.float64, mesh.volumes,
                             "cell_volume")

        self.phi = decl_dat(self.nodes, 1, np.float64, None,
                            "node_potential")
        self.nw = decl_dat(self.nodes, 1, np.float64, None, "node_charge")
        self.ncd = decl_dat(self.nodes, 1, np.float64, None,
                            "charge_density")
        self.kphi = decl_dat(self.nodes, 1, np.float64, None,
                             "stiffness_action")
        self.f1 = decl_dat(self.nodes, 1, np.float64, None, "f1_vector")
        self.jdiag = decl_dat(self.nodes, 1, np.float64, None, "j_diag")
        self.nvol = decl_dat(self.nodes, 1, np.float64,
                             get_or_build(
                                 ("fempic_nvol",) + self._mesh_key,
                                 lambda: lumped_node_volumes(
                                     mesh.points, mesh.cell2node)),
                             "node_volume")

        self.pos = decl_dat(self.parts, 3, np.float64, None, "position")
        self.vel = decl_dat(self.parts, 3, np.float64, None, "velocity")
        self.lc = decl_dat(self.parts, 4, np.float64, None, "weights")

        self.energy = decl_global(1, np.float64, name="field_energy")

    def _setup_field_solver(self) -> None:
        cfg = self.cfg
        mesh = self.mesh
        self.K = get_or_build(
            ("fempic_stiffness",) + self._mesh_key,
            lambda: build_stiffness(mesh.points, mesh.cell2node))
        dn = np.concatenate([mesh.tags["inlet_nodes"],
                             mesh.tags["wall_nodes"]])
        dv = np.concatenate([
            np.full(len(mesh.tags["inlet_nodes"]), cfg.inlet_potential),
            np.full(len(mesh.tags["wall_nodes"]), cfg.wall_potential)])
        order = np.argsort(dn)
        self.dirichlet = DirichletSystem(self.K, dn[order], dv[order])
        self.newton = NewtonSystem(self.dirichlet.k_ff, rtol=cfg.ksp_rtol)
        self.phi.data[:, 0] = 0.0
        self.phi.data[self.dirichlet.dirichlet_nodes, 0] = \
            self.dirichlet.dirichlet_values

    def seed_uniform_plasma(self, ppc: int) -> int:
        """Pre-fill the duct with ``ppc`` ions per cell (uniform within
        each tetrahedron, axial injection velocity).

        The paper's single-node runs report an *average* of ~70M particles
        in flight; seeding lets benchmarks reach that regime without
        simulating the fill transient.
        """
        mesh = self.mesh
        n = mesh.n_cells * ppc
        cells = np.repeat(np.arange(mesh.n_cells), ppc)
        lam = self.rng.dirichlet(np.ones(4), size=n)
        verts = mesh.points[mesh.cell2node[cells]]       # (n, 4, 3)
        pos = np.einsum("ni,nid->nd", lam, verts)
        sl = self.parts.add_particles(n, cell_indices=cells)
        self.pos.data[sl] = pos
        self.vel.data[sl] = [0.0, 0.0, self.cfg.injection_velocity]
        self.lc.data[sl] = lam
        self.parts.end_injection()
        return n

    # -- PIC steps ---------------------------------------------------------------

    def inject(self) -> int:
        """Constant-rate one-stream injection from the inlet faces."""
        want = self.cfg.injection_rate + self._inject_carry
        count = int(want)
        self._inject_carry = want - count
        self.parts.begin_injection()
        if count == 0:
            self.parts.end_injection()
            return 0
        pos, cells = sample_inlet_positions(self.inlet, count, self.rng)
        sl = self.parts.add_particles(count, cell_indices=cells)
        self.pos.data[sl] = pos
        par_loop(k.init_injected_kernel, "InjectIons", self.parts,
                 OPP_ITERATE_INJECTED,
                 arg_dat(self.vel, OPP_WRITE),
                 arg_dat(self.lc, OPP_WRITE))
        if self.cfg.injection_temperature > 0.0:
            # drifting Maxwellian: thermal spread on top of the kernel's
            # cold one-stream drift (host-side draws, like the positions)
            vth = np.sqrt(self.cfg.injection_temperature
                          / self.cfg.ion_mass)
            self.vel.data[sl] += self.rng.normal(0.0, vth, size=(count, 3))
            # never inject *out* of the duct
            self.vel.data[sl.start:sl.stop, 2] = np.abs(
                self.vel.data[sl.start:sl.stop, 2])
        self.parts.end_injection()
        return count

    def calc_pos_vel(self) -> None:
        par_loop(k.calc_pos_vel_kernel, "CalcPosVel", self.parts,
                 OPP_ITERATE_ALL,
                 arg_dat(self.ef, self.p2c, OPP_READ),
                 arg_dat(self.pos, OPP_RW),
                 arg_dat(self.vel, OPP_RW))

    def _deposit_args(self):
        return (arg_dat(self.lc, OPP_READ),
                arg_dat(self.nw, 0, self.c2n, self.p2c, OPP_INC),
                arg_dat(self.nw, 1, self.c2n, self.p2c, OPP_INC),
                arg_dat(self.nw, 2, self.c2n, self.p2c, OPP_INC),
                arg_dat(self.nw, 3, self.c2n, self.p2c, OPP_INC))

    def move(self):
        if self.overlay is not None:
            direct_hop_assign(self.overlay, self.parts, self.pos, self.p2c)
        fused = {}
        if self.cfg.fuse_move:
            # the deposit lands inside the move, so the accumulator must
            # be reset *before* particles start settling
            par_loop(k.reset_node_charge_kernel, "ResetNodeCharge",
                     self.nodes, OPP_ITERATE_ALL,
                     arg_dat(self.nw, OPP_WRITE))
            fused = {"deposit_kernel": k.deposit_charge_kernel,
                     "deposit_args": self._deposit_args(),
                     "deposit_when": "done"}
        return particle_move(k.move_kernel, "Move", self.parts, self.c2c,
                             self.p2c,
                             arg_dat(self.pos, OPP_READ),
                             arg_dat(self.lc, OPP_WRITE),
                             arg_dat(self.xform, self.p2c, OPP_READ),
                             **fused)

    def deposit(self) -> None:
        if not self.cfg.fuse_move:
            par_loop(k.reset_node_charge_kernel, "ResetNodeCharge",
                     self.nodes, OPP_ITERATE_ALL,
                     arg_dat(self.nw, OPP_WRITE))
            par_loop(k.deposit_charge_kernel, "DepositCharge", self.parts,
                     OPP_ITERATE_ALL, *self._deposit_args())
        par_loop(k.compute_node_charge_density_kernel,
                 "ComputeNodeChargeDensity", self.nodes, OPP_ITERATE_ALL,
                 arg_dat(self.ncd, OPP_WRITE),
                 arg_dat(self.nw, OPP_READ),
                 arg_dat(self.nvol, OPP_READ))

    def field_solve(self) -> None:
        """Newton iterations on the nonlinear Poisson system; each
        iteration runs the ComputeJMatrix/ComputeF1Vector loops and one
        KSP (CG) solve — the PETSc role."""
        free = self.dirichlet.free
        nnz = self.newton.a.nnz
        for _ in range(self.cfg.newton_iters):
            self.kphi.data[:, 0] = self.K @ self.phi.data[:, 0]
            par_loop(k.compute_f1_vector_kernel, "ComputeF1Vector",
                     self.nodes, OPP_ITERATE_ALL,
                     arg_dat(self.f1, OPP_WRITE),
                     arg_dat(self.kphi, OPP_READ),
                     arg_dat(self.nw, OPP_READ),
                     arg_dat(self.phi, OPP_READ),
                     arg_dat(self.nvol, OPP_READ))
            par_loop(k.compute_j_matrix_kernel, "ComputeJMatrix",
                     self.nodes, OPP_ITERATE_ALL,
                     arg_dat(self.jdiag, OPP_WRITE),
                     arg_dat(self.phi, OPP_READ),
                     arg_dat(self.nvol, OPP_READ))
            t0 = time.perf_counter()
            result = self.newton.solve(self.jdiag.data[free, 0],
                                       -self.f1.data[free, 0])
            self.phi.data[free, 0] += result.x
            dt = time.perf_counter() - t0
            self.ctx.perf.record_loop(
                "Solve", n=free.size, seconds=dt,
                flops=2.0 * nnz * max(result.iterations, 1),
                nbytes=12.0 * nnz * max(result.iterations, 1),
                indirect_inc=False)

    def compute_electric_field(self) -> None:
        par_loop(k.compute_electric_field_kernel, "ComputeElectricField",
                 self.cells, OPP_ITERATE_ALL,
                 arg_dat(self.ef, OPP_WRITE),
                 arg_dat(self.gradm, OPP_READ),
                 arg_dat(self.phi, 0, self.c2n, OPP_READ),
                 arg_dat(self.phi, 1, self.c2n, OPP_READ),
                 arg_dat(self.phi, 2, self.c2n, OPP_READ),
                 arg_dat(self.phi, 3, self.c2n, OPP_READ))

    def field_energy(self) -> float:
        self.energy.data[0] = 0.0
        par_loop(k.field_energy_kernel, "FieldEnergy", self.cells,
                 OPP_ITERATE_ALL,
                 arg_dat(self.ef, OPP_READ),
                 arg_dat(self.cvol, OPP_READ),
                 arg_gbl(self.energy, OPP_INC))
        return float(self.energy.value) * self.cfg.eps0

    # -- main loop ---------------------------------------------------------------

    def step(self) -> None:
        with push_context(self.ctx):
            injected = self.inject()
            if self.collisions is not None:
                self.collisions.apply()
            self.calc_pos_vel()
            res = self.move()
            self.deposit()
            self.field_solve()
            self.compute_electric_field()
            energy = self.field_energy()
        self.step_count += 1
        self.history["n_particles"].append(self.parts.size)
        self.history["field_energy"].append(energy)
        self.history["max_phi"].append(float(self.phi.data.max()))
        self.history["injected"].append(injected)
        self.history["removed"].append(res.n_removed)

    def run(self, n_steps: Optional[int] = None) -> dict:
        steps = n_steps if n_steps is not None else self.cfg.n_steps
        mode = getattr(self.cfg, "program", "off")
        if mode != "off":
            from repro import program as program_mod
            if self.program is None:
                self.program = program_mod.Program(mode)
            with program_mod.record(mode=mode, program=self.program):
                for _ in range(steps):
                    self.step()
        else:
            for _ in range(steps):
                self.step()
        return self.history
