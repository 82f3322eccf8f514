"""Mini-FEM-PIC on the OP-PIC API, written once for 1..N ranks.

An electrostatic 3-D unstructured FEM PIC in a duct: ions are injected at
a constant rate from the inlet faces, drift under the self-consistent
field (nonlinear Poisson with Boltzmann electrons, Newton + KSP), deposit
charge to mesh nodes through the particle→cell→node double indirection,
and are removed at boundary faces.

:class:`FemPicSimulation` is the one-rank case of the definition below;
:class:`~repro.apps.fempic.distributed.DistributedFemPic` runs the same
declaration and step with the duct cut into slabs along z, the direction
the ions travel (paper §3.2: flat MPI).  The nonlinear Poisson solve
gathers the (small) node system to rank 0 — the stand-in for the PETSc
distributed KSP, its traffic ledgered apart from PIC traffic.
"""
from __future__ import annotations

import time
from typing import List, NamedTuple, Optional

import numpy as np

from repro.core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_ITERATE_INJECTED,
                            OPP_READ, OPP_RW, OPP_WRITE, arg_dat, arg_gbl,
                            decl_const, decl_dat, decl_global, decl_map,
                            decl_particle_set, decl_set, par_loop,
                            push_context)
from repro.fem import DirichletSystem, NewtonPattern, NewtonSystem, \
    build_stiffness, lumped_node_volumes
from repro.mesh import StructuredOverlay, duct_mesh
from repro.runtime.comm import SimComm
from repro.runtime.objcache import get_or_build
from repro.runtime.ranked import Rank, RankedApp

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


def _face_areas(tri: np.ndarray) -> np.ndarray:
    return 0.5 * np.linalg.norm(
        np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)


def inlet_table(points: np.ndarray, face_nodes: np.ndarray,
                face_cells: np.ndarray, lz: float) -> InletTable:
    """Table for the faces with corner nodes ``face_nodes (nfaces, 3)``
    owned by ``face_cells``; an empty face set gives an empty table."""
    tri = points[face_nodes]
    areas = _face_areas(tri)
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


class FemPicSimulation(RankedApp):
    """Declares each rank's mesh and particles through the DSL and
    advances the PIC loop; works unchanged on every backend and at every
    rank count (this class fixes it at one)."""

    part_dats = ("pos", "vel", "lc")
    #: ef is read by CalcPosVel before the step recomputes it; phi is the
    #: field every restore must bring back.  nw/ncd are rebuilt from the
    #: particles before anything reads them (and nw's ghost rows must be
    #: zero when a deposit starts, which a migrated copy would break)
    cell_dats = ("ef",)
    node_dats = ("phi",)

    def __init__(self, config: Optional[FemPicConfig] = None):
        self._build(config or FemPicConfig(), SimComm(1),
                    "principal_direction", None)

    # -- setup -------------------------------------------------------------------

    def _build(self, cfg: FemPicConfig, comm, partition_method: str,
               ranks_per_node: Optional[int]) -> None:
        self.cfg = cfg
        if cfg.move_strategy not in ("mh", "dh"):
            raise ValueError(f"unknown move strategy {cfg.move_strategy!r}")
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
        mesh = self.gmesh = self.mesh
        # constants are global (decl_const) — same values on every rank
        declare_fempic_constants(cfg)
        self.nvol_global = get_or_build(
            ("fempic_nvol",) + self._mesh_key,
            lambda: lumped_node_volumes(mesh.points, mesh.cell2node))
        #: area of the whole inlet; a rank injects its faces' share of it
        self.inlet_area = get_or_build(
            ("fempic_inlet_area",) + self._mesh_key,
            lambda: _face_areas(
                mesh.points[mesh.tags["inlet_faces"][:, 2:]]).sum())
        # one injection (and collision) stream per rank; rank 0's is the
        # single-rank stream, so a partition that leaves the inlet on
        # rank 0 injects the very same ions
        self.rngs = [np.random.default_rng(cfg.seed + 1000 * r)
                     for r in range(comm.nranks)]
        self._collision_rngs = [
            np.random.default_rng(cfg.seed + 99 + 1000 * r)
            for r in range(comm.nranks)] \
            if cfg.collision_frequency > 0.0 else []
        self._inject_carry: List[float] = [0.0] * comm.nranks
        # z layers of the duct; a mesh file's are the planes its nodes lie on
        nz = np.unique(mesh.points[:, 2]).size - 1 if cfg.mesh_file \
            else cfg.nz
        self._partition(comm, partition_method, self._mesh_key,
                        centroids=mesh.centroids, c2c=mesh.c2c,
                        c2n=mesh.cell2node, axis=2,
                        layers=(mesh.tags["extent"][2], nz),
                        ranks_per_node=ranks_per_node)
        self._setup_field_solver()
        if cfg.move_strategy == "dh":
            self.use_direct_hop(StructuredOverlay.build(mesh,
                                                        cfg.overlay_bins))
        self.step_count = 0
        self.history = {"n_particles": [], "field_energy": [],
                        "max_phi": [], "injected": [], "removed": []}

    @property
    def rng(self) -> np.random.Generator:
        """Rank 0's stream: seeding and (with the inlet on rank 0, as
        the default partition leaves it) all injection draw from it."""
        return self.rngs[0]

    def _declare(self, rk: Rank) -> None:
        mesh, rm = self.mesh, rk.rm
        cg, ng = rm.cells_global, rm.nodes_global
        rk.cells = decl_set(rm.n_local_cells, "cells")
        rk.cells.owned_size = rm.n_owned_cells
        rk.nodes = decl_set(rm.n_local_nodes, "nodes")
        rk.nodes.owned_size = rm.n_owned_nodes
        rk.parts = decl_particle_set(rk.cells, 0, "ions")

        rk.c2n = decl_map(rk.cells, rk.nodes, 4, rm.local_c2n,
                          "cell_to_nodes")
        rk.c2c = decl_map(rk.cells, rk.cells, 4, rm.local_c2c,
                          "cell_to_cells")
        rk.p2c = decl_map(rk.parts, rk.cells, 1, None, "particle_to_cell")

        rk.ef = decl_dat(rk.cells, 3, np.float64, None, "electric_field")
        rk.xform = decl_dat(rk.cells, 12, np.float64, mesh.xforms[cg],
                            "cell_xform")
        rk.gradm = decl_dat(rk.cells, 12, np.float64,
                            mesh.grads.reshape(-1, 12)[cg], "shape_deriv")
        rk.cvol = decl_dat(rk.cells, 1, np.float64, mesh.volumes[cg],
                           "cell_volume")

        rk.phi = decl_dat(rk.nodes, 1, np.float64, None, "node_potential")
        rk.nw = decl_dat(rk.nodes, 1, np.float64, None, "node_charge")
        rk.ncd = decl_dat(rk.nodes, 1, np.float64, None, "charge_density")
        rk.nvol = decl_dat(rk.nodes, 1, np.float64, self.nvol_global[ng],
                           "node_volume")

        rk.pos = decl_dat(rk.parts, 3, np.float64, None, "position")
        rk.vel = decl_dat(rk.parts, 3, np.float64, None, "velocity")
        rk.lc = decl_dat(rk.parts, 4, np.float64, None, "weights")

        rk.energy = decl_global(1, np.float64, name="field_energy")

        def own_inlet():
            # the inlet faces whose owning cell this rank owns
            faces = mesh.tags["inlet_faces"]
            g2l = np.full(mesh.n_cells, -1, dtype=np.int64)
            g2l[cg] = np.arange(cg.size)
            local = g2l[faces[:, 0]]
            mine = np.flatnonzero((local >= 0)
                                  & (local < rm.n_owned_cells))
            return inlet_table(mesh.points, faces[mine, 2:], local[mine],
                               mesh.tags["extent"][2])

        rk.inlet = self._rank_product(rk, "fempic_inlet", own_inlet)
        rk.streams["rng"] = self.rngs[rk.r]
        rk.collisions = None
        if self._collision_rngs:
            rk.streams["collision_rng"] = self._collision_rngs[rk.r]
            from repro.field.collisions import MCCollisions
            rk.collisions = MCCollisions(
                rk.parts, rk.vel, self.cfg.collision_frequency,
                self.cfg.dt, rng=self._collision_rngs[rk.r])

    def _setup_field_solver(self) -> None:
        """Rank 0 holds the Newton system over the whole node vector.
        The Dirichlet reduction and the Newton pattern are pure functions
        of the mesh and the boundary potentials, so a warm worker builds
        them once; the system holds this run's values and constants."""
        cfg, mesh = self.cfg, self.mesh
        self.K = self.dirichlet = self.newton = None
        s = self.solver = self.solver_nodes(mesh.n_nodes, phi=None, nw=None,
                                            nvol=self.nvol_global)
        if s is not None:
            self.K = get_or_build(
                ("fempic_stiffness",) + self._mesh_key,
                lambda: build_stiffness(mesh.points, mesh.cell2node))
            # hex: a -0.0 potential must not find a 0.0 reduction
            key = self._mesh_key + (float(cfg.inlet_potential).hex(),
                                    float(cfg.wall_potential).hex())
            self.dirichlet = get_or_build(("fempic_dirichlet",) + key,
                                          self._dirichlet_system)
            pattern = get_or_build(("fempic_newton",) + key,
                                   lambda: NewtonPattern(self.dirichlet))
            self.newton = NewtonSystem(
                pattern, spwt=cfg.spwt, ion_charge=cfg.ion_charge,
                n0=cfg.n0, phi0=cfg.phi0, kTe=cfg.kTe, eps0=cfg.eps0,
                newton_iters=cfg.newton_iters, rtol=cfg.ksp_rtol)
            s.phi.data[:, 0] = 0.0
            s.phi.data[self.dirichlet.dirichlet_nodes, 0] = \
                self.dirichlet.dirichlet_values
        self.scatter_nodes(s.phi if s else None, "phi")

    def _dirichlet_system(self) -> DirichletSystem:
        """``K`` reduced to the free nodes: the inlet and wall nodes are
        held at their potentials."""
        cfg, tags = self.cfg, self.mesh.tags
        dn = np.concatenate([tags["inlet_nodes"], tags["wall_nodes"]])
        dv = np.concatenate([
            np.full(len(tags["inlet_nodes"]), cfg.inlet_potential),
            np.full(len(tags["wall_nodes"]), cfg.wall_potential)])
        order = np.argsort(dn)
        return DirichletSystem(self.K, dn[order], dv[order])

    def seed_uniform_plasma(self, ppc: int) -> int:
        """Pre-fill the duct with ``ppc`` ions per cell (uniform within
        each tetrahedron, axial injection velocity).

        The paper's single-node runs report an *average* of ~70M particles
        in flight; seeding lets benchmarks reach that regime without
        simulating the fill transient.  The barycentric draws are taken
        in *global* cell order from rank 0's stream (every process holds
        a copy of it), so the seeded plasma is the same particle set —
        and leaves the injection stream at the same position — at every
        rank count.
        """
        mesh = self.mesh
        lam_global = self.rng.dirichlet(
            np.ones(4), size=mesh.n_cells * ppc).reshape(mesh.n_cells,
                                                         ppc, 4)
        for rk in self.each_rank():
            owned = rk.rm.cells_global[: rk.rm.n_owned_cells]
            n = owned.size * ppc
            sl = rk.parts.add_particles(
                n, cell_indices=np.repeat(np.arange(owned.size), ppc))
            rk.lc.data[sl] = lam_global[owned].reshape(n, 4)
            verts = np.repeat(mesh.points[mesh.cell2node[owned]], ppc,
                              axis=0)                      # (n, 4, 3)
            rk.pos.data[sl] = np.einsum("ni,nid->nd", rk.lc.data[sl], verts)
            rk.vel.data[sl] = [0.0, 0.0, self.cfg.injection_velocity]
            rk.parts.end_injection()
        return mesh.n_cells * ppc

    # -- PIC steps ---------------------------------------------------------------

    def inject(self) -> List[int]:
        """Constant-rate one-stream injection: every rank feeds the
        inlet faces it owns, from its own stream, at its share of the
        rate.  Returns the count injected per rank."""
        cfg = self.cfg
        counts = [0] * self.nranks
        for rk in self.each_rank():
            rk.parts.begin_injection()
            if rk.inlet.cdf.size:
                want = cfg.injection_rate \
                    * (rk.inlet.area / self.inlet_area) \
                    + self._inject_carry[rk.r]
                counts[rk.r] = count = int(want)
                self._inject_carry[rk.r] = want - count
                if count:
                    self._inject_on(rk, count)
            rk.parts.end_injection()
        return counts

    def _inject_on(self, rk: Rank, count: int) -> None:
        cfg, rng = self.cfg, self.rngs[rk.r]
        pos, cells = sample_inlet_positions(rk.inlet, count, rng)
        sl = rk.parts.add_particles(count, cell_indices=cells)
        rk.pos.data[sl] = pos
        par_loop(k.init_injected_kernel, "InjectIons", rk.parts,
                 OPP_ITERATE_INJECTED,
                 arg_dat(rk.vel, OPP_WRITE),
                 arg_dat(rk.lc, OPP_WRITE))
        if cfg.injection_temperature > 0.0:
            # drifting Maxwellian: thermal spread on top of the kernel's
            # cold one-stream drift (host-side draws, like the positions)
            vth = np.sqrt(cfg.injection_temperature / cfg.ion_mass)
            rk.vel.data[sl] += rng.normal(0.0, vth, size=(count, 3))
            # never inject *out* of the duct
            rk.vel.data[sl.start:sl.stop, 2] = np.abs(
                rk.vel.data[sl.start:sl.stop, 2])

    def calc_pos_vel(self) -> None:
        for rk in self.each_rank():
            par_loop(k.calc_pos_vel_kernel, "CalcPosVel", rk.parts,
                     OPP_ITERATE_ALL,
                     arg_dat(rk.ef, rk.p2c, OPP_READ),
                     arg_dat(rk.pos, OPP_RW),
                     arg_dat(rk.vel, OPP_RW))

    def move(self) -> list:
        """Relocate (and migrate) every ion; returns the per-rank move
        results."""
        self.direct_hop()
        return self.move_particles(
            k.move_kernel, "Move", "c2c",
            lambda rk: (arg_dat(rk.pos, OPP_READ),
                        arg_dat(rk.lc, OPP_WRITE),
                        arg_dat(rk.xform, rk.p2c, OPP_READ)))

    def deposit(self) -> None:
        for rk in self.each_rank():
            # owned rows only: ghost rows are zero between deposits, the
            # reduce that completes one leaves them so
            par_loop(k.reset_node_charge_kernel, "ResetNodeCharge",
                     rk.nodes, OPP_ITERATE_ALL, arg_dat(rk.nw, OPP_WRITE))
            par_loop(k.deposit_charge_kernel, "DepositCharge", rk.parts,
                     OPP_ITERATE_ALL,
                     arg_dat(rk.lc, OPP_READ),
                     arg_dat(rk.nw, 0, rk.c2n, rk.p2c, OPP_INC),
                     arg_dat(rk.nw, 1, rk.c2n, rk.p2c, OPP_INC),
                     arg_dat(rk.nw, 2, rk.c2n, rk.p2c, OPP_INC),
                     arg_dat(rk.nw, 3, rk.c2n, rk.p2c, OPP_INC))
        self.reduce_nodes("nw")
        for rk in self.each_rank():
            par_loop(k.compute_node_charge_density_kernel,
                     "ComputeNodeChargeDensity", rk.nodes, OPP_ITERATE_ALL,
                     arg_dat(rk.ncd, OPP_WRITE),
                     arg_dat(rk.nw, OPP_READ),
                     arg_dat(rk.nvol, OPP_READ))

    def field_solve(self) -> None:
        """The nonlinear Poisson solve, run by rank 0 over the gathered
        node charge: every Newton iteration (residual, Jacobian, one
        Jacobi-PCG solve) inside one opaque call — the PETSc role."""
        s = self.solver
        self.gather_nodes("nw", s.nw if s else None)
        if s is not None:
            with push_context(s.ctx):
                self._newton(s)
        self.scatter_nodes(s.phi if s else None, "phi")

    def _newton(self, s) -> None:
        t0 = time.perf_counter()
        result = self.newton.solve_potential(s.phi.data, s.nw.data,
                                             s.nvol.data)
        dt = time.perf_counter() - t0
        # each CG iteration (and the setup a zero-iteration solve still
        # pays) is one sweep over the Newton matrix
        sweeps = sum(max(it, 1) for it in result.iterations)
        nnz = self.newton.a.nnz
        perf = s.ctx.perf
        row = perf.get("Solve")
        cg = sum(result.iterations) \
            + (row.extras.get("cg_iterations", 0) if row else 0)
        perf.record_loop("Solve", n=self.dirichlet.free.size, seconds=dt,
                         flops=2.0 * nnz * sweeps,
                         nbytes=12.0 * nnz * sweeps, indirect_inc=False,
                         cg_iterations=cg)

    def compute_electric_field(self) -> None:
        for rk in self.each_rank():
            par_loop(k.compute_electric_field_kernel,
                     "ComputeElectricField", rk.cells, OPP_ITERATE_ALL,
                     arg_dat(rk.ef, OPP_WRITE),
                     arg_dat(rk.gradm, OPP_READ),
                     arg_dat(rk.phi, 0, rk.c2n, OPP_READ),
                     arg_dat(rk.phi, 1, rk.c2n, OPP_READ),
                     arg_dat(rk.phi, 2, rk.c2n, OPP_READ),
                     arg_dat(rk.phi, 3, rk.c2n, OPP_READ))
        # a particle paused in a halo cell before the next move reads
        # the field there
        self.push_cells("ef")

    def field_energy(self) -> List[Optional[float]]:
        """Each resident rank's share of the field energy."""
        shares: List[Optional[float]] = [None] * self.nranks
        for rk in self.each_rank():
            rk.energy.data[0] = 0.0
            par_loop(k.field_energy_kernel, "FieldEnergy", rk.cells,
                     OPP_ITERATE_ALL,
                     arg_dat(rk.ef, OPP_READ),
                     arg_dat(rk.cvol, OPP_READ),
                     arg_gbl(rk.energy, OPP_INC))
            shares[rk.r] = float(rk.energy.value) * self.cfg.eps0
        return shares

    # -- main loop ---------------------------------------------------------------

    def step(self) -> None:
        injected = self.inject()
        if self._collision_rngs:
            for rk in self.each_rank():
                rk.collisions.apply()
        self.calc_pos_vel()
        moved = self.move()
        self.deposit()
        self.field_solve()
        self.compute_electric_field()
        energy = self.field_energy()
        self.step_count += 1
        (total_energy, n, n_injected, n_removed), (max_phi,) = \
            self.diagnostics(
                lambda rk: (energy[rk.r], rk.parts.size, injected[rk.r],
                            moved[rk.r].n_removed),
                lambda rk: (rk.phi.data.max(),))
        self.history["n_particles"].append(int(n))
        self.history["field_energy"].append(float(total_energy))
        self.history["max_phi"].append(float(max_phi))
        self.history["injected"].append(int(n_injected))
        self.history["removed"].append(int(n_removed))

    # -- snapshot extras (see repro.util.checkpoint) ---------------------------

    def _snapshot_extras(self, r: int) -> dict:
        extras = {"carry": self._inject_carry[r]}
        if r == 0 and self.nranks > 1:
            # rank 0's persistent Newton initial guess (at one rank it
            # is the rank's own node_potential dat)
            extras["phi_global"] = self.solver.phi.data[:, 0]
        return extras

    def _restore_extras(self, r: int, extras: dict) -> None:
        self._inject_carry[r] = float(extras["carry"])
        if "phi_global" in extras:
            self.solver.phi.data[:, 0] = extras["phi_global"]
