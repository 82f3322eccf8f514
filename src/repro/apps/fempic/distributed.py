"""Distributed Mini-FEM-PIC over the simulated MPI runtime.

Reproduces the paper's flat-MPI execution: the duct is partitioned along
the principal direction of ion motion (the z axis), each rank declares its
local mesh + halo through the same DSL calls as the single-node app, and
the step interleaves per-rank loops with halo exchanges and particle
migration.  The nonlinear Poisson solve gathers the (small) node system to
rank 0 — the stand-in for the PETSc distributed KSP, with gather/scatter
traffic counted against the communicator.
"""
from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from repro.core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_ITERATE_INJECTED,
                            OPP_READ, OPP_RW, OPP_WRITE, Context, arg_dat,
                            arg_gbl, decl_dat, decl_global, decl_map,
                            decl_particle_set, decl_set, par_loop,
                            push_context)
from repro.fem import DirichletSystem, NewtonSystem, build_stiffness, \
    lumped_node_volumes
from repro.mesh import StructuredOverlay, duct_mesh
from repro.runtime import (SimComm, build_rank_meshes, mpi_particle_move,
                           partition, push_node_halos, reduce_node_halos)
from repro.runtime.comm import CommStats
from repro.runtime.dh import DirectHopGlobalMover

from . import kernels as k
from .config import FemPicConfig
from .simulation import declare_fempic_constants, inlet_table, \
    sample_inlet_positions

__all__ = ["DistributedFemPic"]


class _Rank:
    """Per-rank DSL declarations (the same calls as the single-node app)."""

    def __init__(self, r: int, cfg: FemPicConfig, gmesh, nvol_global,
                 rank_mesh, ctx: Optional[Context] = None):
        # on a live rebalance the backend context (worker pools, perf
        # counters) is carried over; only the DSL objects are rebuilt
        self.ctx = ctx if ctx is not None \
            else Context(cfg.backend, **cfg.backend_options)
        self.rm = rank_mesh
        cg = rank_mesh.cells_global
        ng = rank_mesh.nodes_global

        self.cells = decl_set(rank_mesh.n_local_cells, f"cells_r{r}")
        self.cells.owned_size = rank_mesh.n_owned_cells
        self.nodes = decl_set(rank_mesh.n_local_nodes, f"nodes_r{r}")
        self.nodes.owned_size = rank_mesh.n_owned_nodes
        self.parts = decl_particle_set(self.cells, 0, f"ions_r{r}")

        self.c2n = decl_map(self.cells, self.nodes, 4, rank_mesh.local_c2n,
                            f"c2n_r{r}")
        self.c2c = decl_map(self.cells, self.cells, 4, rank_mesh.local_c2c,
                            f"c2c_r{r}")
        self.p2c = decl_map(self.parts, self.cells, 1, None, f"p2c_r{r}")

        self.ef = decl_dat(self.cells, 3, np.float64, None, "electric_field")
        self.xform = decl_dat(self.cells, 12, np.float64, gmesh.xforms[cg],
                              "cell_xform")
        self.gradm = decl_dat(self.cells, 12, np.float64,
                              gmesh.grads.reshape(-1, 12)[cg], "shape_deriv")
        self.cvol = decl_dat(self.cells, 1, np.float64, gmesh.volumes[cg],
                             "cell_volume")

        self.phi = decl_dat(self.nodes, 1, np.float64, None, "node_potential")
        self.nw = decl_dat(self.nodes, 1, np.float64, None, "node_charge")
        self.ncd = decl_dat(self.nodes, 1, np.float64, None, "charge_density")
        self.nvol = decl_dat(self.nodes, 1, np.float64, nvol_global[ng],
                             "node_volume")

        self.pos = decl_dat(self.parts, 3, np.float64, None, "position")
        self.vel = decl_dat(self.parts, 3, np.float64, None, "velocity")
        self.lc = decl_dat(self.parts, 4, np.float64, None, "weights")
        self.energy = decl_global(1, np.float64, name="field_energy")

        # injection: inlet faces whose owning cell is owned by this rank
        faces = gmesh.tags["inlet_faces"]
        g2l = np.full(gmesh.n_cells, -1, dtype=np.int64)
        g2l[cg] = np.arange(cg.size)
        owned = np.flatnonzero(
            (g2l[faces[:, 0]] >= 0)
            & (g2l[faces[:, 0]] < rank_mesh.n_owned_cells))
        self.inlet = inlet_table(gmesh.points, faces[owned, 2:],
                                 g2l[faces[owned, 0]],
                                 gmesh.tags["extent"][2])


class DistributedFemPic:
    """N-rank Mini-FEM-PIC with halo exchange and particle migration.

    ``comm`` selects the rank transport: ``None`` builds the in-process
    :class:`SimComm` (one program drives all ranks); an SPMD transport
    (``repro.dist.proc.ProcTransport``) makes this instance host exactly
    one rank — the global mesh, partition and halo plan are rebuilt
    deterministically in every rank process, but per-rank sets/dats exist
    only for the resident rank, and every loop below is locality-guarded.
    """

    def __init__(self, config: Optional[FemPicConfig] = None,
                 nranks: int = 2,
                 partition_method: str = "principal_direction",
                 ranks_per_node: Optional[int] = None,
                 comm=None):
        self.cfg = cfg = config or FemPicConfig()
        self.comm = comm if comm is not None else SimComm(nranks)
        nranks = self.comm.nranks
        #: traffic of the gathered field solve (the PETSc stand-in) is
        #: accounted separately from PIC halo/migration traffic
        self.solve_stats = CommStats(nranks)
        self.gmesh = duct_mesh(cfg.nx, cfg.ny, cfg.nz, cfg.lx, cfg.ly,
                               cfg.lz)
        self.cell_owner = partition(partition_method, nranks,
                                    centroids=self.gmesh.centroids,
                                    c2c=self.gmesh.c2c, axis=2)
        self.meshes, self.plan = self._build_partition(self.cell_owner)
        self._ranks_per_node = ranks_per_node

        # constants are global (decl_const) — same values on every rank
        declare_fempic_constants(cfg)

        self.nvol_global = lumped_node_volumes(self.gmesh.points,
                                               self.gmesh.cell2node)
        self.ranks: List[Optional[_Rank]] = [
            _Rank(r, cfg, self.gmesh, self.nvol_global, self.meshes[r])
            if self.comm.is_local(r) else None
            for r in range(nranks)]
        self.rngs = [np.random.default_rng(cfg.seed + 1000 * r)
                     for r in range(nranks)]

        # global field solve operator (rank-0 KSP); only the rank that
        # runs the gathered Newton solve needs it
        self.K = None
        self.dirichlet = None
        self.newton = None
        self.phi_global = np.zeros(self.gmesh.n_nodes)
        if self.comm.is_local(0):
            self.K = build_stiffness(self.gmesh.points,
                                     self.gmesh.cell2node)
            dn = np.concatenate([self.gmesh.tags["inlet_nodes"],
                                 self.gmesh.tags["wall_nodes"]])
            dv = np.concatenate([
                np.full(len(self.gmesh.tags["inlet_nodes"]),
                        cfg.inlet_potential),
                np.full(len(self.gmesh.tags["wall_nodes"]),
                        cfg.wall_potential)])
            order = np.argsort(dn)
            self.dirichlet = DirichletSystem(self.K, dn[order], dv[order])
            self.newton = NewtonSystem(self.dirichlet.k_ff,
                                       rtol=cfg.ksp_rtol)
            self.phi_global[self.dirichlet.dirichlet_nodes] = \
                self.dirichlet.dirichlet_values
        self._scatter_phi()

        self.dh_mover = None
        self._overlay_base = None
        if cfg.move_strategy == "dh":
            self._overlay_base = StructuredOverlay.build(self.gmesh,
                                                         cfg.overlay_bins)
            self._build_mover()

        self._inject_carry = [0.0] * nranks
        self.history = {"n_particles": [], "field_energy": [],
                        "removed": []}

    # -- helpers -------------------------------------------------------------------

    @property
    def nranks(self) -> int:
        return self.comm.nranks

    def _local(self):
        """(rank, declarations) pairs resident in this process."""
        return [(r, rk) for r, rk in enumerate(self.ranks)
                if rk is not None]

    def _scatter_phi(self) -> None:
        """Rank 0 broadcasts each rank's owned potentials; ghosts follow
        via the node-halo push."""
        old = self.comm.swap_stats(self.solve_stats)
        try:
            self._scatter_phi_body()
        finally:
            self.comm.swap_stats(old)

    def _scatter_phi_body(self) -> None:
        comm = self.comm
        for r in range(self.nranks):
            rm = self.meshes[r]
            owned = rm.nodes_global[: rm.n_owned_nodes]
            if r == 0:
                if comm.is_local(0):
                    self.ranks[0].phi.data[: rm.n_owned_nodes] = \
                        self.phi_global[owned].reshape(-1, 1)
                continue
            if comm.is_local(0):
                comm.send(0, r, self.phi_global[owned].reshape(-1, 1),
                          tag=40)
            if comm.is_local(r):
                self.ranks[r].phi.data[: rm.n_owned_nodes] = \
                    comm.recv(r, 0, tag=40)
        push_node_halos([rk.phi if rk else None for rk in self.ranks],
                        self.plan, comm)

    def _gather_node_charge(self) -> np.ndarray:
        old = self.comm.swap_stats(self.solve_stats)
        try:
            return self._gather_node_charge_body()
        finally:
            self.comm.swap_stats(old)

    def _gather_node_charge_body(self) -> np.ndarray:
        comm = self.comm
        w = np.zeros(self.gmesh.n_nodes)
        for r in range(self.nranks):
            rm = self.meshes[r]
            owned = rm.nodes_global[: rm.n_owned_nodes]
            if r == 0:
                if comm.is_local(0):
                    w[owned] = self.ranks[0].nw.data[: rm.n_owned_nodes, 0]
                continue
            if comm.is_local(r):
                comm.send(r, 0,
                          self.ranks[r].nw.data[: rm.n_owned_nodes, 0],
                          tag=41)
            if comm.is_local(0):
                w[owned] = comm.recv(0, r, tag=41)
        return w

    def seed_uniform_plasma(self, ppc: int) -> int:
        """Pre-fill every rank's owned cells with ``ppc`` ions (see the
        single-node method); used by the weak-scaling benchmarks.

        The barycentric draws come from a dedicated RNG in *global* cell
        order, so the seeded plasma is the same physical particle set at
        every rank count — N-rank runs are directly comparable to the
        1-rank reference."""
        total = self.gmesh.n_cells * ppc
        lam_global = np.random.default_rng(self.cfg.seed).dirichlet(
            np.ones(4), size=total).reshape(self.gmesh.n_cells, ppc, 4)
        for r, rk in self._local():
            owned = rk.rm.cells_global[: rk.rm.n_owned_cells]
            n = owned.size * ppc
            cells_local = np.repeat(np.arange(owned.size), ppc)
            lam = lam_global[owned].reshape(n, 4)
            verts = self.gmesh.points[self.gmesh.cell2node[owned]]
            verts = np.repeat(verts, ppc, axis=0)
            pos = np.einsum("ni,nid->nd", lam, verts)
            sl = rk.parts.add_particles(n, cell_indices=cells_local)
            rk.pos.data[sl] = pos
            rk.vel.data[sl] = [0.0, 0.0, self.cfg.injection_velocity]
            rk.lc.data[sl] = lam
            rk.parts.end_injection()
        return total

    # -- step phases ---------------------------------------------------------------

    def inject(self) -> None:
        total_area = self.cfg.inlet_area
        for r, rk in self._local():
            if rk.inlet.cdf.size == 0:
                rk.parts.begin_injection()
                rk.parts.end_injection()
                continue
            want = self.cfg.injection_rate * (rk.inlet.area / total_area) \
                + self._inject_carry[r]
            count = int(want)
            self._inject_carry[r] = want - count
            rk.parts.begin_injection()
            if count:
                # sample on this rank's own faces
                pos, cells_local = sample_inlet_positions(
                    rk.inlet, count, self.rngs[r])
                sl = rk.parts.add_particles(count, cell_indices=cells_local)
                rk.pos.data[sl] = pos
                with push_context(rk.ctx):
                    par_loop(k.init_injected_kernel, "InjectIons", rk.parts,
                             OPP_ITERATE_INJECTED,
                             arg_dat(rk.vel, OPP_WRITE),
                             arg_dat(rk.lc, OPP_WRITE))
            rk.parts.end_injection()

    def calc_pos_vel(self) -> None:
        for _r, rk in self._local():
            with push_context(rk.ctx):
                par_loop(k.calc_pos_vel_kernel, "CalcPosVel", rk.parts,
                         OPP_ITERATE_ALL,
                         arg_dat(rk.ef, rk.p2c, OPP_READ),
                         arg_dat(rk.pos, OPP_RW),
                         arg_dat(rk.vel, OPP_RW))

    def move(self) -> int:
        if self.dh_mover is not None:
            self.dh_mover.global_move(
                [rk.parts if rk else None for rk in self.ranks],
                [rk.pos if rk else None for rk in self.ranks],
                [rk.p2c if rk else None for rk in self.ranks],
                [[rk.pos, rk.vel, rk.lc] if rk else None
                 for rk in self.ranks])
        results = mpi_particle_move(
            self.comm, self.plan, self.meshes,
            [rk.ctx if rk else None for rk in self.ranks],
            k.move_kernel, "Move",
            [rk.parts if rk else None for rk in self.ranks],
            [rk.c2c if rk else None for rk in self.ranks],
            [rk.p2c if rk else None for rk in self.ranks],
            [[arg_dat(rk.pos, OPP_READ),
              arg_dat(rk.lc, OPP_WRITE),
              arg_dat(rk.xform, rk.p2c, OPP_READ)] if rk else None
             for rk in self.ranks],
            [[rk.pos, rk.vel, rk.lc] if rk else None for rk in self.ranks])
        return int(self.comm.allreduce(
            [0 if res is None else res.n_removed for res in results],
            "sum"))

    def deposit(self) -> None:
        for _r, rk in self._local():
            with push_context(rk.ctx):
                rk.nw.data[:] = 0.0
                par_loop(k.deposit_charge_kernel, "DepositCharge", rk.parts,
                         OPP_ITERATE_ALL,
                         arg_dat(rk.lc, OPP_READ),
                         arg_dat(rk.nw, 0, rk.c2n, rk.p2c, OPP_INC),
                         arg_dat(rk.nw, 1, rk.c2n, rk.p2c, OPP_INC),
                         arg_dat(rk.nw, 2, rk.c2n, rk.p2c, OPP_INC),
                         arg_dat(rk.nw, 3, rk.c2n, rk.p2c, OPP_INC))
        reduce_node_halos([rk.nw if rk else None for rk in self.ranks],
                          self.plan, self.comm)
        for _r, rk in self._local():
            with push_context(rk.ctx):
                par_loop(k.compute_node_charge_density_kernel,
                         "ComputeNodeChargeDensity", rk.nodes,
                         OPP_ITERATE_ALL,
                         arg_dat(rk.ncd, OPP_WRITE),
                         arg_dat(rk.nw, OPP_READ),
                         arg_dat(rk.nvol, OPP_READ))

    def field_solve(self) -> None:
        """Gathered Newton/KSP on rank 0 (the PETSc stand-in)."""
        w = self._gather_node_charge()
        if self.comm.is_local(0):
            cfg = self.cfg
            t0 = time.perf_counter()
            nvol = self.nvol_global
            phi = self.phi_global
            free = self.dirichlet.free
            matvecs = 0
            for _ in range(cfg.newton_iters):
                boltz = cfg.n0 * np.exp((phi - cfg.phi0) / cfg.kTe) \
                    / cfg.eps0
                f1 = self.K @ phi - (w * cfg.spwt * cfg.ion_charge
                                     / cfg.eps0 - nvol * boltz)
                jdiag = nvol * boltz / cfg.kTe
                result = self.newton.solve(jdiag[free], -f1[free])
                phi[free] += result.x
                matvecs += max(result.iterations, 1)
            dt = time.perf_counter() - t0
            nnz = self.newton.a.nnz
            self.ranks[0].ctx.perf.record_loop(
                "Solve", n=free.size, seconds=dt,
                flops=2.0 * nnz * matvecs, nbytes=12.0 * nnz * matvecs,
                indirect_inc=False)
        self._scatter_phi()

    def compute_electric_field(self) -> None:
        for _r, rk in self._local():
            with push_context(rk.ctx):
                par_loop(k.compute_electric_field_kernel,
                         "ComputeElectricField", rk.cells, OPP_ITERATE_ALL,
                         arg_dat(rk.ef, OPP_WRITE),
                         arg_dat(rk.gradm, OPP_READ),
                         arg_dat(rk.phi, 0, rk.c2n, OPP_READ),
                         arg_dat(rk.phi, 1, rk.c2n, OPP_READ),
                         arg_dat(rk.phi, 2, rk.c2n, OPP_READ),
                         arg_dat(rk.phi, 3, rk.c2n, OPP_READ))
        # halo cells also need fields for particles paused there pre-move;
        # push owner values to ghost cells
        from repro.runtime import push_cell_halos
        push_cell_halos([rk.ef if rk else None for rk in self.ranks],
                        self.plan, self.comm)

    def field_energy(self) -> float:
        vals = []
        for rk in self.ranks:
            if rk is None:
                vals.append(np.zeros(1))
                continue
            rk.energy.data[0] = 0.0
            with push_context(rk.ctx):
                par_loop(k.field_energy_kernel, "FieldEnergy", rk.cells,
                         OPP_ITERATE_ALL,
                         arg_dat(rk.ef, OPP_READ),
                         arg_dat(rk.cvol, OPP_READ),
                         arg_gbl(rk.energy, OPP_INC))
            vals.append(rk.energy.data.copy())
        return float(self.comm.allreduce(vals, "sum")[0]) * self.cfg.eps0

    # -- main loop -----------------------------------------------------------------

    def step(self) -> None:
        self.inject()
        self.calc_pos_vel()
        removed = self.move()
        self.deposit()
        self.field_solve()
        self.compute_electric_field()
        energy = self.field_energy()
        self.history["n_particles"].append(int(self.comm.allreduce(
            [rk.parts.size if rk else 0 for rk in self.ranks], "sum")))
        self.history["field_energy"].append(energy)
        self.history["removed"].append(removed)

    def run(self, n_steps: Optional[int] = None) -> dict:
        for _ in range(n_steps if n_steps is not None else self.cfg.n_steps):
            self.step()
        return self.history

    # -- perf ----------------------------------------------------------------------

    def busy_seconds_per_rank(self) -> List[float]:
        return [rk.ctx.perf.total_seconds if rk else 0.0
                for rk in self.ranks]

    # -- elastic-runtime hooks (see repro.elastic.migrate) -------------------------

    def _build_mover(self) -> None:
        overlay = self._overlay_base.with_rank_map(self.cell_owner)
        self.dh_mover = DirectHopGlobalMover(
            overlay, self.comm, self.plan, self.meshes,
            ranks_per_node=self._ranks_per_node)

    def _build_partition(self, new_owner, nranks: Optional[int] = None):
        return build_rank_meshes(self.gmesh.c2c, new_owner,
                                 nranks if nranks is not None
                                 else self.nranks,
                                 c2n=self.gmesh.cell2node)

    def _rebuild_rank(self, r: int, rank_mesh, old_rank: _Rank) -> _Rank:
        return _Rank(r, self.cfg, self.gmesh, self.nvol_global, rank_mesh,
                     ctx=old_rank.ctx)

    def _migration_spec(self) -> dict:
        # ef is the only mesh dat read before being recomputed each step;
        # phi/nw/ncd travel too so snapshots between steps stay coherent
        return {"cell": ("ef",), "node": ("phi", "nw", "ncd"),
                "part": ("pos", "vel", "lc"),
                "c2n": self.gmesh.cell2node}

    def _post_rebalance(self) -> None:
        if self.dh_mover is not None:
            self._build_mover()

    def _elastic_partition(self, weights) -> np.ndarray:
        """Weighted slab repartition that can only shift layer
        boundaries: the duct's z layers are the atomic unit, so the
        inlet layer (all injection faces) never splits off rank 0 and
        the injection stream stays bit-identical across rebalances."""
        from repro.runtime import diffusive
        dz = self.cfg.lz / self.cfg.nz
        keys = np.clip(np.floor(self.gmesh.centroids[:, 2] / dz),
                       0, self.cfg.nz - 1).astype(np.int64)
        return diffusive(self.gmesh.centroids, self.nranks,
                         weights=weights, axis=2, keys=keys)

    def _snapshot_extras(self, r: int) -> dict:
        import pickle
        extras = {"rng": np.frombuffer(
            pickle.dumps(self.rngs[r].bit_generator.state),
            dtype=np.uint8),
            "carry": np.array([self._inject_carry[r]])}
        if r == 0:
            # rank 0's persistent Newton initial guess
            extras["phi_global"] = self.phi_global.copy()
        return extras

    def _restore_extras(self, r: int, extras: dict) -> None:
        import pickle
        self.rngs[r].bit_generator.state = pickle.loads(
            extras["rng"].tobytes())
        self._inject_carry[r] = float(extras["carry"][0])
        if "phi_global" in extras:
            self.phi_global[:] = extras["phi_global"]
