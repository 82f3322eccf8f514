"""Distributed CabanaPIC over the simulated MPI runtime.

The periodic brick is partitioned into z slabs (the beams stream along
z); each rank holds its owned cells plus a one-deep halo of *stencil*
neighbours (the interpolator reads diagonal +1 neighbours, so the halo is
built from the arity-10 stencil map, not just the face map).  Ghost
refreshes of E and B, and the ghost→owner reduction of the current
accumulator, are grouped under the ``Update_Ghosts`` timer — the entry
that dominates the paper's multi-GPU breakdowns.
"""
from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from repro.core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_READ, OPP_RW,
                            OPP_WRITE, Context, arg_dat, arg_gbl, decl_dat,
                            decl_global, decl_map, decl_particle_set,
                            decl_set, par_loop, push_context)
from repro.mesh import STENCIL, HexMesh
from repro.runtime import (SimComm, build_rank_meshes, mpi_particle_move,
                           partition, push_cell_halos, reduce_cell_halos)

from . import kernels as k
from .config import CabanaConfig
from .init import declare_cabana_constants, two_stream_initial_state

__all__ = ["DistributedCabana"]

_S = STENCIL


class _Rank:
    def __init__(self, r: int, cfg: CabanaConfig, gmesh: HexMesh,
                 rank_mesh, face_local: np.ndarray,
                 ctx: Optional[Context] = None):
        # on a live rebalance the backend context is carried over
        self.ctx = ctx if ctx is not None \
            else Context(cfg.backend, **cfg.backend_options)
        self.rm = rank_mesh

        self.cells = decl_set(rank_mesh.n_local_cells, f"cells_r{r}")
        self.cells.owned_size = rank_mesh.n_owned_cells
        self.parts = decl_particle_set(self.cells, 0, f"electrons_r{r}")

        self.stencil = decl_map(self.cells, self.cells, 10,
                                rank_mesh.local_c2c, f"stencil_r{r}")
        self.faces = decl_map(self.cells, self.cells, 6, face_local,
                              f"faces_r{r}")
        self.p2c = decl_map(self.parts, self.cells, 1, None, f"p2c_r{r}")

        self.e = decl_dat(self.cells, 3, np.float64, None, "e_field")
        self.b = decl_dat(self.cells, 3, np.float64, None, "b_field")
        self.j = decl_dat(self.cells, 3, np.float64, None, "current")
        self.interp = decl_dat(self.cells, 18, np.float64, None,
                               "interpolator")
        self.acc = decl_dat(self.cells, 3, np.float64, None, "accumulator")

        self.pos = decl_dat(self.parts, 3, np.float64, None, "offsets")
        self.disp = decl_dat(self.parts, 3, np.float64, None,
                             "displacement")
        self.vel = decl_dat(self.parts, 3, np.float64, None, "velocity")
        self.w = decl_dat(self.parts, 1, np.float64, None, "weight")
        self.pushed = decl_dat(self.parts, 1, np.float64, None, "push_flag")
        self.e_energy = decl_global(1, np.float64, name="e_energy")
        self.b_energy = decl_global(1, np.float64, name="b_energy")

    @property
    def exchange_dats(self):
        return [self.pos, self.disp, self.vel, self.w, self.pushed]


class DistributedCabana:
    """N-rank CabanaPIC; the application step is unchanged except that
    halo refresh / reduction calls appear between loops.  ``comm``
    selects the rank transport (see :class:`DistributedFemPic`)."""

    def __init__(self, config: Optional[CabanaConfig] = None,
                 nranks: int = 2,
                 partition_method: str = "principal_direction",
                 comm=None):
        self.cfg = cfg = config or CabanaConfig()
        self.comm = comm if comm is not None else SimComm(nranks)
        nranks = self.comm.nranks
        self.gmesh = HexMesh(cfg.nx, cfg.ny, cfg.nz, cfg.lx, cfg.ly, cfg.lz)
        declare_cabana_constants(cfg)

        self.cell_owner = partition(partition_method, nranks,
                                    centroids=self.gmesh.centroids,
                                    c2c=self.gmesh.stencil_c2c, axis=2)
        # halo from the stencil map so diagonal reads are satisfied
        self.meshes, self.plan = self._build_partition(self.cell_owner)

        self.ranks: List[Optional[_Rank]] = [
            self._make_rank(r, self.meshes[r])
            if self.comm.is_local(r) else None
            for r in range(nranks)]

        self._initialize_particles()
        #: the Program accumulated by run() when cfg.program != "off"
        self.program = None
        self.history = {"e_energy": [], "b_energy": []}

    def _local(self):
        """(rank, declarations) pairs resident in this process."""
        return [(r, rk) for r, rk in enumerate(self.ranks)
                if rk is not None]

    def _initialize_particles(self) -> None:
        cells, offsets, vel = two_stream_initial_state(self.cfg)
        owner = self.cell_owner[cells]
        for r, rk in self._local():
            mine = np.flatnonzero(owner == r)
            g2l = np.full(self.gmesh.n_cells, -1, dtype=np.int64)
            g2l[rk.rm.cells_global] = np.arange(rk.rm.cells_global.size)
            sl = rk.parts.add_particles(mine.size,
                                        cell_indices=g2l[cells[mine]])
            rk.pos.data[sl] = offsets[mine]
            rk.vel.data[sl] = vel[mine]
            rk.w.data[sl] = self.cfg.weight
            rk.parts.end_injection()

    # -- halo bookkeeping ------------------------------------------------------------

    def _update_ghosts(self, dats_name: str) -> None:
        """Push one cell dat's owner values to ghosts, timed per rank as
        the paper's ``Update_Ghosts``."""
        t0 = time.perf_counter()
        push_cell_halos([getattr(rk, dats_name) if rk else None
                         for rk in self.ranks], self.plan, self.comm)
        dt = time.perf_counter() - t0
        local = self._local()
        for _r, rk in local:
            rk.ctx.perf.record_loop("Update_Ghosts", n=rk.rm.n_halo_cells,
                                    seconds=dt / len(local),
                                    flops=0.0,
                                    nbytes=rk.rm.n_halo_cells * 24.0,
                                    indirect_inc=False)

    # -- step ------------------------------------------------------------------------

    def step(self) -> None:
        cfg = self.cfg
        self._update_ghosts("e")
        self._update_ghosts("b")
        for _r, rk in self._local():
            with push_context(rk.ctx):
                par_loop(k.interpolate_kernel, "Interpolate", rk.cells,
                         OPP_ITERATE_ALL,
                         arg_dat(rk.interp, OPP_WRITE),
                         arg_dat(rk.e, OPP_READ),
                         arg_dat(rk.b, OPP_READ),
                         arg_dat(rk.e, _S["XP"], rk.stencil, OPP_READ),
                         arg_dat(rk.e, _S["YP"], rk.stencil, OPP_READ),
                         arg_dat(rk.e, _S["ZP"], rk.stencil, OPP_READ),
                         arg_dat(rk.e, _S["YPZP"], rk.stencil, OPP_READ),
                         arg_dat(rk.e, _S["XPZP"], rk.stencil, OPP_READ),
                         arg_dat(rk.e, _S["XPYP"], rk.stencil, OPP_READ),
                         arg_dat(rk.b, _S["XP"], rk.stencil, OPP_READ),
                         arg_dat(rk.b, _S["YP"], rk.stencil, OPP_READ),
                         arg_dat(rk.b, _S["ZP"], rk.stencil, OPP_READ))
            rk.pushed.data[:] = 0.0
            rk.acc.data[:] = 0.0

        mpi_particle_move(
            self.comm, self.plan, self.meshes,
            [rk.ctx if rk else None for rk in self.ranks],
            k.move_deposit_kernel, "Move_Deposit",
            [rk.parts if rk else None for rk in self.ranks],
            [rk.faces if rk else None for rk in self.ranks],
            [rk.p2c if rk else None for rk in self.ranks],
            [[arg_dat(rk.pos, OPP_RW),
              arg_dat(rk.disp, OPP_RW),
              arg_dat(rk.vel, OPP_RW),
              arg_dat(rk.w, OPP_READ),
              arg_dat(rk.pushed, OPP_RW),
              arg_dat(rk.interp, rk.p2c, OPP_READ),
              arg_dat(rk.acc, rk.p2c, OPP_INC)] if rk else None
             for rk in self.ranks],
            [rk.exchange_dats if rk else None for rk in self.ranks])

        t0 = time.perf_counter()
        reduce_cell_halos([rk.acc if rk else None for rk in self.ranks],
                          self.plan, self.comm)
        dt = time.perf_counter() - t0
        local = self._local()
        for _r, rk in local:
            rk.ctx.perf.record_loop("Update_Ghosts", n=rk.rm.n_halo_cells,
                                    seconds=dt / len(local),
                                    flops=0.0,
                                    nbytes=rk.rm.n_halo_cells * 24.0,
                                    indirect_inc=False)

        for _r, rk in self._local():
            with push_context(rk.ctx):
                par_loop(k.accumulate_current_kernel, "AccumulateCurrent",
                         rk.cells, OPP_ITERATE_ALL,
                         arg_dat(rk.j, OPP_WRITE),
                         arg_dat(rk.acc, OPP_RW))
                par_loop(k.advance_b_kernel, "AdvanceB", rk.cells,
                         OPP_ITERATE_ALL,
                         arg_dat(rk.b, OPP_RW),
                         arg_dat(rk.e, OPP_READ),
                         arg_dat(rk.e, _S["XP"], rk.stencil, OPP_READ),
                         arg_dat(rk.e, _S["YP"], rk.stencil, OPP_READ),
                         arg_dat(rk.e, _S["ZP"], rk.stencil, OPP_READ))
        self._update_ghosts("b")
        for _r, rk in self._local():
            with push_context(rk.ctx):
                par_loop(k.advance_e_kernel, "AdvanceE", rk.cells,
                         OPP_ITERATE_ALL,
                         arg_dat(rk.e, OPP_RW),
                         arg_dat(rk.b, OPP_READ),
                         arg_dat(rk.b, _S["XM"], rk.stencil, OPP_READ),
                         arg_dat(rk.b, _S["YM"], rk.stencil, OPP_READ),
                         arg_dat(rk.b, _S["ZM"], rk.stencil, OPP_READ),
                         arg_dat(rk.j, OPP_READ))
        self._update_ghosts("e")
        for _r, rk in self._local():
            with push_context(rk.ctx):
                par_loop(k.advance_b_kernel, "AdvanceB", rk.cells,
                         OPP_ITERATE_ALL,
                         arg_dat(rk.b, OPP_RW),
                         arg_dat(rk.e, OPP_READ),
                         arg_dat(rk.e, _S["XP"], rk.stencil, OPP_READ),
                         arg_dat(rk.e, _S["YP"], rk.stencil, OPP_READ),
                         arg_dat(rk.e, _S["ZP"], rk.stencil, OPP_READ))

        energies = []   # per rank [e, b]: one collective for both
        for rk in self.ranks:
            if rk is None:
                energies.append(np.zeros(2))
                continue
            rk.e_energy.data[0] = 0.0
            rk.b_energy.data[0] = 0.0
            with push_context(rk.ctx):
                par_loop(k.energy_kernel, "EnergyE", rk.cells,
                         OPP_ITERATE_ALL, arg_dat(rk.e, OPP_READ),
                         arg_gbl(rk.e_energy, OPP_INC))
                par_loop(k.energy_kernel, "EnergyB", rk.cells,
                         OPP_ITERATE_ALL, arg_dat(rk.b, OPP_READ),
                         arg_gbl(rk.b_energy, OPP_INC))
            energies.append(np.array([rk.e_energy.data[0],
                                      rk.b_energy.data[0]]))
        e_energy, b_energy = self.comm.allreduce(energies, "sum")
        self.history["e_energy"].append(float(e_energy))
        self.history["b_energy"].append(float(b_energy))

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

    def busy_seconds_per_rank(self) -> List[float]:
        return [rk.ctx.perf.total_seconds if rk else 0.0
                for rk in self.ranks]

    @property
    def nranks(self) -> int:
        return self.comm.nranks

    # -- elastic-runtime hooks (see repro.elastic.migrate) -----------------------

    def _make_rank(self, r: int, rm, ctx: Optional[Context] = None) -> _Rank:
        g2l = np.full(self.gmesh.n_cells, -1, dtype=np.int64)
        g2l[rm.cells_global] = np.arange(rm.cells_global.size)
        face_global = self.gmesh.face_c2c[rm.cells_global]
        face_local = np.where(face_global >= 0, g2l[face_global], -1)
        return _Rank(r, self.cfg, self.gmesh, rm, face_local, ctx=ctx)

    def _build_partition(self, new_owner, nranks: Optional[int] = None):
        return build_rank_meshes(self.gmesh.stencil_c2c, new_owner,
                                 nranks if nranks is not None
                                 else self.nranks)

    def _rebuild_rank(self, r: int, rank_mesh, old_rank: _Rank) -> _Rank:
        return self._make_rank(r, rank_mesh, ctx=old_rank.ctx)

    def _migration_spec(self) -> dict:
        # e and b integrate across steps; j/interp/acc are rebuilt from
        # scratch every step before being read
        return {"cell": ("e", "b"),
                "part": ("pos", "disp", "vel", "w", "pushed")}

    def _elastic_partition(self, weights) -> np.ndarray:
        from repro.runtime import diffusive
        dz = self.cfg.lz / self.cfg.nz
        keys = np.clip(np.floor(self.gmesh.centroids[:, 2] / dz),
                       0, self.cfg.nz - 1).astype(np.int64)
        return diffusive(self.gmesh.centroids, self.nranks,
                         weights=weights, axis=2, keys=keys)
