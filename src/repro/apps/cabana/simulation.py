"""CabanaPIC on the OP-PIC DSL, written once for 1..N ranks:
unstructured declaration of a structured periodic brick (paper §4: "we
implement the application with OP-PIC, using unstructured-mesh mappings,
solving the same physics as the original").

Step order follows the reference app's leapfrog:
Interpolate → Move_Deposit → AccumulateCurrent → AdvanceB(½) →
AdvanceE → AdvanceB(½), with per-iteration E/B field energies recorded
for the validation against :mod:`repro.apps.cabana.reference`.

:class:`CabanaSimulation` is the one-rank case; at N ranks
(:class:`~repro.apps.cabana.distributed.DistributedCabana`) the brick is
cut into z slabs (the beams stream along z) and each rank holds its
owned cells plus a one-deep halo of *stencil* neighbours — the
interpolator reads diagonal +1 neighbours, so the halo is built from the
arity-10 stencil map, not just the face map.  Ghost refreshes of E and B
and the ghost→owner reduction of the current accumulator are timed as
``Update_Ghosts``, the entry that dominates the paper's multi-GPU
breakdowns.
"""
from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_READ, OPP_RW,
                            OPP_WRITE, arg_dat, arg_gbl, decl_dat,
                            decl_global, decl_map, decl_particle_set,
                            decl_set, par_loop)
from repro.mesh import STENCIL, HexMesh
from repro.runtime.comm import SimComm
from repro.runtime.objcache import get_or_build
from repro.runtime.ranked import Rank, RankedApp

from . import kernels as k
from .config import CabanaConfig
from .init import declare_cabana_constants, two_stream_initial_state

__all__ = ["CabanaSimulation"]

_S = STENCIL


class CabanaSimulation(RankedApp):
    """CabanaPIC with the multi-hop (MH) move; this class fixes the rank
    count at one."""

    part_dats = ("pos", "disp", "vel", "w", "pushed")
    #: e and b integrate across steps; j/interp/acc are rebuilt from
    #: scratch every step before being read
    cell_dats = ("e", "b")
    halo_row = "Update_Ghosts"

    def __init__(self, config: Optional[CabanaConfig] = None):
        self._build(config or CabanaConfig(), SimComm(1),
                    "principal_direction")

    def _build(self, cfg: CabanaConfig, comm, partition_method: str) -> None:
        self.cfg = cfg
        if cfg.pusher != "boris" and cfg.pusher not in k.PUSHERS:
            raise ValueError(f"unknown pusher {cfg.pusher!r}; available: "
                             f"boris, {sorted(k.PUSHERS)}")
        mesh_key = ("cabana_brick", cfg.nx, cfg.ny, cfg.nz, cfg.lx, cfg.ly,
                    cfg.lz)
        self.mesh = self.gmesh = get_or_build(
            mesh_key, lambda: HexMesh(cfg.nx, cfg.ny, cfg.nz, cfg.lx,
                                      cfg.ly, cfg.lz))
        declare_cabana_constants(cfg)
        # halo from the stencil map so diagonal reads are satisfied
        self._partition(comm, partition_method, mesh_key,
                        centroids=self.mesh.centroids,
                        c2c=self.mesh.stencil_c2c, axis=2,
                        layers=(cfg.lz, cfg.nz))
        self._initialize_particles()
        self.step_count = 0
        self.history = {"e_energy": [], "b_energy": []}

    def _declare(self, rk: Rank) -> None:
        mesh, rm = self.mesh, rk.rm
        rk.cells = decl_set(rm.n_local_cells, "cells")
        rk.cells.owned_size = rm.n_owned_cells
        rk.parts = decl_particle_set(rk.cells, 0, "electrons")

        g2l = np.full(mesh.n_cells, -1, dtype=np.int64)
        g2l[rm.cells_global] = np.arange(rm.cells_global.size)
        faces = mesh.face_c2c[rm.cells_global]

        rk.stencil = decl_map(rk.cells, rk.cells, 10, rm.local_c2c,
                              "cell_stencil")
        rk.faces = decl_map(rk.cells, rk.cells, 6,
                            np.where(faces >= 0, g2l[faces], -1),
                            "cell_faces")
        rk.p2c = decl_map(rk.parts, rk.cells, 1, None, "particle_to_cell")

        rk.e = decl_dat(rk.cells, 3, np.float64, None, "e_field")
        rk.b = decl_dat(rk.cells, 3, np.float64, None, "b_field")
        rk.j = decl_dat(rk.cells, 3, np.float64, None, "current")
        rk.interp = decl_dat(rk.cells, 18, np.float64, None,
                             "interpolator")
        rk.acc = decl_dat(rk.cells, 3, np.float64, None, "accumulator")

        rk.pos = decl_dat(rk.parts, 3, np.float64, None, "offsets")
        rk.disp = decl_dat(rk.parts, 3, np.float64, None, "displacement")
        rk.vel = decl_dat(rk.parts, 3, np.float64, None, "velocity")
        rk.w = decl_dat(rk.parts, 1, np.float64, None, "weight")
        rk.pushed = decl_dat(rk.parts, 1, np.float64, None, "push_flag")

        rk.e_energy = decl_global(1, np.float64, name="e_energy")
        rk.b_energy = decl_global(1, np.float64, name="b_energy")

    def _initialize_particles(self) -> None:
        cells, offsets, vel = two_stream_initial_state(self.cfg)
        owner = self.cell_owner[cells]
        for rk in self.each_rank():
            mine = np.flatnonzero(owner == rk.r)
            g2l = np.full(self.mesh.n_cells, -1, dtype=np.int64)
            g2l[rk.rm.cells_global] = np.arange(rk.rm.cells_global.size)
            sl = rk.parts.add_particles(mine.size,
                                        cell_indices=g2l[cells[mine]])
            rk.pos.data[sl] = offsets[mine]
            rk.vel.data[sl] = vel[mine]
            rk.w.data[sl] = self.cfg.weight
            rk.parts.end_injection()

    # -- kernels -------------------------------------------------------------------

    def interpolate(self) -> None:
        for rk in self.each_rank():
            st = rk.stencil
            par_loop(k.interpolate_kernel, "Interpolate", rk.cells,
                     OPP_ITERATE_ALL,
                     arg_dat(rk.interp, OPP_WRITE),
                     arg_dat(rk.e, OPP_READ),
                     arg_dat(rk.b, OPP_READ),
                     arg_dat(rk.e, _S["XP"], st, OPP_READ),
                     arg_dat(rk.e, _S["YP"], st, OPP_READ),
                     arg_dat(rk.e, _S["ZP"], st, OPP_READ),
                     arg_dat(rk.e, _S["YPZP"], st, OPP_READ),
                     arg_dat(rk.e, _S["XPZP"], st, OPP_READ),
                     arg_dat(rk.e, _S["XPYP"], st, OPP_READ),
                     arg_dat(rk.b, _S["XP"], st, OPP_READ),
                     arg_dat(rk.b, _S["YP"], st, OPP_READ),
                     arg_dat(rk.b, _S["ZP"], st, OPP_READ))

    def push(self) -> None:
        """Run the configured alternative pusher (paper §2) as its own
        particle loop; the fused Move_Deposit then only walks/deposits
        (its Boris block is guarded by the ``pushed`` flag)."""
        for rk in self.each_rank():
            par_loop(k.PUSHERS[self.cfg.pusher], "PushParticles", rk.parts,
                     OPP_ITERATE_ALL,
                     arg_dat(rk.pos, OPP_READ),
                     arg_dat(rk.disp, OPP_WRITE),
                     arg_dat(rk.vel, OPP_RW),
                     arg_dat(rk.pushed, OPP_WRITE),
                     arg_dat(rk.interp, rk.p2c, OPP_READ))

    def move_deposit(self) -> list:
        for rk in self.each_rank():
            rk.pushed.data[:] = 0.0   # new step: every particle gets pushed
        if self.cfg.pusher != "boris":
            self.push()
        return self.move_particles(
            k.move_deposit_kernel, "Move_Deposit", "faces",
            lambda rk: (arg_dat(rk.pos, OPP_RW),
                        arg_dat(rk.disp, OPP_RW),
                        arg_dat(rk.vel, OPP_RW),
                        arg_dat(rk.w, OPP_READ),
                        arg_dat(rk.pushed, OPP_RW),
                        arg_dat(rk.interp, rk.p2c, OPP_READ),
                        arg_dat(rk.acc, rk.p2c, OPP_INC)))

    def accumulate_current(self) -> None:
        for rk in self.each_rank():
            par_loop(k.accumulate_current_kernel, "AccumulateCurrent",
                     rk.cells, OPP_ITERATE_ALL,
                     arg_dat(rk.j, OPP_WRITE),
                     arg_dat(rk.acc, OPP_RW))

    def advance_b(self) -> None:
        for rk in self.each_rank():
            st = rk.stencil
            par_loop(k.advance_b_kernel, "AdvanceB", rk.cells,
                     OPP_ITERATE_ALL,
                     arg_dat(rk.b, OPP_RW),
                     arg_dat(rk.e, OPP_READ),
                     arg_dat(rk.e, _S["XP"], st, OPP_READ),
                     arg_dat(rk.e, _S["YP"], st, OPP_READ),
                     arg_dat(rk.e, _S["ZP"], st, OPP_READ))

    def advance_e(self) -> None:
        for rk in self.each_rank():
            st = rk.stencil
            par_loop(k.advance_e_kernel, "AdvanceE", rk.cells,
                     OPP_ITERATE_ALL,
                     arg_dat(rk.e, OPP_RW),
                     arg_dat(rk.b, OPP_READ),
                     arg_dat(rk.b, _S["XM"], st, OPP_READ),
                     arg_dat(rk.b, _S["YM"], st, OPP_READ),
                     arg_dat(rk.b, _S["ZM"], st, OPP_READ),
                     arg_dat(rk.j, OPP_READ))

    def energies(self) -> List[Optional[Tuple[float, float]]]:
        """Each resident rank's share of the (E, B) field energies."""
        shares: List[Optional[Tuple[float, float]]] = [None] * self.nranks
        for rk in self.each_rank():
            rk.e_energy.data[0] = 0.0
            rk.b_energy.data[0] = 0.0
            par_loop(k.energy_kernel, "EnergyE", rk.cells, OPP_ITERATE_ALL,
                     arg_dat(rk.e, OPP_READ), arg_gbl(rk.e_energy, OPP_INC))
            par_loop(k.energy_kernel, "EnergyB", rk.cells, OPP_ITERATE_ALL,
                     arg_dat(rk.b, OPP_READ), arg_gbl(rk.b_energy, OPP_INC))
            shares[rk.r] = (float(rk.e_energy.value),
                            float(rk.b_energy.value))
        return shares

    # -- main loop -----------------------------------------------------------------

    def step(self) -> None:
        self.push_cells("e", "b")
        self.interpolate()
        self.move_deposit()
        # current deposited into halo cells a particle crossed before it
        # paused for migration belongs to their owners
        self.reduce_cells("acc")
        self.accumulate_current()
        self.advance_b()
        self.push_cells("b")
        self.advance_e()
        self.push_cells("e")
        self.advance_b()
        shares = self.energies()
        self.step_count += 1
        (ee, be), _ = self.diagnostics(lambda rk: shares[rk.r])
        self.history["e_energy"].append(float(ee))
        self.history["b_energy"].append(float(be))
