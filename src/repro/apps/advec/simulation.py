"""Advection mini-app, written once for 1..N ranks.

:class:`AdvecSimulation` is the one-rank case; at N ranks
(:class:`DistributedAdvec`) the periodic mesh is cut into y slabs and
tracers migrate between them during the move — the smallest end-to-end
exercise of partitioning, halo construction and particle migration.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.api import (OPP_READ, OPP_RW, arg_dat, decl_const,
                            decl_dat, decl_map, decl_particle_set,
                            decl_set)
from repro.mesh import HexMesh
from repro.runtime.comm import SimComm
from repro.runtime.objcache import get_or_build
from repro.runtime.ranked import Rank, RankedApp

from .config import AdvecConfig
from .kernels import advect_move_kernel

__all__ = ["AdvecSimulation", "DistributedAdvec", "cell_velocity_field"]


def cell_velocity_field(cfg: AdvecConfig, centroids2d: np.ndarray,
                        ) -> np.ndarray:
    """Prescribed velocity per cell centre."""
    if cfg.flow == "uniform":
        return np.broadcast_to([cfg.vx0, cfg.vy0],
                               (len(centroids2d), 2)).copy()
    if cfg.flow == "rotation":
        centre = np.array([cfg.lx / 2.0, cfg.ly / 2.0])
        r = centroids2d - centre
        return cfg.omega * np.stack([-r[:, 1], r[:, 0]], axis=1)
    raise ValueError(f"unknown flow {cfg.flow!r} "
                     "(use 'uniform' or 'rotation')")


class AdvecSimulation(RankedApp):
    """Advection over a periodic quad mesh; this class fixes the rank
    count at one."""

    part_dats = ("pos", "disp", "pushed")

    def __init__(self, config: Optional[AdvecConfig] = None):
        self._build(config or AdvecConfig(), SimComm(1))

    def _build(self, cfg: AdvecConfig, comm) -> None:
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        # a one-layer brick gives the periodic 2-D quad connectivity
        mesh_key = ("advec_brick", cfg.nx, cfg.ny, cfg.lx, cfg.ly)
        mesh = self.mesh = get_or_build(
            mesh_key, lambda: HexMesh(cfg.nx, cfg.ny, 1, cfg.lx, cfg.ly,
                                      1.0))
        self._cvel = cell_velocity_field(cfg, mesh.centroids[:, :2])
        decl_const("adv_dtx", 2.0 * cfg.dt / cfg.dx)
        decl_const("adv_dty", 2.0 * cfg.dt / cfg.dy)
        # 2-D faces: -x +x -y +y (columns 0..3 of the brick's face map)
        self._partition(comm, "principal_direction", mesh_key,
                        centroids=mesh.centroids, c2c=mesh.face_c2c[:, :4],
                        axis=1, layers=(cfg.ly, cfg.ny))
        self._seed()
        self.step_count = 0
        self.history = {"mean_disp": [], "hops": [], "n_particles": []}

    def _declare(self, rk: Rank) -> None:
        rm = rk.rm
        rk.cells = decl_set(rm.n_local_cells, "cells")
        rk.cells.owned_size = rm.n_owned_cells
        rk.parts = decl_particle_set(rk.cells, 0, "tracers")
        rk.faces = decl_map(rk.cells, rk.cells, 4, rm.local_c2c, "faces2d")
        rk.p2c = decl_map(rk.parts, rk.cells, 1, None, "p2c")
        rk.cvel = decl_dat(rk.cells, 2, np.float64,
                           self._cvel[rm.cells_global], "cell_velocity")
        rk.pos = decl_dat(rk.parts, 2, np.float64, None, "offsets")
        rk.disp = decl_dat(rk.parts, 2, np.float64, None, "displacement")
        rk.pushed = decl_dat(rk.parts, 1, np.float64, None, "push_flag")
        rk.streams["rng"] = self.rng

    def _seed(self) -> None:
        """Deterministic uniform placement, each tracer on the rank that
        owns its cell."""
        cfg = self.cfg
        cells = np.repeat(np.arange(cfg.n_cells, dtype=np.int64), cfg.ppc)
        offsets = self.rng.uniform(-1.0, 1.0, size=(cfg.n_particles, 2))
        owner = self.cell_owner[cells]
        for rk in self.each_rank():
            g2l = np.full(cfg.n_cells, -1, dtype=np.int64)
            g2l[rk.rm.cells_global] = np.arange(rk.rm.cells_global.size)
            mine = np.flatnonzero(owner == rk.r)
            sl = rk.parts.add_particles(mine.size,
                                        cell_indices=g2l[cells[mine]])
            rk.pos.data[sl] = offsets[mine]
            rk.parts.end_injection()

    def total_particles(self) -> int:
        """Tracers resident in this process."""
        return sum(rk.parts.size for _r, rk in self._local())

    def positions_xy(self) -> np.ndarray:
        """Global (x, y) coordinates of every resident tracer, rank by
        rank."""
        cfg = self.cfg
        xy = []
        for _r, rk in self._local():
            n = rk.parts.size
            c = rk.rm.cells_global[rk.p2c.p2c[:n]]
            i = c % cfg.nx
            j = (c // cfg.nx) % cfg.ny
            x = (i + 0.5 * (rk.pos.data[:n, 0] + 1.0)) * cfg.dx
            y = (j + 0.5 * (rk.pos.data[:n, 1] + 1.0)) * cfg.dy
            xy.append(np.stack([x, y], axis=1))
        return np.concatenate(xy)

    def step(self) -> None:
        for rk in self.each_rank():
            rk.pushed.data[:] = 0.0
        moved = self.move_particles(
            advect_move_kernel, "Advect", "faces",
            lambda rk: (arg_dat(rk.pos, OPP_RW),
                        arg_dat(rk.disp, OPP_RW),
                        arg_dat(rk.pushed, OPP_RW),
                        arg_dat(rk.cvel, rk.p2c, OPP_READ)))
        # Σ|disp| / (2n) over one rank is exactly np.mean of |disp|
        (abs_disp, hops, n), _ = self.diagnostics(
            lambda rk: (np.abs(rk.disp.data[: rk.parts.size]).sum(),
                        moved[rk.r].total_hops, rk.parts.size))
        self.history["mean_disp"].append(float(abs_disp / (2 * n)))
        self.history["hops"].append(int(hops))
        self.history["n_particles"].append(int(n))
        self.step_count += 1


class DistributedAdvec(AdvecSimulation):
    """N-rank advection.  ``comm`` selects the rank transport (see
    :class:`~repro.apps.fempic.distributed.DistributedFemPic`)."""

    def __init__(self, config: Optional[AdvecConfig] = None,
                 nranks: int = 2, comm=None):
        self._build(config or AdvecConfig(),
                    comm if comm is not None else SimComm(nranks))
