"""CabanaPIC configuration.

The reference app (ECP CoPA CabanaPIC) generates its mesh from
``nx, ny, nz`` at runtime and seeds a two-stream instability with
``ppc`` particles per cell; everything is in normalized units (c = 1,
eps0 = 1, electron charge -1, mass 1).  The paper benchmarks
``40×40×60 = 96k`` cells with 750/1500 particles per cell; defaults here
are laptop-scaled with the same structure.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["CabanaConfig"]


@dataclass
class CabanaConfig:
    nx: int = 8
    ny: int = 8
    nz: int = 12
    lx: float = 1.0
    ly: float = 1.0
    lz: float = 1.5
    ppc: int = 32               # particles per cell (paper: 750/1500/3000)

    qsp: float = -1.0           # species charge (electrons)
    msp: float = 1.0            # species mass
    v0: float = 0.0866025403784439  # two-stream drift speed (c/√133, ref app)
    perturbation: float = 0.1   # velocity perturbation amplitude
    mode: int = 1               # perturbed z mode number
    cfl: float = 0.5

    n_steps: int = 20
    pusher: str = "boris"       # or velocity_verlet / vay / higuera_cary
    backend: str = "vec"
    backend_options: dict = field(default_factory=dict)
    move_tolerance: float = 0.0
    #: "fuse" sends a halo push of several fields as one frame per
    #: neighbour pair (repro.program); "off" sends a frame per field
    program: str = "off"

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def n_particles(self) -> int:
        return self.n_cells * self.ppc

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @property
    def dz(self) -> float:
        return self.lz / self.nz

    @property
    def dt(self) -> float:
        d = min(self.dx, self.dy, self.dz)
        return self.cfl * d  # c = 1

    @property
    def weight(self) -> float:
        """Macro-particle weight for unit density per beam."""
        if self.ppc == 0:
            return 0.0  # field-only runs (vacuum FDTD checks)
        cell_vol = self.dx * self.dy * self.dz
        return cell_vol / self.ppc

    def scaled(self, **overrides) -> "CabanaConfig":
        return replace(self, **overrides)

    @classmethod
    def paper_single_node(cls, ppc: int = 750) -> "CabanaConfig":
        """Paper Figure 9(b): nx=40, ny=40, nz=60 → 96k cells,
        72M (750 ppc) or 144M (1500 ppc) particles."""
        return cls(nx=40, ny=40, nz=60, ppc=ppc)

    @classmethod
    def smoke(cls) -> "CabanaConfig":
        return cls(nx=4, ny=4, nz=8, ppc=8, n_steps=8)
