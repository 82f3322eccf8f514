"""Mini-FEM-PIC configuration.

The reference mini-app is driven by a key=value config file plus a mesh
file; parameters here mirror those (duct geometry, plasma density, macro
particle weight, injection velocity) in normalized units (qe = mi = eps0
= 1), scaled to laptop sizes.  ``FemPicConfig.paper_single_node`` documents
the paper's actual 48k-cell / ~70M-particle configuration for reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

__all__ = ["FemPicConfig"]


@dataclass
class FemPicConfig:
    #: optional mesh file (.dat / .npz); overrides the generator below
    mesh_file: str = ""
    # duct mesh: 6*nx*ny*nz tetrahedra
    nx: int = 4
    ny: int = 4
    nz: int = 12
    lx: float = 1.0
    ly: float = 1.0
    lz: float = 4.0

    # plasma / numerics (normalized units)
    plasma_den: float = 1.0e4       # ions per unit volume (physical)
    spwt: float = 20.0              # macro-particle weight
    ion_charge: float = 1.0
    ion_mass: float = 1.0
    eps0: float = 1.0
    kTe: float = 1.0                # electron temperature (Boltzmann e-)
    n0: float = 1.0e4               # reference electron density
    phi0: float = 0.0               # reference potential
    wall_potential: float = 2.0     # confining wall bias
    inlet_potential: float = 0.0
    injection_velocity: float = 1.0  # axial (z) injection drift speed
    #: thermal spread of injected ions (0 = cold one-stream, the paper's
    #: setup; > 0 samples a drifting Maxwellian at the inlet)
    injection_temperature: float = 0.0
    dt: float = 0.05
    newton_iters: int = 2
    ksp_rtol: float = 1e-8

    #: ion-neutral collision frequency (0 disables the MCC routine)
    collision_frequency: float = 0.0
    n_steps: int = 25
    seed: int = 7
    backend: str = "vec"
    backend_options: dict = field(default_factory=dict)
    move_strategy: str = "mh"       # "mh" | "dh"
    overlay_bins: int = 16          # DH overlay resolution per axis
    move_tolerance: float = 1e-12
    #: "fuse" sends a halo push of several fields as one frame per
    #: neighbour pair (repro.program); "off" sends a frame per field
    program: str = "off"

    def __post_init__(self) -> None:
        # a field solve that cannot run (or runs without end) is refused
        # here, where a service submission still turns it into an error
        if not 1 <= self.newton_iters <= 100:
            raise ValueError(f"newton_iters must be in [1, 100], got "
                             f"{self.newton_iters}")
        if not 0.0 < self.ksp_rtol < 1.0:
            raise ValueError(f"ksp_rtol must be finite and in (0, 1), got "
                             f"{self.ksp_rtol}")
        for name in ("kTe", "eps0"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {value}")

    @property
    def n_cells(self) -> int:
        return 6 * self.nx * self.ny * self.nz

    @property
    def inlet_area(self) -> float:
        return self.lx * self.ly

    @property
    def injection_rate(self) -> float:
        """Macro-particles injected per step (paper: constant-rate
        one-stream injection from the inlet faces)."""
        physical = self.plasma_den * self.inlet_area \
            * self.injection_velocity * self.dt
        return physical / self.spwt

    def scaled(self, **overrides) -> "FemPicConfig":
        return replace(self, **overrides)

    @classmethod
    def paper_single_node(cls) -> "FemPicConfig":
        """The paper's Figure 9(a) configuration (48k cells, ~70M
        particles) — far beyond laptop scale; kept as documentation and
        used by the machine-model extrapolations."""
        return cls(nx=20, ny=20, nz=20, plasma_den=1.0e18, spwt=2e2,
                   n0=1.0e18)

    @classmethod
    def smoke(cls) -> "FemPicConfig":
        """Tiny config for fast unit tests."""
        return cls(nx=2, ny=2, nz=6, plasma_den=2.0e3, n0=2.0e3,
                   n_steps=5)
