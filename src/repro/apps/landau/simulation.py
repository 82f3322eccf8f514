"""Periodic 1-D electrostatic PIC over one or more particle species.

The validation oracle app: every species is its *own* ``ParticleSet``
(with its own p2c map and state Dats) but all of them deposit into one
shared charge Dat and gather one shared field Dat — the multi-species
loop pattern the other apps never exercise.  The Poisson solve is
spectral (periodic FFT, k=0 neutralized), done host-side like the 2-D
sheet model's KSP solve; everything particle-shaped is DSL loops, so
the whole step sweeps any backend × strategy combination.

Initialisation is a deterministic *quiet start*: evenly spaced
positions displaced for the seeded density ripple, inverse-CDF
Maxwellian velocities ordered by a van-der-Corput sequence — no RNG at
all, so two runs (on any backends) start bit-identical.
"""
from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_READ, OPP_RW,
                            OPP_WRITE, Context, arg_dat, decl_const,
                            decl_dat, decl_map, decl_particle_set,
                            decl_set, par_loop, particle_move,
                            push_context)

from . import kernels as k
from .config import LandauConfig, SpeciesSpec

__all__ = ["ElectrostaticSimulation", "van_der_corput",
           "maxwellian_quantiles"]


def van_der_corput(n: int, base: int = 2) -> np.ndarray:
    """First ``n`` points of the van der Corput low-discrepancy
    sequence in (0, 1) — the quiet-start velocity ordering."""
    seq = np.zeros(n)
    denom = np.ones(n)
    rest = np.arange(1, n + 1)
    while rest.any():
        denom *= base
        rest, digit = np.divmod(rest, base)
        seq += digit / denom
    return seq


def maxwellian_quantiles(u: np.ndarray) -> np.ndarray:
    """Standard-normal inverse CDF at ``u`` (scipy when present, a
    dense-grid interpolant of ``math.erf`` otherwise)."""
    u = np.asarray(u, dtype=np.float64)
    try:
        from scipy.special import erfinv
        return math.sqrt(2.0) * erfinv(2.0 * u - 1.0)
    except ImportError:      # pragma: no cover - scipy present in CI
        grid = np.linspace(-8.0, 8.0, 40001)
        cdf = 0.5 * (1.0 + np.array([math.erf(g / math.sqrt(2.0))
                                     for g in grid]))
        return np.interp(u, cdf, grid)


class _Species:
    """Runtime state of one species: its particle set and Dats."""

    __slots__ = ("spec", "pset", "p2c", "pos", "vel", "qm", "qw",
                 "weight")

    def __init__(self, spec: SpeciesSpec, cells, cfg: LandauConfig):
        self.spec = spec
        n = cfg.nz * spec.ppc
        #: macro-particle weight: physical particles per macro
        self.weight = spec.density * cfg.lz / n
        self.pset = decl_particle_set(cells, 0, spec.name)
        self.p2c = decl_map(self.pset, cells, 1, None,
                            f"{spec.name}_p2c")
        self.pos = decl_dat(self.pset, 1, np.float64, None,
                            f"{spec.name}_pos")
        self.vel = decl_dat(self.pset, 1, np.float64, None,
                            f"{spec.name}_vel")
        self.qm = decl_dat(self.pset, 1, np.float64, None,
                           f"{spec.name}_qm")
        self.qw = decl_dat(self.pset, 1, np.float64, None,
                           f"{spec.name}_qw")


class ElectrostaticSimulation:
    """1-D periodic electrostatic PIC (Landau / two-stream /
    multi-species oracle)."""

    def __init__(self, config: Optional[LandauConfig] = None):
        self.cfg = cfg = config or LandauConfig()
        self.ctx = Context(cfg.backend, **cfg.backend_options)
        nz = cfg.nz

        decl_const("es_dx", cfg.dx)
        decl_const("es_inv_dx", 1.0 / cfg.dx)
        decl_const("es_dt", cfg.dt)
        decl_const("es_lz", cfg.lz)

        self.cells = decl_set(nz, "es_cells")
        idx = np.arange(nz, dtype=np.int64)
        #: CIC pair of cell j: grid points j and j+1 (periodic)
        self.grid2 = decl_map(self.cells, self.cells, 2,
                              np.stack([idx, (idx + 1) % nz], axis=1),
                              "es_grid2")
        #: chain neighbours of cell j (periodic walk map)
        self.c2c = decl_map(self.cells, self.cells, 2,
                            np.stack([(idx - 1) % nz, (idx + 1) % nz],
                                     axis=1), "es_c2c")
        self.x0 = decl_dat(self.cells, 1, np.float64, idx * cfg.dx,
                           "es_x0")
        #: shared across every species: deposited charge, solved field
        self.rho = decl_dat(self.cells, 1, np.float64, None, "es_rho")
        self.ef = decl_dat(self.cells, 1, np.float64, None, "es_efield")

        self.species: List[_Species] = [_Species(s, self.cells, cfg)
                                        for s in cfg.species]
        # a one-rank app, its own rank record: what its snapshots cover
        self.ranks = [self]
        self.sets = (self.cells,) + tuple(sp.pset for sp in self.species)
        self.streams = {}
        for sp in self.species:
            self._quiet_start(sp)
        self._half_step_back()

        self.step_count = 0
        self.history: Dict[str, list] = {
            "field_energy": [], "mode_energy": [], "kinetic_energy": [],
            "total_energy": [], "momentum": [], "charge": [],
            "n_particles": []}

    # -- initialisation ------------------------------------------------------

    def _quiet_start(self, sp: _Species) -> None:
        cfg = self.cfg
        spec = sp.spec
        n = cfg.nz * spec.ppc
        x = (np.arange(n) + 0.5) * (cfg.lz / n)
        if spec.perturbation:
            # displacement Δx = −(α/k)·sin(kx) gives, to O(α²), the
            # density ripple n(x) = n₀·(1 + α·cos(kx))
            km = cfg.k1 * spec.mode
            x = x - (spec.perturbation / km) * np.sin(km * x)
        x = np.mod(x, cfg.lz)
        v = np.full(n, spec.drift)
        if spec.vth:
            u = (van_der_corput(n) + 0.5 / n).clip(1e-12, 1 - 1e-12)
            v = v + spec.vth * maxwellian_quantiles(u)
        cells = np.minimum((x / cfg.dx).astype(np.int64), cfg.nz - 1)
        sl = sp.pset.add_particles(n, cell_indices=cells)
        sp.pos.data[sl, 0] = x
        sp.vel.data[sl, 0] = v
        sp.qm.data[sl, 0] = spec.charge / spec.mass
        sp.qw.data[sl, 0] = spec.charge * sp.weight
        sp.pset.end_injection()

    def _half_step_back(self) -> None:
        """Stagger the leapfrog: shift velocities to t = −dt/2 using the
        initial field (computed host-side so every backend starts from
        bit-identical state)."""
        cfg = self.cfg
        rho = np.zeros(cfg.nz)
        for sp in self.species:
            n = sp.pset.size
            x = sp.pos.data[:n, 0]
            j = np.minimum((x / cfg.dx).astype(np.int64), cfg.nz - 1)
            f = x / cfg.dx - j
            np.add.at(rho, j, sp.qw.data[:n, 0] * (1.0 - f))
            np.add.at(rho, (j + 1) % cfg.nz, sp.qw.data[:n, 0] * f)
        e = self._solve_field(rho)
        for sp in self.species:
            n = sp.pset.size
            x = sp.pos.data[:n, 0]
            j = np.minimum((x / cfg.dx).astype(np.int64), cfg.nz - 1)
            f = x / cfg.dx - j
            ep = (1.0 - f) * e[j] + f * e[(j + 1) % cfg.nz]
            sp.vel.data[:n, 0] -= 0.5 * cfg.dt \
                * sp.qm.data[:n, 0] * ep

    # -- field solve ---------------------------------------------------------

    def _solve_field(self, rho_points: np.ndarray) -> np.ndarray:
        """Spectral periodic Poisson solve: ∇·E = ρ/ε₀ with the k=0
        component removed (uniform neutralizing background)."""
        cfg = self.cfg
        rho = rho_points / cfg.dx            # charge → line density
        rhok = np.fft.rfft(rho)
        m = np.arange(rhok.size)
        kk = 2.0 * np.pi * m / cfg.lz
        ek = np.zeros_like(rhok)
        ek[1:] = rhok[1:] / (1j * kk[1:] * cfg.eps0)
        return np.fft.irfft(ek, n=cfg.nz)

    # -- step phases ---------------------------------------------------------

    def deposit_and_solve(self) -> None:
        par_loop(k.reset_rho_kernel, "ResetRho", self.cells,
                 OPP_ITERATE_ALL, arg_dat(self.rho, OPP_WRITE))
        for sp in self.species:
            par_loop(k.deposit1d_kernel, f"Deposit_{sp.spec.name}",
                     sp.pset, OPP_ITERATE_ALL,
                     arg_dat(sp.pos, OPP_READ),
                     arg_dat(sp.qw, OPP_READ),
                     arg_dat(self.x0, sp.p2c, OPP_READ),
                     arg_dat(self.rho, 0, self.grid2, sp.p2c, OPP_INC),
                     arg_dat(self.rho, 1, self.grid2, sp.p2c, OPP_INC))
        self.ef.data[:, 0] = self._solve_field(self.rho.data[:, 0])

    def push_and_move(self) -> None:
        for sp in self.species:
            par_loop(k.push1d_kernel, f"Push_{sp.spec.name}", sp.pset,
                     OPP_ITERATE_ALL,
                     arg_dat(sp.pos, OPP_RW),
                     arg_dat(sp.vel, OPP_RW),
                     arg_dat(sp.qm, OPP_READ),
                     arg_dat(self.x0, sp.p2c, OPP_READ),
                     arg_dat(self.ef, 0, self.grid2, sp.p2c, OPP_READ),
                     arg_dat(self.ef, 1, self.grid2, sp.p2c, OPP_READ))
            particle_move(k.move1d_kernel, f"Move_{sp.spec.name}",
                          sp.pset, self.c2c, sp.p2c,
                          arg_dat(sp.pos, OPP_READ))

    # -- diagnostics ---------------------------------------------------------

    def field_energy(self) -> float:
        e = self.ef.data[:, 0]
        return float(0.5 * self.cfg.eps0 * np.sum(e * e) * self.cfg.dx)

    def mode_energy(self, mode: Optional[int] = None) -> float:
        """Field energy in one Fourier mode — the quantity whose log
        slope the physics gates fit (±2γ)."""
        cfg = self.cfg
        m = cfg.diagnostic_mode if mode is None else mode
        ek = np.fft.rfft(self.ef.data[:, 0])[m] / cfg.nz
        return float(self.cfg.eps0 * cfg.lz * np.abs(ek) ** 2)

    def kinetic_energy(self) -> float:
        total = 0.0
        for sp in self.species:
            n = sp.pset.size
            v = sp.vel.data[:n, 0]
            total += 0.5 * sp.spec.mass * sp.weight * float(np.sum(v * v))
        return total

    def momentum(self) -> float:
        total = 0.0
        for sp in self.species:
            n = sp.pset.size
            total += sp.spec.mass * sp.weight \
                * float(np.sum(sp.vel.data[:n, 0]))
        return total

    def total_charge(self) -> float:
        """Deposited macro-charge — exactly conserved step to step."""
        return float(np.sum(self.rho.data[:, 0]))

    # -- main loop -----------------------------------------------------------

    def step(self) -> None:
        with push_context(self.ctx):
            self.deposit_and_solve()
            self.push_and_move()
        self.step_count += 1
        h = self.history
        fe = self.field_energy()
        ke = self.kinetic_energy()
        h["field_energy"].append(fe)
        h["mode_energy"].append(self.mode_energy())
        h["kinetic_energy"].append(ke)
        h["total_energy"].append(fe + ke)
        h["momentum"].append(self.momentum())
        h["charge"].append(self.total_charge())
        h["n_particles"].append(sum(sp.pset.size
                                    for sp in self.species))

    def run(self, n_steps: Optional[int] = None) -> dict:
        for _ in range(n_steps if n_steps is not None
                       else self.cfg.n_steps):
            self.step()
        return self.history

    def times(self) -> np.ndarray:
        """Diagnostic timestamps (field quantities live at step ends)."""
        return (np.arange(self.step_count) + 1.0) * self.cfg.dt
