"""Memory-footprint accounting.

The paper repeatedly trades memory for speed (DH overlay bookkeeping,
thread-private scatter arrays, particle over-allocation); this module
reports where a simulation's bytes actually live, per set and per dat.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List

__all__ = ["MemoryReport", "memory_report"]


@dataclass
class MemoryReport:
    """Byte totals per category plus per-dat rows."""

    mesh_dats: int = 0
    particle_dats: int = 0
    maps: int = 0
    overlay: int = 0
    plan_cache: int = 0
    #: (name, kind, nbytes) rows sorted by size
    rows: List[tuple] = None

    @property
    def total(self) -> int:
        return (self.mesh_dats + self.particle_dats + self.maps
                + self.overlay + self.plan_cache)

    def report(self, title: str = "Memory footprint") -> str:
        lines = [title,
                 f"{'object':<32}{'kind':<12}{'bytes':>12}"]
        for name, kind, nbytes in self.rows:
            lines.append(f"{name:<32}{kind:<12}{nbytes:>12}")
        lines.append(f"{'TOTAL':<32}{'':<12}{self.total:>12}")
        return "\n".join(lines)


def memory_report(sim) -> MemoryReport:
    """Account every dat and map of the sets each resident rank declared
    (the state :mod:`repro.util.checkpoint` snapshots), the DH overlay
    and the loop plans (works for every application)."""
    rep = MemoryReport(rows=[])
    ranks = [rk for rk in sim.ranks if rk is not None]
    for rk in ranks:
        prefix = f"{rk.r}:" if len(sim.ranks) > 1 else ""
        for s in rk.sets:
            kind = "particle dat" if s.is_particle_set else "mesh dat"
            for d in s.dats:
                nbytes = d.raw.nbytes
                if s.is_particle_set:
                    rep.particle_dats += nbytes
                else:
                    rep.mesh_dats += nbytes
                rep.rows.append((prefix + d.name, kind, nbytes))
            for m in s.maps_from:
                rep.maps += m.raw.nbytes
                rep.rows.append((prefix + m.name, "map", m.raw.nbytes))

    overlay = getattr(sim, "overlay", None)
    if overlay is not None:
        rep.overlay = overlay.nbytes
        rep.rows.append(("overlay", "DH bookkeeping", overlay.nbytes))
    dh = getattr(sim, "dh_mover", None)
    if dh is not None:
        rep.overlay += dh.overlay_nbytes
        rep.rows.append(("dh_mover", "DH bookkeeping (RMA copies)",
                         dh.overlay_nbytes))

    rep.plan_cache = sum(rows.nbytes for rk in ranks
                         if hasattr(rk.ctx.backend, "plan")
                         for rows in rk.ctx.backend.plan._rows.values())
    if rep.plan_cache:
        rep.rows.append(("loop plans", "plan cache", rep.plan_cache))

    rep.rows.sort(key=lambda r: -r[2])
    return rep
