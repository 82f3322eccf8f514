"""Loop argument descriptors (``opp_arg_dat`` / ``opp_arg_gbl``).

An :class:`Arg` tells a backend how one kernel parameter touches memory:

* **direct** — data on the iteration set itself;
* **indirect** — data on another set reached through a static mesh map
  (``opp_arg_dat(np, 0, cn, OPP_READ)``);
* **particle-indirect** — data on the cell set reached through the dynamic
  particle-to-cell map;
* **double-indirect** — data reached through the particle-to-cell map
  *composed* with a mesh map (``opp_arg_dat(cd, 0, cn, p2cell_i,
  OPP_INC)``), the pattern behind charge/current deposition.

The access mode + addressing kind is all the information code generation
needs to choose a race-handling strategy.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .dats import Dat, Global
from .maps import Map
from .sets import Set
from .types import AccessMode

__all__ = ["Arg", "ArgKind", "arg_dat", "arg_gbl"]


class ArgKind:
    DIRECT = "direct"
    INDIRECT = "indirect"              # via a static mesh map
    P2C = "p2c"                        # via the particle-to-cell map
    DOUBLE = "double"                  # via p2c composed with a mesh map
    GLOBAL = "global"


class Arg:
    """One kernel argument: a dat (or global) plus addressing and access.

    An immutable description: loop declarations are shared between
    launches and keyed by :attr:`key`, so nothing may change an ``Arg``
    after it is built.
    """

    __slots__ = ("dat", "access", "map", "map_idx", "p2c", "kind",
                 "is_indirect", "is_global", "key")

    def __init__(self, dat, access: AccessMode, *, map_: Optional[Map] = None,
                 map_idx: Optional[int] = None, p2c: Optional[Map] = None):
        if not isinstance(access, AccessMode):
            raise TypeError(f"access must be an AccessMode, got {access!r}")
        self.dat = dat
        self.access = access
        self.map = map_
        self.map_idx = map_idx
        self.p2c = p2c
        #: what a call site's memo compares: the objects themselves
        #: (hashed by identity and kept alive by the key) and how they
        #: are addressed (the access mode by its value: a ``str`` hashes
        #: in C, an ``Enum`` member in Python)
        self.key = (dat, access._value_, map_, map_idx, p2c)

        if isinstance(dat, Global):
            if map_ is not None or p2c is not None:
                raise ValueError("global args take no mapping")
            if access in (AccessMode.WRITE, AccessMode.RW):
                raise ValueError("global args support READ/INC/MIN/MAX only")
            self.kind = ArgKind.GLOBAL
        elif map_ is not None and p2c is not None:
            self.kind = ArgKind.DOUBLE
        elif p2c is not None:
            self.kind = ArgKind.P2C
        elif map_ is not None:
            self.kind = ArgKind.INDIRECT
        else:
            self.kind = ArgKind.DIRECT
        self.is_global = self.kind == ArgKind.GLOBAL
        self.is_indirect = self.kind in (ArgKind.INDIRECT, ArgKind.P2C,
                                         ArgKind.DOUBLE)

        if self.map is not None:
            if self.map.is_particle_map:
                raise ValueError("pass a particle-to-cell map as p2c=, not as "
                                 "the mesh map argument")
            if map_idx is None:
                raise ValueError(f"indirect arg on {dat.name!r} needs a map "
                                 "component index")
            if not (0 <= map_idx < self.map.arity):
                raise IndexError(f"map index {map_idx} out of range for arity "
                                 f"{self.map.arity}")

    # -- addressing -----------------------------------------------------------

    def validate_against(self, iterset: Set) -> None:
        """Check this argument is addressable from loops over ``iterset``."""
        if self.is_global:
            return
        if self.kind == ArgKind.DIRECT:
            if self.dat.set is not iterset:
                raise ValueError(
                    f"direct arg {self.dat.name!r} lives on "
                    f"{self.dat.set.name!r}, not iteration set {iterset.name!r}")
        elif self.kind == ArgKind.INDIRECT:
            if self.map.from_set is not iterset:
                raise ValueError(
                    f"map {self.map.name!r} does not start at iteration set "
                    f"{iterset.name!r}")
            if self.map.to_set is not self.dat.set:
                raise ValueError(
                    f"map {self.map.name!r} does not land on the set of dat "
                    f"{self.dat.name!r}")
        elif self.kind == ArgKind.P2C:
            if self.p2c.from_set is not iterset:
                raise ValueError("p2c map must start at the particle "
                                 "iteration set")
            if self.dat.set is not self.p2c.to_set:
                raise ValueError(
                    f"p2c-indirect arg {self.dat.name!r} must live on the "
                    "cell set")
        elif self.kind == ArgKind.DOUBLE:
            if self.p2c.from_set is not iterset:
                raise ValueError("p2c map must start at the particle "
                                 "iteration set")
            if self.map.from_set is not self.p2c.to_set:
                raise ValueError(
                    f"mesh map {self.map.name!r} must start at the cell set "
                    "for a double indirection")
            if self.map.to_set is not self.dat.set:
                raise ValueError(
                    f"mesh map {self.map.name!r} does not land on the set of "
                    f"dat {self.dat.name!r}")

    def gather_indices(self, iter_idx: np.ndarray,
                       cells: Optional[np.ndarray] = None) -> np.ndarray:
        """Target-set row index touched by each iteration index.

        ``cells`` overrides the particle-to-cell lookup inside move loops,
        where the *current hop* cell differs from the stored map value.
        """
        if self.kind == ArgKind.DIRECT:
            return iter_idx
        if self.kind == ArgKind.INDIRECT:
            return self.map.values[iter_idx, self.map_idx]
        c = cells if cells is not None else self.p2c.p2c[iter_idx]
        if self.kind == ArgKind.P2C:
            return c
        return self.map.values[c, self.map_idx]  # DOUBLE

    def describe(self, position: Optional[int] = None) -> str:
        """Human-readable descriptor summary used in sanitizer reports,
        e.g. ``"arg 2 (dat 'node_charge', double OPP_INC via c2n[0])"``."""
        head = f"arg {position}" if position is not None else "arg"
        via = ""
        if self.map is not None:
            via = f" via {self.map.name}[{self.map_idx}]"
        if self.p2c is not None:
            via += " o p2c"
        return (f"{head} (dat {self.dat.name!r}, {self.kind} "
                f"OPP_{self.access.name}{via})")

    def __repr__(self) -> str:
        return (f"<Arg {self.dat.name!r} {self.kind} {self.access.name}"
                + (f" via {self.map.name}[{self.map_idx}]" if self.map else "")
                + (" o p2c" if self.p2c is not None else "") + ">")


def arg_dat(dat: Dat, *spec) -> Arg:
    """Flexible ``opp_arg_dat`` constructor matching the paper's listings.

    Accepted forms::

        arg_dat(dat, OPP_READ)                      # direct
        arg_dat(dat, idx, mesh_map, OPP_READ)       # indirect
        arg_dat(dat, p2c_map, OPP_READ)             # particle indirect
        arg_dat(dat, idx, mesh_map, p2c_map, OPP_INC)  # double indirect
    """
    if not spec or not isinstance(spec[-1], AccessMode):
        raise TypeError("the last argument of arg_dat must be an access mode")
    access = spec[-1]
    rest = spec[:-1]
    if len(rest) == 0:
        return Arg(dat, access)
    if len(rest) == 1:
        m = rest[0]
        if not isinstance(m, Map) or not m.is_particle_map:
            raise TypeError("single-map form of arg_dat takes a "
                            "particle-to-cell map")
        return Arg(dat, access, p2c=m)
    if len(rest) == 2:
        idx, m = rest
        return Arg(dat, access, map_=m, map_idx=int(idx))
    if len(rest) == 3:
        idx, m, p2c = rest
        return Arg(dat, access, map_=m, map_idx=int(idx), p2c=p2c)
    raise TypeError(f"arg_dat: unsupported argument form {spec!r}")


def arg_gbl(gbl: Global, access: AccessMode) -> Arg:
    """``opp_arg_gbl`` — a global reduction / read-only constant argument."""
    return Arg(gbl, access)
