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

:func:`arg_dat` and :func:`arg_gbl` are memoised: a repeated spec returns
the same frozen :class:`Arg`, from a small memo held on the dat (or
global) itself, so the memo dies with the dat and a call site can compare
its descriptors by identity.  Each descriptor also carries :attr:`Arg.key`,
what it contributes to a call site's structural key (:func:`structure`),
which names no object.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .dats import Dat, Global
from .maps import Map
from .sets import Set
from .types import AccessMode

__all__ = ["Arg", "ArgKind", "arg_dat", "arg_gbl", "structure", "slot"]

#: most descriptors one dat (or global) remembers; a dat addressed through
#: ever new maps starts its memo afresh instead of keeping them all alive
MAX_ARGS = 64


class ArgKind:
    DIRECT = "direct"
    INDIRECT = "indirect"              # via a static mesh map
    P2C = "p2c"                        # via the particle-to-cell map
    DOUBLE = "double"                  # via p2c composed with a mesh map
    GLOBAL = "global"


_INDIRECT = frozenset((ArgKind.INDIRECT, ArgKind.P2C, ArgKind.DOUBLE))


class Arg:
    """One kernel argument: a dat (or global) plus addressing and access.

    Frozen: :func:`arg_dat` hands the same descriptor to every call site
    and context that names the same spec, and call sites key on it, so
    assigning an attribute after ``__init__`` raises.
    """

    __slots__ = ("dat", "access", "map", "map_idx", "p2c", "kind",
                 "is_indirect", "is_global", "key", "__weakref__")

    def __init__(self, dat, access: AccessMode, *, map_: Optional[Map] = None,
                 map_idx: Optional[int] = None, p2c: Optional[Map] = None):
        _fill(self, dat, access, map_, map_idx, p2c)

    def __setattr__(self, name, value):
        raise AttributeError(f"Arg is frozen (cannot set {name!r}): it is "
                             "shared by every call site that names it")

    def __delattr__(self, name):
        raise AttributeError(f"Arg is frozen (cannot delete {name!r})")

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


# the slots' own setters: ``Arg.__setattr__`` refuses, and these are
# cheaper than ``object.__setattr__`` by name (a new job builds every
# descriptor of its dats)
(_dat, _access, _map, _map_idx, _p2c, _kind, _is_indirect, _is_global,
 _key) = (getattr(Arg, name).__set__ for name in Arg.__slots__[:-1])
_alloc = object.__new__


def _fill(arg: Arg, dat, access, map_, map_idx, p2c) -> Arg:
    """Validate a descriptor spec and write it into ``arg``."""
    if not isinstance(access, AccessMode):
        raise TypeError(f"access must be an AccessMode, got {access!r}")
    if isinstance(dat, Global):
        if map_ is not None or p2c is not None:
            raise ValueError("global args take no mapping")
        if access in (AccessMode.WRITE, AccessMode.RW):
            raise ValueError("global args support READ/INC/MIN/MAX only")
        kind = ArgKind.GLOBAL
    elif map_ is not None:
        kind = ArgKind.INDIRECT if p2c is None else ArgKind.DOUBLE
    else:
        kind = ArgKind.DIRECT if p2c is None else ArgKind.P2C

    arity = 0
    if map_ is not None:
        if map_.is_particle_map:
            raise ValueError("pass a particle-to-cell map as p2c=, not as "
                             "the mesh map argument")
        if map_idx is None:
            raise ValueError(f"indirect arg on {dat.name!r} needs a map "
                             "component index")
        arity = map_.arity
        if not (0 <= map_idx < arity):
            raise IndexError(f"map index {map_idx} out of range for arity "
                             f"{arity}")
    _dat(arg, dat)
    _access(arg, access)
    _map(arg, map_)
    _map_idx(arg, map_idx)
    _p2c(arg, p2c)
    _kind(arg, kind)
    _is_global(arg, kind is ArgKind.GLOBAL)
    _is_indirect(arg, kind in _INDIRECT)
    # everything a call site's shape needs of this descriptor besides
    # which objects it shares with the others: kind, access, dim, dtype
    # char, map arity (0 without a mesh map), map index
    _key(arg, (kind, access._value_, dat.dim, dat.dtype.char, arity,
               map_idx))
    return arg


def slot(objs: list, obj) -> int:
    """The index of ``obj`` in ``objs``, appending it if it is not there:
    a loop's distinct arrays in first-use order.  ``Dat``, ``Global`` and
    ``Map`` define no ``__eq__``, so list membership is identity."""
    if obj in objs:
        return objs.index(obj)
    objs.append(obj)
    return len(objs) - 1


def structure(args, objs: list) -> tuple:
    """The argument part of a call site's structural key: per argument
    its :attr:`Arg.key` and the slots of its dat, map and p2c map in
    ``objs`` (which collects the distinct objects, as the generated
    loop's parameters do; -1 for none).  "The same dat twice" and "two
    dats" differ here, as they do in the generated C.  Names no object.
    (:func:`slot` written out: a new job runs this for every loop.)"""
    out = []
    for a in args:
        o = a.dat
        if o in objs:
            d = objs.index(o)
        else:
            d = len(objs)
            objs.append(o)
        o = a.map
        if o is None:
            m = -1
        elif o in objs:
            m = objs.index(o)
        else:
            m = len(objs)
            objs.append(o)
        o = a.p2c
        if o is None:
            p = -1
        elif o in objs:
            p = objs.index(o)
        else:
            p = len(objs)
            objs.append(o)
        out.append((a.key, d, m, p))
    return tuple(out)


def _remember(memo, spec: tuple, arg: Arg) -> Arg:
    if memo is not None:
        if len(memo) >= MAX_ARGS:
            memo.clear()
        try:
            memo[spec] = arg
        except TypeError:       # an unhashable spec part: not memoised
            pass
    return arg


def arg_dat(dat: Dat, *spec) -> Arg:
    """Flexible ``opp_arg_dat`` constructor matching the paper's listings.

    Accepted forms::

        arg_dat(dat, OPP_READ)                      # direct
        arg_dat(dat, idx, mesh_map, OPP_READ)       # indirect
        arg_dat(dat, p2c_map, OPP_READ)             # particle indirect
        arg_dat(dat, idx, mesh_map, p2c_map, OPP_INC)  # double indirect

    A spec seen before on ``dat`` returns the descriptor built then.
    """
    memo = getattr(dat, "_args", None)
    try:
        arg = memo.get(spec)
    except (AttributeError, TypeError):     # no memo, unhashable spec
        arg = None
    if arg is not None:
        return arg
    n = len(spec)
    if not n or not isinstance(spec[-1], AccessMode):
        raise TypeError("the last argument of arg_dat must be an access mode")
    access = spec[-1]
    arg = _alloc(Arg)
    if n == 1:
        _fill(arg, dat, access, None, None, None)
    elif n == 2:
        m = spec[0]
        if not isinstance(m, Map) or not m.is_particle_map:
            raise TypeError("single-map form of arg_dat takes a "
                            "particle-to-cell map")
        _fill(arg, dat, access, None, None, m)
    elif n == 3:
        _fill(arg, dat, access, spec[1], int(spec[0]), None)
    elif n == 4:
        _fill(arg, dat, access, spec[1], int(spec[0]), spec[2])
    else:
        raise TypeError(f"arg_dat: unsupported argument form {spec!r}")
    return _remember(memo, spec, arg)


def arg_gbl(gbl: Global, access: AccessMode) -> Arg:
    """``opp_arg_gbl`` — a global reduction / read-only constant argument
    (memoised on ``gbl`` as :func:`arg_dat` is on a dat)."""
    memo = getattr(gbl, "_args", None)
    try:
        arg = memo.get((access,))
    except (AttributeError, TypeError):
        arg = None
    if arg is not None:
        return arg
    return _remember(memo, (access,),
                     _fill(_alloc(Arg), gbl, access, None, None, None))
