"""Fundamental enumerations and type aliases of the OP-PIC DSL.

These mirror the C++ OP-PIC access descriptors (``OPP_READ`` etc.), the
particle-move status macros (``OPP_PARTICLE_MOVE_DONE`` etc.) and the
iteration selectors (``OPP_ITERATE_ALL`` / ``OPP_ITERATE_INJECTED``).
"""
from __future__ import annotations

import enum

import numpy as np

__all__ = [
    "AccessMode",
    "IterateType",
    "MoveStatus",
    "OPP_READ",
    "OPP_WRITE",
    "OPP_INC",
    "OPP_RW",
    "OPP_MIN",
    "OPP_MAX",
    "OPP_ITERATE_ALL",
    "OPP_ITERATE_INJECTED",
    "OPP_REAL",
    "OPP_INT",
    "OPP_BOOL",
    "REAL",
    "INT",
    "BOOL",
    "dtype_of",
]


class AccessMode(enum.Enum):
    """How a kernel argument may touch its backing :class:`~repro.core.dats.Dat`.

    The access mode is the contract that lets a backend pick a safe
    parallelisation: ``INC`` arguments reached through a mapping are the
    ones that need scatter arrays / atomics / segmented reductions.
    """

    READ = "read"
    WRITE = "write"
    INC = "inc"
    RW = "rw"
    MIN = "min"
    MAX = "max"

    #: members are singletons compared by identity, so they hash by it
    #: too: ``Enum.__hash__`` hashes the name in Python, and every
    #: ``arg_dat`` spec and call-site key hashes one of these
    __hash__ = object.__hash__

    @property
    def reads(self) -> bool:
        return self in (AccessMode.READ, AccessMode.RW, AccessMode.INC,
                        AccessMode.MIN, AccessMode.MAX)

    @property
    def writes(self) -> bool:
        return self is not AccessMode.READ


class IterateType(enum.Enum):
    """Which slice of a particle set a loop iterates over."""

    ALL = "all"
    INJECTED = "injected"

    __hash__ = object.__hash__      # as AccessMode's


class MoveStatus(enum.IntEnum):
    """Per-particle outcome of one hop of a move kernel.

    Matches the OP-PIC macros: ``MOVE_DONE`` — the particle reached its
    final cell; ``NEED_MOVE`` — it must hop to the next probable cell;
    ``NEED_REMOVE`` — it left the domain and is deleted.
    """

    MOVE_DONE = 0
    NEED_MOVE = 1
    NEED_REMOVE = 2


# C-API style aliases so application code reads like the paper's listings.
OPP_READ = AccessMode.READ
OPP_WRITE = AccessMode.WRITE
OPP_INC = AccessMode.INC
OPP_RW = AccessMode.RW
OPP_MIN = AccessMode.MIN
OPP_MAX = AccessMode.MAX

OPP_ITERATE_ALL = IterateType.ALL
OPP_ITERATE_INJECTED = IterateType.INJECTED

#: Base datatypes understood by :func:`repro.core.api.decl_dat`.
OPP_REAL = REAL = np.float64
OPP_INT = INT = np.int64
OPP_BOOL = BOOL = np.bool_

_DTYPE_NAMES = {
    "real": REAL,
    "double": REAL,
    "float64": REAL,
    "int": INT,
    "int64": INT,
    "bool": BOOL,
}


def dtype_of(spec) -> np.dtype:
    """Resolve a dtype spec (name string, python type or numpy dtype)."""
    if isinstance(spec, str):
        try:
            return np.dtype(_DTYPE_NAMES[spec.lower()])
        except KeyError:
            raise ValueError(f"unknown OP-PIC datatype name {spec!r}") from None
    return np.dtype(spec)
