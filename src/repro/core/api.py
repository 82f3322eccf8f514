"""The OP-PIC public API, Python edition.

Function names deliberately mirror the C++ API of the paper (Figures 4-6)
minus the ``opp_`` prefix; ``opp_``-prefixed aliases are provided so the
listings translate one-to-one::

    nodes  = decl_set(nnodes, "nodes")
    cells  = decl_set(ncells, "cells")
    parts  = decl_particle_set(cells, 0, "particles")
    cn     = decl_map(cells, nodes, 4, c2n, "cell_to_nodes")
    p2c    = decl_map(parts, cells, 1, None, "particle_to_cell")
    efield = decl_dat(cells, 3, OPP_REAL, None, "electric_field")

    par_loop(kernel, "name", cells, OPP_ITERATE_ALL,
             arg_dat(efield, OPP_INC), ...)
    particle_move(move_kernel, "Move", parts, cc, p2c, ...)
"""
from __future__ import annotations


from .args import arg_dat, arg_gbl
from .context import Context, get_context, push_context, set_backend
from .dats import Dat, Global
from .kernel import CONST, Kernel
from .loops import par_loop
from .maps import Map
from .move import particle_move
from .particles import shuffle_particles, sort_particles_by_cell
from .sets import ParticleSet, Set
from .types import (OPP_BOOL, OPP_INC, OPP_INT, OPP_ITERATE_ALL,
                    OPP_ITERATE_INJECTED, OPP_MAX, OPP_MIN, OPP_READ,
                    OPP_REAL, OPP_RW, OPP_WRITE, AccessMode, IterateType,
                    MoveStatus)

__all__ = [
    # declarations
    "decl_set", "decl_particle_set", "decl_map", "decl_dat", "decl_const",
    "decl_global",
    # loops
    "par_loop", "particle_move", "arg_dat", "arg_gbl",
    # particle utilities
    "increase_particle_count", "inject_particles", "sort_particles_by_cell",
    "shuffle_particles",
    # context
    "Context", "get_context", "push_context", "set_backend",
    # re-exported types
    "Set", "ParticleSet", "Map", "Dat", "Global", "Kernel", "CONST",
    "AccessMode", "IterateType", "MoveStatus",
    "OPP_READ", "OPP_WRITE", "OPP_INC", "OPP_RW", "OPP_MIN", "OPP_MAX",
    "OPP_ITERATE_ALL", "OPP_ITERATE_INJECTED",
    "OPP_REAL", "OPP_INT", "OPP_BOOL",
]


def decl_set(size: int, name: str = "") -> Set:
    """Declare a mesh set (``opp_decl_set``)."""
    return Set(size, name)


def decl_particle_set(cells: Set, size: int = 0, name: str = "") -> ParticleSet:
    """Declare a particle set on a cell set (``opp_decl_particle_set``).

    Note the argument order follows Python convention (cells first); the
    paper's string-first order is accepted via the ``opp_`` alias below.
    """
    return ParticleSet(cells, size, name)


def decl_map(from_set: Set, to_set: Set, arity: int, data=None,
             name: str = "") -> Map:
    """Declare connectivity between two sets (``opp_decl_map``)."""
    return Map(from_set, to_set, arity, data, name)


def decl_dat(dset: Set, dim: int, dtype, data=None, name: str = "") -> Dat:
    """Declare data on a set (``opp_decl_dat``)."""
    return Dat(dset, dim, dtype, data, name)


def decl_const(name: str, value) -> None:
    """Declare a simulation constant readable in kernels as ``CONST.name``
    (``opp_decl_const``)."""
    CONST.declare(name, value)


def decl_global(dim: int = 1, dtype=OPP_REAL, data=None,
                name: str = "") -> Global:
    """Declare a global reduction target for ``arg_gbl``."""
    return Global(dim, dtype, data, name)


def increase_particle_count(pset: ParticleSet, count: int,
                            cell_indices=None) -> slice:
    """Append ``count`` zero-initialised particles and mark them *injected*
    (``opp_increase_particle_count``).  Run an ``OPP_ITERATE_INJECTED``
    loop afterwards to initialise their data, then call
    ``pset.end_injection()`` (or use :func:`inject_particles`).
    """
    pset.begin_injection()
    return pset.add_particles(count, cell_indices)


def inject_particles(pset: ParticleSet, count: int, cell_indices,
                     init_kernel, name: str, *args) -> None:
    """Convenience: grow the set, run ``init_kernel`` over the injected
    slice, and finalise the injection."""
    increase_particle_count(pset, count, cell_indices)
    if count:
        par_loop(init_kernel, name, pset, IterateType.INJECTED, *args)
    pset.end_injection()


# -- exact paper-style aliases -------------------------------------------------

opp_decl_set = decl_set
opp_decl_map = decl_map
opp_decl_dat = decl_dat
opp_decl_const = decl_const
opp_par_loop = par_loop
opp_particle_move = particle_move
opp_arg_dat = arg_dat
opp_arg_gbl = arg_gbl


def opp_decl_particle_set(name: str, cells: Set, size: int = 0) -> ParticleSet:
    """String-first form used in the paper's Figure 4 listing."""
    return ParticleSet(cells, size, name)
