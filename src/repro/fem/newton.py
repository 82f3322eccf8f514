"""The nonlinear Poisson solve of the FemPIC field phase.

Mini-FEM-PIC's potential solves ``K φ = (ρ_ion - ρ0 · exp((φ - φ0)/kTe))
/ ε0`` with Boltzmann electrons by Newton's method on the free
(non-Dirichlet) nodes: every iteration forms the residual ``F`` and the
diagonal Jacobian term ``j`` of the electrons, solves ``(K_ff + diag(j))
dx = -F`` with Jacobi-preconditioned CG and adds ``dx`` to φ.  ``K`` never
changes and ``j`` only touches the diagonal, so the non-zero pattern is
fixed for the whole simulation: the system is assembled once and each
iteration rewrites the stored diagonal entries in place — PETSc's
same-nonzero-pattern operator update.  What does not depend on the
physics — that pattern, ``K``, the index arrays the C function reads and
their checks — is a :class:`NewtonPattern`, which any number of
:class:`NewtonSystem` share read-only (a warm service worker keeps one
per mesh); each system owns the values it writes.

Like the PETSc step it stands in for, :meth:`NewtonSystem.solve_potential`
is one opaque call: every iteration runs inside one C function of
:mod:`repro.fem.solver`'s source, around the same ``ksp_pcg`` the
:class:`KSPSolver` calls.  Without a compiler the same algorithm runs in
NumPy, bit-equal to it: ``K φ`` rows are sequential sums from 0.0 (scipy's
CSR matvec), the residual and Jacobian keep the FemPIC kernels' operation
order, and ``exp`` is libm's on both targets (``math.exp`` per node —
``np.exp``'s SIMD loop rounds differently on some inputs).
"""
from __future__ import annotations

import math
from ctypes import c_int64, c_void_p
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from ..translator import native
from .assembly import DirichletSystem
from .solver import (REJECTED, _SOURCE, KSPResult, KSPSolver, _csr_problem,
                     inverse_diagonal)

__all__ = ["NewtonSystem", "NewtonPattern", "NewtonResult"]

_ARGTYPES = ([c_int64] + [c_void_p] * 12 + [c_int64, c_int64]
             + [c_void_p] * 5)


@dataclass
class NewtonResult:
    """One :meth:`NewtonSystem.solve_potential`, per Newton iteration."""
    iterations: List[int]       #: CG iterations
    residual_norms: List[float]     #: final CG residual norm


def _libm_exp(x: np.ndarray) -> np.ndarray:
    """``exp`` of every element through libm, as the C function takes it;
    past the overflow threshold the result is ``inf``, as in C."""
    out = np.empty(x.size)
    for i, v in enumerate(x.tolist()):
        try:
            out[i] = math.exp(v)
        except OverflowError:
            out[i] = math.inf
    return out


def _node_vector(name: str, v, n: int) -> None:
    if not (isinstance(v, np.ndarray) and v.dtype == np.float64
            and v.flags.c_contiguous and 1 <= v.ndim <= 2
            and v.shape[0] >= n and v.size == v.shape[0]):
        raise ValueError(f"{name} must be a C-contiguous float64 node "
                         f"vector of at least {n} rows")


def _index_problem(free: np.ndarray, diag_pos: np.ndarray,
                   kdiag: np.ndarray, indptr: np.ndarray,
                   n: int) -> Optional[str]:
    """Why the free node list, the diagonal positions or the stiffness
    diagonal would send the C function out of bounds, or None."""
    m = indptr.size - 1
    for name, arr, dtype in (("free", free, np.int64),
                             ("diag_pos", diag_pos, np.int64),
                             ("kdiag", kdiag, np.float64)):
        if not (arr.dtype == dtype and arr.shape == (m,)
                and arr.flags.c_contiguous):
            return f"{name} is not a contiguous {dtype.__name__} ({m},) array"
    if m and (free[0] < 0 or free[-1] >= n or (np.diff(free) <= 0).any()):
        return f"free nodes are not strictly increasing within [0, {n})"
    if ((diag_pos < indptr[:-1]) | (diag_pos >= indptr[1:])).any():
        return "a diagonal position lies outside its row"
    return None


def _shared_addresses(free, k, indices, diag_pos, kdiag) -> tuple:
    """Where the C function reads what systems may share: the free
    nodes, ``K``'s row pointers, columns and values, the Newton matrix's
    row pointers and columns, the diagonal positions and the stiffness
    diagonal."""
    kptr, kcol, ptr, col = indices
    return tuple(map(native.address, (free, kptr, kcol, k.data, ptr, col,
                                      diag_pos, kdiag)))


def _newton_function():
    """The typed C ``newton_solve`` → ``(function, None)``, or ``(None,
    why not)``."""
    lib, why = native.library("ksp_pcg", _SOURCE)
    if lib is None:
        return None, why
    fn = lib.newton_solve
    fn.restype = c_int64
    fn.argtypes = _ARGTYPES
    return fn, None


class NewtonPattern:
    """What every Newton system on one :class:`DirichletSystem` shares:
    built once, then only read.

    It holds the Newton matrix's pattern — the pattern of ``k_ff``
    (:attr:`DirichletSystem.k_ff`) less its explicitly stored
    off-diagonal zeros (P1 stiffness on a structured duct holds many,
    and a sparse ``K + diag`` sum drops them too) — with ``k_ff``'s
    values on it, the position of each row's diagonal entry and the
    stiffness diagonal; the float64 ``K`` and the int64 index copies the
    C function reads; the bind checks of all of them; and the loaded C
    function when a compiler was found.  The arrays it owns are
    read-only.  A warm service worker keeps one per mesh
    (:mod:`repro.runtime.objcache`).
    """

    def __init__(self, dirichlet: DirichletSystem):
        k_ff = dirichlet.k_ff
        n = k_ff.shape[0]
        row_ids = np.arange(n)
        rows = np.repeat(row_ids, np.diff(k_ff.indptr))
        on_diag = k_ff.indices == rows
        if not np.array_equal(rows[on_diag], row_ids):
            raise ValueError("every row of the Newton system needs exactly "
                             "one stored diagonal entry")
        keep = on_diag | (k_ff.data != 0.0)
        indptr = np.concatenate(
            ([0], np.bincount(rows[keep], minlength=n).cumsum()))
        self.a = sp.csr_matrix((k_ff.data[keep], k_ff.indices[keep], indptr),
                               shape=k_ff.shape)
        self.diag_pos = np.flatnonzero(on_diag[keep])
        self.kdiag = self.a.data[self.diag_pos]
        self.k = sp.csr_matrix(dirichlet.k_full, dtype=np.float64)
        self.n = self.k.shape[0]
        self.free = dirichlet.free
        #: why the indices would send the C function out of bounds, and
        #: why it may not read the matrices — None when they are sound
        self.index_problem = _index_problem(self.free, self.diag_pos,
                                            self.kdiag, self.a.indptr,
                                            self.n)
        self.declined = _csr_problem(self.k, None) \
            or _csr_problem(self.a, None)
        #: the C function reads these copies, at :attr:`addresses`
        self.indices = self.addresses = ()
        if not self.declined:
            self.indices = tuple(np.array(x, dtype=np.int64) for x in (
                self.k.indptr, self.k.indices, self.a.indptr,
                self.a.indices))
            self.addresses = _shared_addresses(
                self.free, self.k, self.indices, self.diag_pos, self.kdiag)
        for arr in (self.a.data, self.diag_pos, self.kdiag) + self.indices:
            arr.flags.writeable = False
        #: ``(C function, None)`` or ``(None, why not)``; None when built
        #: on the NumPy target (native.CC pinned to None)
        self.loaded = None if native.CC is None else _newton_function()


class NewtonSystem:
    """The Boltzmann-electron Newton solve on ``dirichlet``'s free nodes.

    Parameters
    ----------
    dirichlet:
        The stiffness matrix ``K`` (:attr:`DirichletSystem.k_full`) with
        its Dirichlet nodes, or a :class:`NewtonPattern` built from them;
        only read.
    spwt, ion_charge, n0, phi0, kTe, eps0:
        Macro-particle weight, ion charge, reference electron density and
        potential, electron temperature and permittivity.
    newton_iters:
        Newton iterations per :meth:`solve_potential`.
    rtol:
        Relative tolerance of each CG solve.

    The matrix's pattern, ``K``, the index arrays and their checks are
    the :class:`NewtonPattern`'s, shared by every system built from it.
    The system owns what it writes: the matrix values whose diagonal
    every iteration rewrites, the inverse diagonal, the CG work and the
    constants.  So systems from one pattern, with any physics, never
    write each other's values.
    """

    def __init__(self, dirichlet: DirichletSystem | NewtonPattern, *,
                 spwt: float, ion_charge: float, n0: float, phi0: float,
                 kTe: float, eps0: float, newton_iters: int = 2,
                 rtol: float = 1e-10):
        p = self.pattern = dirichlet if isinstance(dirichlet, NewtonPattern) \
            else NewtonPattern(dirichlet)
        self.a = sp.csr_matrix(p.a)         # the pattern's index arrays
        self.a.data = p.a.data.copy()
        self.diag_pos, self.kdiag = p.diag_pos, p.kdiag
        self.ksp = KSPSolver(self.a, pc="jacobi", rtol=rtol)
        self.k, self.n, self.free = p.k, p.n, p.free
        self.newton_iters = int(newton_iters)
        #: spwt, ion_charge, n0, phi0, kTe, 1/eps0 and the CG's rtol and
        #: atol, as the C function reads them
        self.constants = np.array([spwt, ion_charge, n0, phi0, kTe,
                                   1.0 / eps0, self.ksp.rtol, self.ksp.atol])
        #: the arrays as built: while they are the ones in use, the
        #: pattern's checks and index copies hold
        self._built = self._arrays()[1:]
        self._fn = None         # the loaded C function
        self._held = ()         # what the binding was derived from
        self._args = None       # the call's bound leading arguments
        self._declined: Optional[str] = None

    @property
    def fallback(self) -> Optional[str]:
        """Why :meth:`solve_potential` runs on the NumPy target, or None
        when it runs as the C call (as of the last call's binding)."""
        if native.CC is None:
            return native.library("ksp_pcg", _SOURCE)[1]
        return self._declined

    def _arrays(self) -> tuple:
        k, a = self.k, self.a
        return (native.CC, k.data, k.indices, k.indptr, a.data, a.indices,
                a.indptr, self.ksp.inv_diag, self.free, self.diag_pos,
                self.kdiag, self.constants)

    def _bind(self) -> None:
        """Check the free nodes, diagonal positions and stiffness
        diagonal (ValueError), then load the C function and bind it to
        the current arrays, or record in ``_declined`` why not.  The
        arrays as built take the pattern's checks; any other is checked
        here.  The held arrays stay referenced while the C function may
        read them."""
        held, p = self._arrays(), self.pattern
        built = all(x is y for x, y in zip(held[1:], self._built))
        why = p.index_problem if built else _index_problem(
            self.free, self.diag_pos, self.kdiag, self.a.indptr, self.n)
        if why is not None:
            raise ValueError(f"cannot bind the Newton system: {why}")
        self._held, self._args = held, None
        if native.CC is None:
            return
        if self._fn is None:
            self._fn, self._declined = p.loaded or _newton_function()
            if self._fn is None:
                return
        k, a, inv = self.k, self.a, self.ksp.inv_diag
        if built:
            self._declined, shared = p.declined, p.addresses
        else:
            self._declined = _csr_problem(k, None) or _csr_problem(a, inv)
            if self._declined is None:
                # held while the C function reads them
                self._indices = tuple(
                    np.array(x, dtype=np.int64)
                    for x in (k.indptr, k.indices, a.indptr, a.indices))
                shared = _shared_addresses(self.free, k, self._indices,
                                           self.diag_pos, self.kdiag)
        if self._declined is None:
            m = self.free.size
            self._work = np.empty(7 * m)
            self._its = np.zeros(self.newton_iters, dtype=np.int64)
            self._res = np.zeros(self.newton_iters)
            addr = native.address
            self._args = (
                m, *shared[:6], addr(a.data), *shared[6:], addr(inv),
                addr(self._work), addr(self.constants), self.ksp.max_it,
                self.newton_iters, addr(self._its), addr(self._res))

    def solve_potential(self, phi: np.ndarray, nw: np.ndarray,
                        nvol: np.ndarray) -> NewtonResult:
        """Run the Newton iterations on ``phi`` in place from the node
        charge ``nw`` and lumped node volumes ``nvol`` — each a
        C-contiguous float64 vector of at least ``n`` rows, such as a
        dim-1 node dat's ``data``, read at this call's address."""
        n = self.n
        _node_vector("phi", phi, n)
        _node_vector("nw", nw, n)
        _node_vector("nvol", nvol, n)
        if not self._held or any(
                x is not y for x, y in zip(self._arrays(), self._held)):
            self._bind()
        if self._args is None:
            return self._iterate(phi.reshape(-1), nw.reshape(-1),
                                 nvol.reshape(-1))
        addr = native.address
        code = self._fn(*self._args, addr(phi), addr(nw), addr(nvol))
        if code:
            raise ValueError(REJECTED[code])
        return NewtonResult(self._its.tolist(), self._res.tolist())

    def _iterate(self, phi: np.ndarray, nw: np.ndarray,
                 nvol: np.ndarray) -> NewtonResult:
        """The C function's algorithm in NumPy, on ``phi`` in place."""
        spwt, q, n0, phi0, kte, inv_eps0 = self.constants[:6].tolist()
        free = self.free
        w, vol = nw[free], nvol[free]
        result = NewtonResult([], [])
        for _ in range(self.newton_iters):
            kphi = (self.k @ phi[:self.n])[free]
            e = _libm_exp((phi[free] - phi0) / kte)
            f1 = kphi - (w * spwt * q - vol * n0 * e) * inv_eps0
            step = self.solve(vol * n0 * inv_eps0 / kte * e, -f1)
            phi[free] += step.x
            result.iterations.append(step.iterations)
            result.residual_norms.append(step.residual_norm)
        return result

    def solve(self, shift: np.ndarray, rhs: np.ndarray) -> KSPResult:
        """One Newton step's linear solve: Jacobi-preconditioned CG with
        ``shift`` added to the diagonal of ``k_ff``."""
        diag = self.kdiag + shift
        inverse_diagonal(diag, out=self.ksp.inv_diag)
        self.a.data[self.diag_pos] = diag
        return self.ksp.solve(rhs)
