"""The nonlinear Poisson solve of the FemPIC field phase.

Mini-FEM-PIC's potential solves ``K φ = (ρ_ion - ρ0 · exp((φ - φ0)/kTe))
/ ε0`` with Boltzmann electrons by Newton's method on the free
(non-Dirichlet) nodes: every iteration forms the residual ``F`` and the
diagonal Jacobian term ``j`` of the electrons, solves ``(K_ff + diag(j))
dx = -F`` with Jacobi-preconditioned CG and adds ``dx`` to φ.  ``K`` never
changes and ``j`` only touches the diagonal, so the non-zero pattern is
fixed for the whole simulation: the system is assembled once and each
iteration rewrites the stored diagonal entries in place — PETSc's
same-nonzero-pattern operator update.

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

__all__ = ["NewtonSystem", "NewtonResult"]

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


class NewtonSystem:
    """The Boltzmann-electron Newton solve on ``dirichlet``'s free nodes.

    Parameters
    ----------
    dirichlet:
        The stiffness matrix ``K`` (:attr:`DirichletSystem.k_full`) with
        its Dirichlet nodes; only read.
    spwt, ion_charge, n0, phi0, kTe, eps0:
        Macro-particle weight, ion charge, reference electron density and
        potential, electron temperature and permittivity.
    newton_iters:
        Newton iterations per :meth:`solve_potential`.
    rtol:
        Relative tolerance of each CG solve.

    The matrix's pattern is that of ``k_ff`` (:attr:`DirichletSystem.k_ff`)
    less its explicitly stored off-diagonal zeros — P1 stiffness on a
    structured duct holds many, and a sparse ``K + diag`` sum drops them
    too.  The system owns its arrays, so any number of systems built from
    one matrix never write each other's diagonal.
    """

    def __init__(self, dirichlet: DirichletSystem, *, spwt: float,
                 ion_charge: float, n0: float, phi0: float, kTe: float,
                 eps0: float, newton_iters: int = 2, rtol: float = 1e-10):
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
        self.ksp = KSPSolver(self.a, pc="jacobi", rtol=rtol)
        self.k = sp.csr_matrix(dirichlet.k_full, dtype=np.float64)
        self.n = self.k.shape[0]
        self.free = dirichlet.free
        self.newton_iters = int(newton_iters)
        #: spwt, ion_charge, n0, phi0, kTe, 1/eps0 and the CG's rtol and
        #: atol, as the C function reads them
        self.constants = np.array([spwt, ion_charge, n0, phi0, kTe,
                                   1.0 / eps0, self.ksp.rtol, self.ksp.atol])
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
        the current arrays, or record in ``_declined`` why not.  The held
        arrays stay referenced while the C function may read them."""
        held = self._arrays()
        why = _index_problem(self.free, self.diag_pos, self.kdiag,
                             self.a.indptr, self.n)
        if why is not None:
            raise ValueError(f"cannot bind the Newton system: {why}")
        self._held, self._args = held, None
        if native.CC is None:
            return
        if self._fn is None:
            lib, self._declined = native.library("ksp_pcg", _SOURCE)
            if lib is None:
                return
            self._fn = lib.newton_solve
            self._fn.restype = c_int64
            self._fn.argtypes = _ARGTYPES
        k, a, inv = self.k, self.a, self.ksp.inv_diag
        self._declined = _csr_problem(k, None) or _csr_problem(a, inv)
        if self._declined is None:
            m = self.free.size
            # the C function reads these copies, checked once
            self._kptr = np.array(k.indptr, dtype=np.int64)
            self._kcol = np.array(k.indices, dtype=np.int64)
            self._ptr = np.array(a.indptr, dtype=np.int64)
            self._col = np.array(a.indices, dtype=np.int64)
            self._work = np.empty(7 * m)
            self._its = np.zeros(self.newton_iters, dtype=np.int64)
            self._res = np.zeros(self.newton_iters)
            addr = native.address
            self._args = (
                m, addr(self.free), addr(self._kptr), addr(self._kcol),
                addr(k.data), addr(self._ptr), addr(self._col),
                addr(a.data), addr(self.diag_pos), addr(self.kdiag),
                addr(inv), addr(self._work), addr(self.constants),
                self.ksp.max_it, self.newton_iters, addr(self._its),
                addr(self._res))

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
