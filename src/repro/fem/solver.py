"""KSP-style linear solver (the PETSc substitute).

Mini-FEM-PIC hands its assembled Jacobian to a PETSc KSP solve; this
module provides the equivalent: conjugate gradients with Jacobi (or no)
preconditioning.  Like the KSP it stands in for, a solve is one call of
compiled code: the whole iteration — CSR matvec, axpys, preconditioner,
norms, convergence test — is a fixed C function built through
:mod:`repro.translator.native`'s cache, bound to the matrix's arrays
once per solver.  Without a compiler (or with ``native.CC`` pinned to
``None``) the same algorithm runs in NumPy.  The same source holds the
whole Newton loop of the FemPIC field solve around it
(:class:`repro.fem.NewtonSystem`), one library for both.

The two targets are bit-equal.  Every reduction — dot product, norm, CSR
row — is a sequential left-to-right sum that starts from the first
product, in both; NumPy's ``a @ b`` and ``np.linalg.norm`` are not used,
since BLAS ``ddot`` sums in a blocked order that depends on the CPU
kernel.  scipy's CSR matvec is already sequential per row.
"""
from __future__ import annotations

import math
from ctypes import c_double, c_int64, c_void_p
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..translator import native

__all__ = ["KSPSolver", "KSPResult", "inverse_diagonal"]


@dataclass
class KSPResult:
    x: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool


#: what a Jacobi-PCG solve rejects, by the C functions' error code
REJECTED = {1: "matrix has non-finite diagonal entries",
            2: "matrix has zero diagonal entries; Jacobi preconditioning "
               "is undefined",
            3: "rhs has non-finite entries"}


def inverse_diagonal(d: np.ndarray,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """``1 / d`` for a Jacobi preconditioner, optionally into ``out``."""
    if not np.isfinite(d).all():
        raise ValueError(REJECTED[1])
    if not d.all():
        raise ValueError(REJECTED[2])
    return np.divide(1.0, d, out=out)


#: the whole solve, as :meth:`KSPSolver._cg` runs it in NumPy; built
#: with ``native.FLAGS`` (no contraction, no reassociation)
_SOURCE = r"""
#include <math.h>
#include <stdint.h>

static double dot(int64_t n, const double *a, const double *b)
{
    if (n <= 0)
        return 0.0;
    double s = a[0] * b[0];
    for (int64_t i = 1; i < n; ++i)
        s += a[i] * b[i];
    return s;
}

static void matvec(int64_t n, const int64_t *ptr, const int64_t *col,
                   const double *val, const double *v, double *out)
{
    for (int64_t i = 0; i < n; ++i) {
        double s = 0.0;
        for (int64_t j = ptr[i]; j < ptr[i + 1]; ++j)
            s += val[j] * v[col[j]];
        out[i] = s;
    }
}

/* CG on the n-row CSR matrix (ptr, col, val), preconditioned by the
   inverse diagonal inv (NULL: none).  x is the initial guess when guess
   is set, else zero; work holds 4n doubles.  out receives the residual
   norm and the tolerance; the iteration count is returned. */
int64_t ksp_pcg(int64_t n, const int64_t *ptr, const int64_t *col,
                const double *val, const double *inv, double *work,
                double *out, double rtol, double atol, int64_t max_it,
                const double *b, double *x, int64_t guess)
{
    double *r = work, *z = inv ? work + n : work;
    double *p = work + 2 * n, *ap = work + 3 * n;
    if (guess) {
        matvec(n, ptr, col, val, x, ap);
        for (int64_t i = 0; i < n; ++i)
            r[i] = b[i] - ap[i];
    } else {
        for (int64_t i = 0; i < n; ++i)
            r[i] = b[i];
    }
    if (inv)
        for (int64_t i = 0; i < n; ++i)
            z[i] = inv[i] * r[i];
    for (int64_t i = 0; i < n; ++i)
        p[i] = z[i];
    double rz = dot(n, r, z);
    double b_norm = sqrt(dot(n, b, b));
    double tol = rtol * (b_norm != 0.0 ? b_norm : 1.0);
    if (atol > tol)
        tol = atol;
    double res = sqrt(dot(n, r, r));
    int64_t it = 0;
    while (res > tol && it < max_it) {
        matvec(n, ptr, col, val, p, ap);
        double pap = dot(n, p, ap);
        if (pap <= 0.0)
            break;
        double alpha = rz / pap;
        for (int64_t i = 0; i < n; ++i) {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        res = sqrt(dot(n, r, r));
        if (inv)
            for (int64_t i = 0; i < n; ++i)
                z[i] = inv[i] * r[i];
        double rz_new = dot(n, r, z);
        double beta = rz_new / rz;
        for (int64_t i = 0; i < n; ++i)
            p[i] = z[i] + beta * p[i];
        rz = rz_new;
        ++it;
    }
    out[0] = res;
    out[1] = tol;
    return it;
}

/* iters Newton iterations of the nonlinear Poisson solve, as
   repro.fem.NewtonSystem._iterate runs them in NumPy, on phi in place.
   Over the m free nodes each forms the free rows of K phi (the n-column
   CSR kptr/kcol/kval), the Boltzmann residual and Jacobian diagonal in
   the order the FemPIC kernels wrote them, writes the diagonal into the
   Newton matrix (val[diag_pos]) and its inverse into inv, solves for
   -f1 from zero and adds the step to phi.  c holds spwt, ion_charge,
   n0, phi0, kTe, 1/eps0, rtol and atol; work holds 7m doubles.  its and
   res receive each iteration's CG count and residual norm.  Returns 0,
   or 1 / 2 / 3 when a diagonal entry is non-finite / zero or a
   right-hand side entry is non-finite (phi then holds the iterations
   before). */
int64_t newton_solve(int64_t m, const int64_t *free_nodes,
                     const int64_t *kptr, const int64_t *kcol,
                     const double *kval, const int64_t *ptr,
                     const int64_t *col, double *val,
                     const int64_t *diag_pos, const double *kdiag,
                     double *inv, double *work, const double *c,
                     int64_t max_it, int64_t iters, int64_t *its,
                     double *res, double *phi, const double *nw,
                     const double *nvol)
{
    double spwt = c[0], q = c[1], n0 = c[2], phi0 = c[3], kte = c[4];
    double inv_eps0 = c[5], rtol = c[6], atol = c[7];
    double *rhs = work + 4 * m, *x = work + 5 * m, *diag = work + 6 * m;
    double out[2];
    for (int64_t k = 0; k < iters; ++k) {
        for (int64_t i = 0; i < m; ++i) {
            int64_t f = free_nodes[i];
            double kphi = 0.0;
            for (int64_t j = kptr[f]; j < kptr[f + 1]; ++j)
                kphi += kval[j] * phi[kcol[j]];
            double e = exp((phi[f] - phi0) / kte);
            rhs[i] = -(kphi - (nw[f] * spwt * q - nvol[f] * n0 * e)
                              * inv_eps0);
            diag[i] = kdiag[i] + nvol[f] * n0 * inv_eps0 / kte * e;
        }
        for (int64_t i = 0; i < m; ++i)
            if (!isfinite(diag[i]))
                return 1;
        for (int64_t i = 0; i < m; ++i)
            if (diag[i] == 0.0)
                return 2;
        for (int64_t i = 0; i < m; ++i)
            if (!isfinite(rhs[i]))
                return 3;
        for (int64_t i = 0; i < m; ++i) {
            val[diag_pos[i]] = diag[i];
            inv[i] = 1.0 / diag[i];
            x[i] = 0.0;
        }
        its[k] = ksp_pcg(m, ptr, col, val, inv, work, out, rtol, atol,
                         max_it, rhs, x, 0);
        res[k] = out[0];
        for (int64_t i = 0; i < m; ++i)
            phi[free_nodes[i]] += x[i];
    }
    return 0;
}
"""

_ARGTYPES = ([c_int64] + [c_void_p] * 6 + [c_double, c_double, c_int64]
             + [c_void_p, c_void_p, c_int64])


def _sdot(a: np.ndarray, b: np.ndarray) -> float:
    """``a · b`` summed left to right from the first product — the C
    function's ``dot``."""
    return float(np.cumsum(a * b)[-1]) if a.size else 0.0


def _csr_problem(a: sp.csr_matrix, inv: Optional[np.ndarray]
                 ) -> Optional[str]:
    """Why the C functions may not read ``a`` (and ``inv``), or None: the
    row pointers run monotonically from 0 within the stored entries and
    every column index lies in ``[0, n)``."""
    n = a.shape[0]
    data, ptr, col = a.data, a.indptr, a.indices
    if not (data.dtype == np.float64 and data.flags.c_contiguous):
        return "matrix values are not a contiguous float64 array"
    if inv is not None and not (inv.dtype == np.float64 and inv.shape == (n,)
                                and inv.flags.c_contiguous):
        return "the inverse diagonal is not a contiguous float64 (n,) array"
    if ptr.shape != (n + 1,) or ptr[0] != 0 \
            or ptr[-1] > min(data.size, col.size) or (np.diff(ptr) < 0).any():
        return "row pointers are not monotone from 0 within the entries"
    used = col[:ptr[-1]]
    if used.size and (used.min() < 0 or used.max() >= n):
        return "a column index lies outside [0, n)"
    return None


class KSPSolver:
    """Preconditioned CG with a KSP-like interface.

    Parameters
    ----------
    a:
        Symmetric positive-definite sparse matrix.  Its values may be
        rewritten in place between solves; the diagonal preconditioner is
        then refreshed by writing :attr:`inv_diag` in place
        (:class:`repro.fem.NewtonSystem` does both).
    pc:
        ``"jacobi"`` (default) or ``"none"``.
    rtol, atol, max_it:
        Convergence controls (relative / absolute residual, iteration
        cap; ``None`` is ``10 n``).
    """

    def __init__(self, a: sp.spmatrix, pc: str = "jacobi",
                 rtol: float = 1e-10, atol: float = 1e-50,
                 max_it: Optional[int] = None):
        self.a = a.tocsr()
        if self.a.dtype != np.float64:
            self.a = self.a.astype(np.float64)
        n = self.a.shape[0]
        if n != self.a.shape[1]:
            raise ValueError("KSP operator must be square")
        if max_it is not None and max_it < 0:
            raise ValueError(f"max_it must be >= 0, got {max_it}")
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.max_it = 10 * n if max_it is None else int(max_it)
        if pc == "jacobi":
            #: ``1 / diag(a)``; the C function holds its address
            self.inv_diag = inverse_diagonal(self.a.diagonal())
        elif pc == "none":
            self.inv_diag = None
        else:
            raise ValueError(f"unknown preconditioner {pc!r} "
                             "(use 'jacobi' or 'none')")
        self._fn = None         # the loaded C function
        self._held = (None,) * 4    # a.data, a.indices, a.indptr, inv_diag
        self._args = None       # the call's bound leading arguments
        self._declined: Optional[str] = None
        self._out = (c_double * 2)()

    @property
    def fallback(self) -> Optional[str]:
        """Why :meth:`solve` runs on the NumPy target, or None when it
        runs as the C call (as of the last solve's binding)."""
        if native.CC is None:
            return native.library("ksp_pcg", _SOURCE)[1]
        return self._declined

    def _bound(self) -> bool:
        """Whether this solve can be the C call: the function loaded and
        bound to the current arrays.  Binds on the first solve and
        whenever one of them is a different array object."""
        a, held = self.a, self._held
        if not (a.data is held[0] and a.indices is held[1]
                and a.indptr is held[2] and self.inv_diag is held[3]):
            self._bind()
        return self._args is not None

    def _bind(self) -> None:
        """Load the C function (once per solver) and bind it to the
        current arrays, or record in ``_declined`` why not."""
        a, inv = self.a, self.inv_diag
        self._held = (a.data, a.indices, a.indptr, inv)
        self._args = None
        if self._fn is None:
            lib, self._declined = native.library("ksp_pcg", _SOURCE)
            if lib is None:
                return
            self._fn = lib.ksp_pcg
            self._fn.restype = c_int64
            self._fn.argtypes = _ARGTYPES
        self._declined = _csr_problem(a, inv)
        if self._declined is None:
            n = a.shape[0]
            # the C function reads these copies, checked once
            self._ptr = np.array(a.indptr, dtype=np.int64)
            self._col = np.array(a.indices, dtype=np.int64)
            self._work = np.empty(4 * n)
            addr = native.address
            self._args = (n, addr(self._ptr), addr(self._col),
                          addr(a.data), None if inv is None else addr(inv),
                          addr(self._work), self._out)

    def solve(self, b: np.ndarray,
              x0: Optional[np.ndarray] = None) -> KSPResult:
        a = self.a
        n = a.shape[0]
        b = np.ascontiguousarray(b, dtype=np.float64)
        if b.shape != (n,):
            raise ValueError(f"rhs has shape {b.shape}, expected ({n},)")
        if x0 is None:
            x = np.zeros(n)
        else:
            x = np.array(x0, dtype=np.float64)
            if x.shape != (n,):
                raise ValueError(f"x0 has shape {x.shape}, expected ({n},)")
            if not np.isfinite(x).all():
                raise ValueError("initial guess has non-finite entries")
        if not np.isfinite(b).all():
            raise ValueError(REJECTED[3])
        if native.CC is not None and self._bound():
            addr = native.address
            it = self._fn(*self._args, self.rtol, self.atol, self.max_it,
                          addr(b), addr(x), x0 is not None)
            res, tol = self._out
        else:
            it, res, tol = self._cg(b, x, x0 is not None)
        return KSPResult(x=x, iterations=it, residual_norm=res,
                         converged=res <= tol)

    def _cg(self, b: np.ndarray, x: np.ndarray, guess: bool):
        """The C function's algorithm in NumPy, on ``x`` in place →
        ``(iterations, residual norm, tolerance)``."""
        a, inv = self.a, self.inv_diag
        r = b - a @ x if guess else b.copy()
        z = r if inv is None else inv * r
        p = z.copy()
        rz = _sdot(r, z)
        tol = max(self.rtol * (math.sqrt(_sdot(b, b)) or 1.0), self.atol)
        res = math.sqrt(_sdot(r, r))
        it = 0
        while res > tol and it < self.max_it:
            ap = a @ p
            pap = _sdot(p, ap)
            if pap <= 0.0:
                # matrix not SPD along p (round-off near convergence): stop
                break
            alpha = rz / pap
            x += alpha * p
            r -= alpha * ap
            res = math.sqrt(_sdot(r, r))
            if inv is not None:
                np.multiply(inv, r, out=z)
            rz_new = _sdot(r, z)
            p *= rz_new / rz
            p += z
            rz = rz_new
            it += 1
        return it, res, tol
