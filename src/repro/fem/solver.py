"""KSP-style linear solver (the PETSc substitute).

Mini-FEM-PIC hands its assembled Jacobian to a PETSc KSP solve; this
module provides the equivalent: a preconditioned conjugate-gradient Krylov
solver with Jacobi or incomplete-Cholesky-flavoured (symmetric
Gauss-Seidel) preconditioning, implemented from scratch on top of sparse
matvecs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp

__all__ = ["KSPSolver", "KSPResult", "inverse_diagonal",
           "jacobi_preconditioner", "ssor_preconditioner"]


@dataclass
class KSPResult:
    x: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool


def inverse_diagonal(d: np.ndarray,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """``1 / d`` for a Jacobi preconditioner, optionally into ``out``."""
    if (d == 0).any():
        raise ValueError("matrix has zero diagonal entries; Jacobi "
                         "preconditioning is undefined")
    return np.divide(1.0, d, out=out)


def jacobi_preconditioner(a: sp.csr_matrix) -> Callable[[np.ndarray],
                                                        np.ndarray]:
    """Diagonal (Jacobi) preconditioner ``M⁻¹ r = r / diag(A)``."""
    inv = inverse_diagonal(a.diagonal())
    return lambda r: inv * r


def ssor_preconditioner(a: sp.csr_matrix,
                        omega: float = 1.0) -> Callable[[np.ndarray],
                                                        np.ndarray]:
    """Symmetric SOR preconditioner — one forward + one backward sweep."""
    if not 0.0 < omega < 2.0:
        raise ValueError("SSOR relaxation must satisfy 0 < omega < 2")
    lower = sp.tril(a, k=0).tocsr()
    upper = sp.triu(a, k=0).tocsr()
    d = a.diagonal()

    def apply(r: np.ndarray) -> np.ndarray:
        y = sp.linalg.spsolve_triangular(lower, r, lower=True)
        y *= d
        return sp.linalg.spsolve_triangular(upper, y, lower=False)

    return apply


class KSPSolver:
    """Preconditioned CG with a KSP-like interface.

    Parameters
    ----------
    a:
        Symmetric positive-definite sparse matrix.
    pc:
        ``"jacobi"`` (default), ``"ssor"``, ``"none"``, or a callable
        ``r -> M⁻¹ r`` owned by the caller.
    rtol, atol, max_it:
        Convergence controls (relative / absolute residual, iteration cap).
    """

    def __init__(self, a: sp.spmatrix,
                 pc: Union[str, Callable[[np.ndarray], np.ndarray]] = "jacobi",
                 rtol: float = 1e-10, atol: float = 1e-50,
                 max_it: Optional[int] = None):
        self.a = a.tocsr()
        if self.a.shape[0] != self.a.shape[1]:
            raise ValueError("KSP operator must be square")
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.max_it = max_it or 10 * self.a.shape[0]
        if callable(pc):
            self.pc = pc
        elif pc == "jacobi":
            self.pc = jacobi_preconditioner(self.a)
        elif pc == "ssor":
            self.pc = ssor_preconditioner(self.a)
        elif pc == "none":
            self.pc = lambda r: r
        else:
            raise ValueError(f"unknown preconditioner {pc!r}")

    def solve(self, b: np.ndarray,
              x0: Optional[np.ndarray] = None) -> KSPResult:
        a = self.a
        n = a.shape[0]
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (n,):
            raise ValueError(f"rhs has shape {b.shape}, expected ({n},)")
        x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
        r = b - a @ x
        z = self.pc(r)
        p = z.copy()
        rz = float(r @ z)
        b_norm = float(np.linalg.norm(b)) or 1.0
        it = 0
        res = float(np.linalg.norm(r))
        while res > max(self.rtol * b_norm, self.atol) and it < self.max_it:
            ap = a @ p
            pap = float(p @ ap)
            if pap <= 0.0:
                # matrix not SPD along p (round-off near convergence): stop
                break
            alpha = rz / pap
            x += alpha * p
            r -= alpha * ap
            res = float(np.linalg.norm(r))
            z = self.pc(r)
            rz_new = float(r @ z)
            p = z + (rz_new / rz) * p
            rz = rz_new
            it += 1
        return KSPResult(x=x, iterations=it, residual_norm=res,
                         converged=res <= max(self.rtol * b_norm, self.atol))
