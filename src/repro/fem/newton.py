"""The Newton linear system of the nonlinear Poisson solve.

Every Newton iteration solves ``(K + diag(j)) dx = -F`` on the free
nodes.  ``K`` never changes and ``j`` only touches the diagonal, so the
non-zero pattern is fixed for the whole simulation: the system is
assembled once and each iteration rewrites the stored diagonal entries
in place and solves on one reused :class:`KSPSolver` — PETSc's
same-nonzero-pattern operator update.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .solver import KSPResult, KSPSolver, inverse_diagonal

__all__ = ["NewtonSystem"]


class NewtonSystem:
    """``(k_ff + diag(shift)) x = rhs`` with a fixed CSR pattern.

    The pattern is that of ``k_ff`` (:attr:`DirichletSystem.k_ff`) less
    its explicitly stored off-diagonal zeros — P1 stiffness on a
    structured duct holds many, and a sparse ``K + diag`` sum drops them
    too.  ``k_ff`` is only read: the system owns its arrays, so any
    number of systems built from one matrix never write each other's
    diagonal.
    """

    def __init__(self, k_ff: sp.csr_matrix, rtol: float = 1e-10):
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

    def solve(self, shift: np.ndarray, rhs: np.ndarray) -> KSPResult:
        """Jacobi-preconditioned CG solve with ``shift`` added to the
        diagonal of ``k_ff``."""
        diag = self.kdiag + shift
        inverse_diagonal(diag, out=self.ksp.inv_diag)
        self.a.data[self.diag_pos] = diag
        return self.ksp.solve(rhs)
