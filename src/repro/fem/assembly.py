"""P1 finite-element assembly on tetrahedral meshes.

Mini-FEM-PIC solves a nonlinear Poisson problem for the plasma potential
(ions as particles, Boltzmann electrons)::

    -∇²φ = (ρ_ion - ρ0 · exp((φ - φ0)/kTe)) / ε0

with Dirichlet conditions on the duct inlet and wall, by Newton
iterations whose linear systems a KSP-style CG solves
(:mod:`repro.fem.newton`, :mod:`repro.fem.solver`).  The stiffness matrix
is static (the mesh never changes) and assembled once here.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ..mesh.geometry import p1_gradients

__all__ = ["build_stiffness", "lumped_node_volumes",
           "sorted_scatter_add", "DirichletSystem"]


def sorted_scatter_add(rows: np.ndarray, values: np.ndarray,
                       n_out: int) -> np.ndarray:
    """``out[rows] += values`` onto a fresh zero vector, bitwise-equal to
    ``np.add.at`` but without its scalar inner loop.

    A stable sort groups each output row's contributions while keeping
    their original left-to-right order; round ``k`` then adds every
    row's ``k``-th contribution with a plain (unique-index) fancy add.
    Each row thus accumulates in exactly ``np.add.at``'s order, so the
    result is bit-identical; the round count is the maximum row
    multiplicity (the node valence, for mesh assembly).

    ``np.add.reduceat`` would be the obvious one-shot alternative but is
    *not* bitwise-stable here: SIMD builds of NumPy reassociate segment
    sums depending on lane alignment.
    """
    out = np.zeros(n_out, dtype=np.result_type(values, np.float64))
    rows = np.asarray(rows)
    values = np.asarray(values)
    if rows.size == 0:
        return out
    order = np.argsort(rows, kind="stable")
    keys = rows[order]
    sorted_vals = values[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(keys)) + 1))
    lens = np.diff(np.append(starts, keys.size))
    seg_keys = keys[starts]
    for k in range(int(lens.max())):
        m = lens > k
        out[seg_keys[m]] += sorted_vals[starts[m] + k]
    return out


def build_stiffness(points: np.ndarray, cells: np.ndarray) -> sp.csr_matrix:
    """Assemble the P1 stiffness matrix ``K_ij = Σ_c V_c ∇λ_i·∇λ_j``."""
    grads, vols = p1_gradients(points, cells)
    ncells = cells.shape[0]
    # local 4x4 blocks, all cells at once
    local = np.einsum("cid,cjd->cij", grads, grads) * vols[:, None, None]
    rows = np.repeat(cells, 4, axis=1).reshape(ncells, 4, 4)
    cols = np.tile(cells[:, None, :], (1, 4, 1))
    k = sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                      shape=(points.shape[0], points.shape[0]))
    return k.tocsr()


def lumped_node_volumes(points: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Lumped mass per node: a quarter of each adjacent tet's volume.

    Converts node charge (Coulombs) to node charge *density* and weights
    the Boltzmann-electron term in the Jacobian.
    """
    _, vols = p1_gradients(points, cells)
    return sorted_scatter_add(cells.ravel(), np.repeat(vols / 4.0, 4),
                              points.shape[0])


class DirichletSystem:
    """A linear system with Dirichlet rows eliminated.

    Fixes ``x[nodes_d] = values_d`` and solves the reduced system on the
    free nodes only — the standard strong-BC treatment, matching the
    mini-app's fixed inlet/wall potentials.
    """

    def __init__(self, k: sp.csr_matrix, dirichlet_nodes: Sequence[int],
                 dirichlet_values: np.ndarray):
        n = k.shape[0]
        dn = np.asarray(dirichlet_nodes, dtype=np.int64)
        if dn.size != np.unique(dn).size:
            raise ValueError("duplicate Dirichlet nodes")
        self.n = n
        self.dirichlet_nodes = dn
        self.dirichlet_values = np.asarray(dirichlet_values, dtype=np.float64)
        if self.dirichlet_values.shape != dn.shape:
            raise ValueError("one Dirichlet value per constrained node")
        free = np.ones(n, dtype=bool)
        free[dn] = False
        self.free = np.flatnonzero(free)
        self.k_full = k
        self.k_ff = k[self.free][:, self.free].tocsr()
        self.k_fd = k[self.free][:, dn].tocsr()

    def full_vector(self, x_free: np.ndarray) -> np.ndarray:
        out = np.empty(self.n)
        out[self.free] = x_free
        out[self.dirichlet_nodes] = self.dirichlet_values
        return out

    def reduce_rhs(self, b: np.ndarray) -> np.ndarray:
        """RHS on free nodes, with the Dirichlet coupling moved over."""
        return b[self.free] - self.k_fd @ self.dirichlet_values

    def residual(self, x_full: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Free-node residual ``(K x - b)|_free`` of the full system."""
        return (self.k_full @ x_full - b)[self.free]

