"""FEM substrate: P1 assembly and KSP-style solvers (PETSc substitute)."""
from .assembly import DirichletSystem, build_stiffness, \
    lumped_node_volumes, sorted_scatter_add
from .newton import NewtonSystem
from .solver import KSPResult, KSPSolver, jacobi_preconditioner, \
    ssor_preconditioner

__all__ = ["DirichletSystem", "build_stiffness", "lumped_node_volumes",
           "sorted_scatter_add", "KSPSolver", "KSPResult", "NewtonSystem",
           "jacobi_preconditioner", "ssor_preconditioner"]
