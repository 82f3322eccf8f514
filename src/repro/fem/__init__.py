"""FEM substrate: P1 assembly and a KSP-style CG solver (PETSc substitute)."""
from .assembly import DirichletSystem, build_stiffness, \
    lumped_node_volumes, sorted_scatter_add
from .newton import NewtonPattern, NewtonSystem
from .solver import KSPResult, KSPSolver

__all__ = ["DirichletSystem", "build_stiffness", "lumped_node_volumes",
           "sorted_scatter_add", "KSPSolver", "KSPResult", "NewtonSystem",
           "NewtonPattern"]
