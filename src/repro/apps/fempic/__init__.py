"""Mini-FEM-PIC: electrostatic 3-D unstructured FEM PIC in a duct."""
from .config import FemPicConfig
from .simulation import FemPicSimulation, inlet_table, sample_inlet_positions

__all__ = ["FemPicConfig", "FemPicSimulation", "inlet_table",
           "sample_inlet_positions"]
