"""Directional fields with explicitly optimized singularities.

Fields of any degree (1 = unit vector, 2 = line, 4 = cross) on triangle
meshes with boundary, computed by a convex relaxation over generalized
surfaces in a circle bundle and solved with an ADMM splitting; extraction
and diagnostics round the relaxed solution back to a field.
"""

from .extract import concentration_cdf, extract_field, extract_singularities
from .mesh import TriMesh, load_mesh
from .solver import SolverConfig, run_admm

__all__ = [
    "SolverConfig", "TriMesh", "concentration_cdf", "extract_field",
    "extract_singularities", "load_mesh", "run_admm",
]

__version__ = "0.1.0"
