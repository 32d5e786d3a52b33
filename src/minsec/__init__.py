"""Directional fields with explicitly optimized singularities.

Fields of any degree (1 = unit vector, 2 = line, 4 = cross) on triangle
meshes with boundary, computed by a convex relaxation over generalized
surfaces in a circle bundle and solved with an ADMM splitting; extraction
and diagnostics round the relaxed solution back to a field.
"""

from .bundle import (FiberDiscretization, fejer_delta, fourier_forward,
                     fourier_inverse, make_boundary_data, make_kappa_bar)
from .extract import (ExtractedField, SingularitySet, baseline_smoothest_field,
                      concentration_cdf, extract_field, extract_singularities,
                      face_angle_gradient, fiber_w2, graph_area)
from .mesh import MeshError, TransportAtlas, TriMesh, build_transport, load_mesh
from .operators import OperatorSet
from .reduced import ReducedSolution, solve_reduced
from .solver import BundleState, SolverConfig, SolveResult, run_admm

__all__ = [
    "BundleState", "ExtractedField", "FiberDiscretization", "MeshError",
    "OperatorSet", "ReducedSolution", "SingularitySet", "SolveResult",
    "SolverConfig", "TransportAtlas", "TriMesh",
    "baseline_smoothest_field", "build_transport", "concentration_cdf",
    "extract_field", "extract_singularities", "face_angle_gradient",
    "fejer_delta", "fiber_w2", "fourier_forward", "fourier_inverse",
    "graph_area", "load_mesh", "make_boundary_data", "make_kappa_bar",
    "run_admm", "solve_reduced",
]

__version__ = "0.1.0"
