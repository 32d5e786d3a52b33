"""Vertically symmetric limit: an L1-regularized inverse Poisson solve.

With the fiber machinery switched off, the relaxation collapses to
choosing a sparse cone-density against a Dirichlet potential. The same
edge shrinkage, penalty update and edge-midpoint operators are reused;
one symmetric system is factored per penalty value.

The potential step solves ``(2L + nu L M^-1 L) phi = nu L g``, which is
``L M^-1 (2M + nu L) phi = nu L g``. The edge-midpoint Laplacian ``L`` is
nonsingular (Dirichlet on boundary edges), so the solve factors
``2M + nu L``, with the sparsity of ``L``, and never forms ``L M^-1 L``.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import build_transport
from .operators import assemble_crouzeix_raviart, assemble_linear_fem
from .solver import adapt_penalty, local_step_gamma, spd_lu


@dataclass
class ReducedSolution:
    phi: np.ndarray
    gamma: np.ndarray
    objective: float
    converged: bool
    iterations: int
    residual_history: np.ndarray
    feasibility: float          # density-constraint violation at termination


def solve_reduced(mesh, kappa_bar, lam_eff, eps=1e-6, max_iters=20000, mask=None):
    """Minimize Dirichlet energy plus ``lam_eff`` times the cone mass.

    The potential is zero on the boundary; the density and curvature are
    coupled through the edge-midpoint Poisson row. ``lam_eff`` is the
    effective sparsity weight (callers derive it from the regularization
    weight and fiber length). The penalty starts at 1.
    """
    if lam_eff < 0:
        raise ValueError("effective sparsity weight must be nonnegative")
    atlas = build_transport(mesh)
    fem = assemble_linear_fem(mesh, atlas)
    cr = assemble_crouzeix_raviart(mesh, fem)
    kappa_bar = np.asarray(kappa_bar, dtype=float)
    n_ie = len(mesh.interior_edges)
    if kappa_bar.shape != (n_ie,):
        raise ValueError("curvature density must have one value per interior edge")

    mask_cols = None if mask is None else cr.mask_columns(mask)

    L = cr.laplacian

    gamma = kappa_bar.copy()
    z = np.zeros(n_ie)
    phi = np.zeros(n_ie)
    nu = 1.0
    lu = None
    lu_nu = None
    history = []
    converged = False
    for it in range(max_iters):
        if lu is None or lu_nu != nu:
            lu = spd_lu(cr.shifted_laplacian(2.0, nu))
            lu_nu = nu
        phi = lu.solve(nu * cr.mass * (gamma - kappa_bar + z))
        target = (L @ phi) / cr.mass + kappa_bar
        prev = gamma
        gamma = local_step_gamma(target - z, nu, lam_eff, mask_cols)
        z = z + gamma - target
        r_p = np.sqrt(np.sum(cr.mass * (gamma - target) ** 2))
        r_d = np.sqrt(np.sum(cr.mass * (gamma - prev) ** 2))
        history.append((r_p, r_d))
        nu, s = adapt_penalty(nu, r_p, r_d)
        if s != 1.0:
            z = z * s
        if r_p < eps and r_d < eps:
            converged = True
            break

    feas = np.sqrt(np.sum(cr.mass * ((L @ phi) / cr.mass - (gamma - kappa_bar)) ** 2))
    objective = float(phi @ (L @ phi) + lam_eff * np.sum(cr.mass * np.abs(gamma)))
    return ReducedSolution(phi=phi, gamma=gamma, objective=objective,
                           converged=converged, iterations=len(history),
                           residual_history=np.array(history), feasibility=feas)
