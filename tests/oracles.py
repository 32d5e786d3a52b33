"""References that the tests check the library against: closed forms and
the plain COO assembly of the vertex matrices."""

import numpy as np
import scipy.sparse as sp


def fejer_delta(gamma0, k_max, theta):
    """Nonnegative kernel ``sum_{|k|<=K} (1 - |k|/K) e^{ik(theta - gamma0)}``.

    Peaks at ``theta = gamma0`` with value ``K``; its mean over the circle
    is 1 (only the zero frequency survives integration).
    """
    x = np.asarray(theta) - gamma0
    k = np.arange(1, k_max + 1)
    weights = 1.0 - k / k_max
    return 1.0 + 2.0 * np.cos(np.multiply.outer(x, k)) @ weights


def coo_element_scatter(fem, elem, coeff):
    """``sum_f conj(coeff_i) elem[f, i, j] coeff_j`` through a COO matrix.

    The nine corner pairs of every face become COO triplets; the CSC
    conversion sorts them and sums the duplicates.
    """
    tri = fem.corner_vertex
    n_v = fem.pattern.shape[0]
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(tri[:, i])
            cols.append(tri[:, j])
            vals.append(np.conj(coeff[:, i]) * elem[:, i, j] * coeff[:, j])
    return sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n_v, n_v))


def coo_stiffness(fem, coeff):
    """Covariant Dirichlet form, element blocks ``area * grad^T grad``."""
    elem = np.einsum("f,fdi,fdj->fij", fem.face_area, fem.hat_gradient, fem.hat_gradient)
    return coo_element_scatter(fem, elem, coeff)


def coo_vertex_mass(fem, coeff):
    """Transport-conjugated vertex mass, element blocks ``area/12 (I + 1 1^T)``."""
    elem = fem.face_area[:, None, None] * (np.ones((3, 3)) + np.eye(3)) / 12.0
    return coo_element_scatter(fem, elem, coeff)


def coo_frequency_laplacian(fem, coeff_k, k, radius):
    """Stiffness plus ``(k/r)^2`` vertex mass, each scattered on its own and added."""
    return (coo_stiffness(fem, coeff_k)
            + (k * k / (radius * radius)) * coo_vertex_mass(fem, coeff_k)).tocsc()


def scatter_corners(ops, corner_values):
    """Adjoint of the covariant incidence at frequencies ``0..n_k-1`` at once.

    ``corner_values[f, j, k]`` is the frequency-``k`` value at corner ``j``
    of face ``f``; returns the conj-transported corner sums per vertex as
    ``(n_v, n_k)``.
    """
    n_k = corner_values.shape[-1]
    vals = np.conj(ops.transport_pow[:, :, :n_k]) * corner_values
    return ops.corner_incidence @ vals.reshape(-1, n_k)
