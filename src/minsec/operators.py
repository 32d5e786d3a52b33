"""Sparse discrete operators for a fixed mesh, degree, and frequency range.

Element blocks and the CSC pattern that every vertex matrix shares are
built once per (mesh, degree, radius) and reused across solver iterations.
A vertex system's values are summed into that pattern on request and not
cached: the solver builds and factors each one once.
Per-face quantities are kept as dense blocks (the mesh is unstructured but
each block is tiny), and the vertex/edge systems are scipy sparse.

This is the only implementation of the operators the solvers couple:
:func:`gradient_matrix` builds the conforming and the edge-midpoint
per-face gradients, :func:`assemble_boundary_rows` the boundary
circulation matrix, and ``OperatorSet.transport_pow`` holds the
transport powers that every frequency-``k`` operator reads.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .bundle import check_fiber


def quarter_turn(v):
    """Rotate 2-vectors (last axis) by +90 degrees in their face frame."""
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def gradient_matrix(corner_col, corner_grad, n_cols):
    """Sparse ``(2 n_f, n_cols)`` map from column values to per-face gradients.

    Row ``2*f + d`` sums ``corner_grad[f, d, j]`` times the value in column
    ``corner_col[f, j]`` over the corners ``j``; a column of -1 drops the corner.
    """
    f, j = np.nonzero(corner_col >= 0)
    rows = (2 * f[:, None] + np.arange(2)).ravel()
    cols = np.repeat(corner_col[f, j], 2)
    vals = corner_grad[f, :, j].ravel()
    return sp.csr_matrix((vals, (rows, cols)), shape=(2 * len(corner_col), n_cols))


@dataclass
class FemBlocks:
    """Per-face linear (hat) element data, expressed in face frames.

    hat_gradient[f, :, j] is the constant gradient of the hat function of
    corner j; corner_mass[f] is the exact 3x3 triangle mass block
    (area/6 diagonal, area/12 off-diagonal), corner_stiffness[f] the
    Dirichlet block ``area * grad^T grad``; ``gradient`` maps vertex
    values to per-face gradients (see :func:`gradient_matrix`). Element
    entry ``(f, i, j)`` sits at ``slot[f, i, j]`` in the data of ``pattern``.
    """

    hat_gradient: np.ndarray      # (n_f, 2, 3)
    corner_mass: np.ndarray       # (n_f, 3, 3)
    corner_stiffness: np.ndarray  # (n_f, 3, 3)
    face_area: np.ndarray         # (n_f,)
    corner_vertex: np.ndarray     # (n_f, 3)
    gradient: sp.csr_matrix       # (2 n_f, n_v)
    pattern: sp.csc_matrix        # (n_v, n_v), data all ones
    slot: np.ndarray              # (n_f, 3, 3)

    @property
    def corner_weight(self):
        """Quadrature weight of each corner sample: one third of its face."""
        return np.repeat(self.face_area[:, None] / 3.0, 3, axis=1)


def assemble_linear_fem(mesh, atlas):
    """Hat-function gradients, mass and stiffness blocks, and the vertex pattern."""
    p = mesh.vertices[mesh.triangles]                      # (n_f, 3, 3)
    rel = p - p[:, :1]
    q = np.einsum("fij,fkj->fki", atlas.face_frame, rel)   # (n_f, 3, 2) planar coords
    area = mesh.face_area
    grad = np.empty((len(mesh.triangles), 2, 3))
    for j in range(3):
        e = q[:, (j + 2) % 3] - q[:, (j + 1) % 3]
        grad[:, 0, j] = -e[:, 1] / (2 * area)
        grad[:, 1, j] = e[:, 0] / (2 * area)
    mass = area[:, None, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0)
    tri, n_v = mesh.triangles, len(mesh.vertices)
    # column-major key of entry (f, i, j): column tri[f, j], row tri[f, i]
    key, slot = np.unique(np.tile(tri, 3) * n_v + np.repeat(tri, 3, axis=1),
                          return_inverse=True)
    indptr = np.searchsorted(key, n_v * np.arange(n_v + 1))
    pattern = sp.csc_matrix((np.ones(len(key)), key % n_v, indptr), shape=(n_v, n_v))
    return FemBlocks(hat_gradient=grad, corner_mass=mass, face_area=area,
                     corner_stiffness=np.einsum("f,fdi,fdj->fij", area, grad, grad),
                     corner_vertex=tri, gradient=gradient_matrix(tri, grad, n_v),
                     pattern=pattern, slot=slot.reshape(-1, 3, 3))


def _element_scatter(fem, elem, coeff):
    """Sum ``conj(coeff_i) elem[f, i, j] coeff_j`` into a copy of the vertex
    pattern (so that an in-place change to one matrix reaches no other)."""
    vals = (np.conj(coeff)[:, :, None] * elem * coeff[:, None, :]).ravel()
    slot, p = fem.slot.ravel(), fem.pattern
    data = np.bincount(slot, vals.real, p.nnz) + 1j * np.bincount(slot, vals.imag, p.nnz)
    return sp.csc_matrix((data, p.indices, p.indptr), shape=p.shape, copy=True)


def assemble_stiffness(fem, coeff):
    """Covariant Dirichlet form: area-weighted gradient products with transport."""
    return _element_scatter(fem, fem.corner_stiffness, coeff)


def assemble_vertex_mass(fem, coeff):
    """Transport-conjugated vertex mass (corner mass pushed through incidence)."""
    return _element_scatter(fem, fem.corner_mass, coeff)


def assemble_frequency_laplacian(fem, coeff_k, k, radius):
    """Hermitian system matrix: Dirichlet part plus vertical mass ``(k/r)^2``.

    ``coeff_k`` holds the per-corner transport entries for this frequency.
    Positive semidefinite at ``k = 0`` and positive definite otherwise.
    """
    check_fiber(radius)
    elem = fem.corner_stiffness + (k * k / (radius * radius)) * fem.corner_mass
    return _element_scatter(fem, elem, coeff_k)


@dataclass
class CrBlocks:
    """Nonconforming (edge-midpoint) element data over interior edges.

    Boundary edges are eliminated (homogeneous Dirichlet). The gradient of
    the basis element of the edge opposite corner j is ``-2`` times the hat
    gradient of corner j, so the per-face blocks are shared with
    :class:`FemBlocks`. ``edge_col`` maps global edge ids to interior-edge
    columns (-1 on the boundary).
    """

    edge_col: np.ndarray          # (n_e,)
    interior_edges: np.ndarray    # (n_ie,) global edge ids
    gradient: sp.csr_matrix       # (2 n_f, n_ie)
    mass: np.ndarray              # (n_ie,) diagonal
    laplacian: sp.csc_matrix      # (n_ie, n_ie) symmetric PSD

    def shifted_laplacian(self, a, nu):
        """``a*M + nu*L``, the penalty factor of the edge-midpoint block."""
        return (a * sp.diags(self.mass) + nu * self.laplacian).tocsc()

    def mask_columns(self, edge_ids):
        """Interior-edge columns of the global edge ids ``edge_ids``."""
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        cols = self.edge_col[edge_ids]
        if np.any(cols < 0):
            raise ValueError("masked edge %d is not an interior edge" % edge_ids[cols < 0][0])
        return cols


def assemble_crouzeix_raviart(mesh, fem):
    """Edge-midpoint gradient, (diagonal) mass, and Laplacian over interior edges."""
    n_ie = len(mesh.interior_edges)
    if n_ie == 0:
        raise ValueError("mesh has no interior edges")
    edge_col = np.full(len(mesh.edges), -1, dtype=np.int64)
    edge_col[mesh.interior_edges] = np.arange(n_ie)
    gradient = gradient_matrix(edge_col[mesh.face_edge], -2.0 * fem.hat_gradient, n_ie)
    mass = (fem.face_area[mesh.edge_faces[mesh.interior_edges]] / 3.0).sum(axis=1)
    area2 = sp.diags(np.repeat(fem.face_area, 2))
    laplacian = (gradient.T @ area2 @ gradient).tocsc()
    return CrBlocks(edge_col=edge_col, interior_edges=mesh.interior_edges.copy(),
                    gradient=gradient, mass=mass, laplacian=laplacian)


def assemble_boundary_rows(mesh, atlas):
    """Sparse ``(n_be, 2 n_f)`` boundary circulation matrix.

    Applied to a per-face 2-vector field (raveled ``(n_f, 2)``), it
    integrates the field along each boundary edge (surface on the left).
    Row order matches ``TriMesh.boundary_halfedges``.
    """
    v, w, face = mesh.boundary_halfedges[:, :3].T
    vec3 = mesh.vertices[w] - mesh.vertices[v]
    edge_vec = np.einsum("bij,bj->bi", atlas.face_frame[face], vec3)
    n_be = len(face)
    rows = np.repeat(np.arange(n_be), 2)
    cols = (2 * face[:, None] + np.arange(2)).ravel()
    return sp.csr_matrix((edge_vec.ravel(), (rows, cols)),
                         shape=(n_be, 2 * len(mesh.triangles)))


@dataclass
class OperatorSet:
    """All assembled operators for a fixed (mesh, degree, radius, k_max)."""

    mesh: object
    degree: int
    radius: float
    fem: FemBlocks = None
    cr: CrBlocks = None
    boundary: sp.csr_matrix = None        # (n_be, 2 n_f) circulation rows
    transport_d: np.ndarray = None        # (n_f, 3) degree-d transport coefficients
    transport_pow: np.ndarray = None      # (n_f, 3, k_max + 1) transport_d ** -k
    corner_incidence: sp.csr_matrix = None  # (n_v, 3 n_f) corner 3*f + j -> its vertex

    @classmethod
    def assemble(cls, mesh, atlas, degree, radius, k_max):
        ops = cls(mesh=mesh, degree=degree, radius=radius)
        ops.fem = assemble_linear_fem(mesh, atlas)
        ops.cr = assemble_crouzeix_raviart(mesh, ops.fem)
        ops.boundary = assemble_boundary_rows(mesh, atlas)
        ops.transport_d = atlas.transport ** degree
        ks = np.arange(k_max + 1)
        ops.transport_pow = ops.transport_d[:, :, None] ** -ks
        n_c = mesh.triangles.size
        ops.corner_incidence = sp.csr_matrix(
            (np.ones(n_c), (mesh.triangles.ravel(), np.arange(n_c))),
            shape=(len(mesh.vertices), n_c))
        return ops

    def transport_k(self, k):
        """Per-corner transport entries at frequency ``k`` (degree folded in)."""
        return self.transport_pow[:, :, k] if k >= 0 else np.conj(self.transport_pow[:, :, -k])

    def stiffness(self, k):
        return assemble_stiffness(self.fem, self.transport_k(k))

    def vertex_mass(self, k):
        return assemble_vertex_mass(self.fem, self.transport_k(k))

    def laplacian(self, k):
        return assemble_frequency_laplacian(self.fem, self.transport_k(k), k, self.radius)

    # -- per-face helpers used every iteration ---------------------------

    def cr_face_gradient(self, phi):
        """Per-face constant gradient of an interior-edge function (0 on boundary edges)."""
        return (self.cr.gradient @ phi).reshape(-1, 2)
