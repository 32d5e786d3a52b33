"""Sparse discrete operators for a fixed mesh, degree, and frequency range.

Element blocks are assembled once per (mesh, degree, radius) and reused
across solver iterations. Vertex systems are assembled on request and
not cached: the solver builds and factors each one once.
Per-face quantities are kept as dense blocks (the mesh is unstructured but
each block is tiny), and the vertex/edge systems are scipy sparse.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


def quarter_turn(v):
    """Rotate 2-vectors (last axis) by +90 degrees in their face frame."""
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


@dataclass
class FemBlocks:
    """Per-face linear (hat) element data, expressed in face frames.

    hat_gradient[f, :, j] is the constant gradient of the hat function of
    corner j; corner_mass[f] is the exact 3x3 triangle mass block
    (area/6 diagonal, area/12 off-diagonal).
    """

    hat_gradient: np.ndarray      # (n_f, 2, 3)
    corner_mass: np.ndarray       # (n_f, 3, 3)
    face_area: np.ndarray         # (n_f,)
    corner_vertex: np.ndarray     # (n_f, 3)

    @property
    def corner_weight(self):
        """Quadrature weight of each corner sample: one third of its face."""
        return np.repeat(self.face_area[:, None] / 3.0, 3, axis=1)


def assemble_linear_fem(mesh, atlas):
    """Hat-function gradients and mass blocks on every face."""
    p = mesh.vertices[mesh.triangles]                      # (n_f, 3, 3)
    rel = p - p[:, :1]
    q = np.einsum("fij,fkj->fki", atlas.face_frame, rel)   # (n_f, 3, 2) planar coords
    area = mesh.face_area
    grad = np.empty((len(mesh.triangles), 2, 3))
    for j in range(3):
        e = q[:, (j + 2) % 3] - q[:, (j + 1) % 3]
        grad[:, 0, j] = -e[:, 1] / (2 * area)
        grad[:, 1, j] = e[:, 0] / (2 * area)
    mass = (np.ones((3, 3)) + np.eye(3)) / 12.0
    mass = area[:, None, None] * mass
    return FemBlocks(hat_gradient=grad, corner_mass=mass, face_area=area,
                     corner_vertex=mesh.triangles)


def _element_scatter(fem, elem, coeff):
    """Assemble sum_T conj(coeff_i) elem[T,i,j] coeff_j into a sparse matrix."""
    tri = fem.corner_vertex
    n_v = tri.max() + 1
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(tri[:, i])
            cols.append(tri[:, j])
            vals.append(np.conj(coeff[:, i]) * elem[:, i, j] * coeff[:, j])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return sp.csc_matrix((vals, (rows, cols)), shape=(n_v, n_v))


def assemble_stiffness(fem, coeff):
    """Covariant Dirichlet form: area-weighted gradient products with transport."""
    elem = np.einsum("f,fdi,fdj->fij", fem.face_area, fem.hat_gradient, fem.hat_gradient)
    return _element_scatter(fem, elem, coeff)


def assemble_vertex_mass(fem, coeff):
    """Transport-conjugated vertex mass (corner mass pushed through incidence)."""
    return _element_scatter(fem, fem.corner_mass, coeff)


def assemble_frequency_laplacian(fem, coeff_k, k, radius):
    """Hermitian system matrix: Dirichlet part plus vertical mass ``(k/r)^2``.

    ``coeff_k`` holds the per-corner transport entries for this frequency.
    Positive semidefinite at ``k = 0`` and positive definite otherwise.
    """
    if radius <= 0:
        raise ValueError("fiber radius must be positive")
    L = assemble_stiffness(fem, coeff_k)
    if k != 0:
        L = L + (k * k / (radius * radius)) * assemble_vertex_mass(fem, coeff_k)
    return L.tocsc()


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
    face_edge_col: np.ndarray     # (n_f, 3) column of edge opposite corner j, -1 if boundary
    gradient: sp.csr_matrix       # (2 n_f, n_ie)
    mass: np.ndarray              # (n_ie,) diagonal
    laplacian: sp.csc_matrix      # (n_ie, n_ie) symmetric PSD


def assemble_crouzeix_raviart(mesh, fem):
    """Edge-midpoint gradient, (diagonal) mass, and Laplacian over interior edges."""
    n_ie = len(mesh.interior_edges)
    if n_ie == 0:
        raise ValueError("mesh has no interior edges")
    n_f = len(mesh.triangles)
    edge_col = np.full(len(mesh.edges), -1, dtype=np.int64)
    edge_col[mesh.interior_edges] = np.arange(n_ie)
    face_edge_col = edge_col[mesh.face_edge]

    rows, cols, vals = [], [], []
    for j in range(3):
        keep = face_edge_col[:, j] >= 0
        f = np.nonzero(keep)[0]
        for d in range(2):
            rows.append(2 * f + d)
            cols.append(face_edge_col[f, j])
            vals.append(-2.0 * fem.hat_gradient[f, d, j])
    gradient = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(2 * n_f, n_ie))

    mass = np.zeros(n_ie)
    for j in range(3):
        keep = face_edge_col[:, j] >= 0
        np.add.at(mass, face_edge_col[keep, j], fem.face_area[keep] / 3.0)

    area2 = sp.diags(np.repeat(fem.face_area, 2))
    laplacian = (gradient.T @ area2 @ gradient).tocsc()
    return CrBlocks(edge_col=edge_col, interior_edges=mesh.interior_edges.copy(),
                    face_edge_col=face_edge_col, gradient=gradient, mass=mass,
                    laplacian=laplacian)


@dataclass
class BoundaryRows:
    """Tangential line-integral rows along the oriented boundary.

    Applying :meth:`circulation` to a per-face 2-vector field integrates it
    along each boundary edge (surface on the left). Row order matches
    ``TriMesh.boundary_halfedges()``.
    """

    face: np.ndarray              # (n_be,)
    edge_vec: np.ndarray          # (n_be, 2) in face frame

    def circulation(self, face_field):
        return np.einsum("bd,bd->b", face_field[self.face], self.edge_vec)


def assemble_boundary_rows(mesh, atlas):
    halfedges = mesh.boundary_halfedges()
    face = np.array([f for _, _, f, _ in halfedges], dtype=np.int64)
    vw = np.array([(v, w) for v, w, _, _ in halfedges], dtype=np.int64)
    vec3 = mesh.vertices[vw[:, 1]] - mesh.vertices[vw[:, 0]]
    edge_vec = np.einsum("bij,bj->bi", atlas.face_frame[face], vec3)
    return BoundaryRows(face=face, edge_vec=edge_vec)


@dataclass
class OperatorSet:
    """All assembled operators for a fixed (mesh, degree, radius, k_max)."""

    mesh: object
    atlas: object
    degree: int
    radius: float
    k_max: int
    fem: FemBlocks = None
    cr: CrBlocks = None
    boundary: BoundaryRows = None
    transport_d: np.ndarray = None        # (n_f, 3) degree-d transport coefficients

    @classmethod
    def assemble(cls, mesh, atlas, degree, radius, k_max):
        ops = cls(mesh=mesh, atlas=atlas, degree=degree, radius=radius, k_max=k_max)
        ops.fem = assemble_linear_fem(mesh, atlas)
        ops.cr = assemble_crouzeix_raviart(mesh, ops.fem)
        ops.boundary = assemble_boundary_rows(mesh, atlas)
        ops.transport_d = atlas.transport ** degree
        return ops

    def transport_k(self, k):
        """Per-corner transport entries at frequency ``k`` (degree folded in)."""
        return self.transport_d ** (-k)

    def stiffness(self, k):
        return assemble_stiffness(self.fem, self.transport_k(k))

    def vertex_mass(self, k):
        return assemble_vertex_mass(self.fem, self.transport_k(k))

    def laplacian(self, k):
        return assemble_frequency_laplacian(self.fem, self.transport_k(k), k, self.radius)

    # -- per-face helpers used every iteration ---------------------------

    def cr_face_gradient(self, phi):
        """Per-face constant gradient of an interior-edge function (0 on boundary edges)."""
        cols = self.cr.face_edge_col
        vals = np.where(cols >= 0, phi[np.maximum(cols, 0)], 0.0)
        return np.einsum("fdj,fj->fd", -2.0 * self.fem.hat_gradient, vals)

    def scatter_corners(self, corner_values, k):
        """Adjoint of the covariant incidence: conj-transported corner sums per vertex."""
        t = np.conj(self.transport_k(k)).ravel()
        vals = t * corner_values.ravel()
        idx = self.fem.corner_vertex.ravel()
        n_v = len(self.mesh.vertices)
        out = np.bincount(idx, weights=vals.real, minlength=n_v).astype(complex)
        out += 1j * np.bincount(idx, weights=vals.imag, minlength=n_v)
        return out
