"""Triangle meshes with boundary: loading, indexing, frames, and parallel transport."""

import numpy as np


class MeshError(ValueError):
    """Raised when an input mesh violates a structural precondition."""


def rowdot(x, y):
    """Row-wise dot products of ``(m, 3)`` arrays, rounded as ``np.dot`` rounds
    one pair (``einsum`` and ``(x * y).sum(1)`` sum in another order)."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


class TriMesh:
    """Indexed triangle mesh with at least one boundary loop.

    Parameters
    ----------
    vertices : (n_v, 3) array_like
        Vertex positions.
    triangles : (n_f, 3) array_like
        Vertex index triples, counterclockwise with respect to the
        outward normal. The orientation must be consistent: every
        interior edge is traversed once in each direction.

    Attributes
    ----------
    vertices : (n_v, 3) ndarray
    triangles : (n_f, 3) ndarray
    edges : (n_e, 2) ndarray
        Canonical undirected vertex pairs, sorted so ``edges[:, 0] < edges[:, 1]``.
    face_edge : (n_f, 3) ndarray
        Index into ``edges`` of the edge opposite each triangle corner.
    edge_faces : (n_e, 2) ndarray
        Incident face indices per edge; second entry is -1 on the boundary.
        Of two faces, the one whose ``face_edge`` column holding the edge
        is lower comes first, ties going to the lower face index.
    interior_edges : (n_ie,) ndarray
        Indices into ``edges`` of edges with two incident faces.
    boundary_edges : (n_be,) ndarray
        Indices into ``edges`` of edges with one incident face.
    boundary_halfedges : (n_be, 5) ndarray
        One row ``(v, w, face, edge, corner)`` per directed boundary edge
        ``v -> w`` (surface on the left); ``v`` runs through
        ``np.concatenate(boundary_loops)``. ``face`` is the edge's one
        face, ``edge`` indexes ``edges`` and ``corner`` is the corner of
        ``face`` opposite it, so ``v``, ``w`` sit at ``corner + 1``, ``+ 2`` (mod 3).
    boundary_loops : list of ndarray
        Ordered vertex cycles, oriented consistently with triangle
        orientation (surface on the left), each starting at, and
        ordered by, its lowest vertex index.
    face_area, vertex_area, total_area
        Triangle areas, one-third incident-area vertex masses, and their sum.
    face_normal, vertex_normal
        Unit face normals and area-weighted unit vertex normals.
    corner_angle : (n_f, 3) ndarray
        Interior angle at each triangle corner.
    """

    def __init__(self, vertices, triangles):
        self.vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
        if self.triangles.size and self.triangles.max() >= len(self.vertices):
            raise MeshError("triangle references vertex %d beyond vertex count %d"
                            % (self.triangles.max(), len(self.vertices)))
        if self.triangles.size and self.triangles.min() < 0:
            raise MeshError("triangle references negative vertex %d" % self.triangles.min())
        if len(self.triangles) == 0:
            raise MeshError("mesh has no triangles")
        self._check_distinct()
        self._build_geometry()
        self._build_boundary_loops(self._build_edges())

    # -- construction ------------------------------------------------------

    def _check_distinct(self):
        t = self.triangles
        bad = (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 2] == t[:, 0])
        if bad.any():
            raise MeshError("triangle %d has repeated vertices" % np.nonzero(bad)[0][0])

    def _build_geometry(self):
        p = self.vertices[self.triangles]           # (n_f, 3, 3)
        e01 = p[:, 1] - p[:, 0]
        e02 = p[:, 2] - p[:, 0]
        cross = np.cross(e01, e02)
        cn = np.linalg.norm(cross, axis=1)
        self.face_area = 0.5 * cn
        self.total_area = float(self.face_area.sum())
        floor = 1e-12 * self.total_area / len(self.triangles)
        small = self.face_area < floor
        if small.any():
            raise MeshError("triangle %d is degenerate (area %.3e below floor %.3e)"
                            % (np.nonzero(small)[0][0], self.face_area[small][0], floor))
        self.face_normal = cross / cn[:, None]

        self.vertex_area = np.zeros(len(self.vertices))
        np.add.at(self.vertex_area, self.triangles.ravel(),
                  np.repeat(self.face_area / 3.0, 3))

        weighted = np.zeros_like(self.vertices)
        np.add.at(weighted, self.triangles.ravel(),
                  np.repeat(self.face_normal * self.face_area[:, None], 3, axis=0))
        norms = np.linalg.norm(weighted, axis=1)
        self.vertex_normal = np.where(norms[:, None] > 0, weighted / np.maximum(norms, 1e-300)[:, None], 0.0)
        self._vertex_normal_norm = norms

        # interior angle at corner j, between edges to the other two vertices
        self.corner_angle = np.empty((len(self.triangles), 3))
        for j in range(3):
            u = p[:, (j + 1) % 3] - p[:, j]
            v = p[:, (j + 2) % 3] - p[:, j]
            cosang = np.einsum("ij,ij->i", u, v) / (
                np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
            self.corner_angle[:, j] = np.arccos(np.clip(cosang, -1.0, 1.0))

    def _build_edges(self):
        t = self.triangles
        n_v, n_f = len(self.vertices), len(t)
        # halfedge c = j * n_f + f runs tail -> head along the edge opposite corner j
        tail = t[:, [1, 2, 0]].T.ravel()
        head = t[:, [2, 0, 1]].T.ravel()
        lo, hi = np.minimum(tail, head), np.maximum(tail, head)
        keys, inv = np.unique(lo * n_v + hi, return_inverse=True)
        self.edges = np.column_stack([keys // n_v, keys % n_v])
        # face_edge[f, j] = global edge id opposite corner j
        self.face_edge = inv.reshape(3, -1).T.copy()

        n_e = len(self.edges)
        counts = np.bincount(inv, minlength=n_e)
        if counts.max() > 2:
            raise MeshError("non-manifold edge %d (%d incident faces)"
                            % (int(np.argmax(counts)), int(counts.max())))
        forward = np.bincount(inv[tail < head], minlength=n_e)
        flipped = (counts == 2) & (forward != 1)
        if flipped.any():
            raise MeshError("inconsistent triangle orientation at edge %d"
                            % np.nonzero(flipped)[0][0])
        # halfedges grouped by edge, in halfedge order within each edge
        by_edge = np.argsort(inv, kind="stable")
        first = np.cumsum(counts) - counts
        self.interior_edges = np.nonzero(counts == 2)[0]
        self.boundary_edges = np.nonzero(counts == 1)[0]
        self.edge_faces = np.full((n_e, 2), -1, dtype=np.int64)
        self.edge_faces[:, 0] = by_edge[first] % n_f
        self.edge_faces[self.interior_edges, 1] = by_edge[first[self.interior_edges] + 1] % n_f
        self.is_boundary_vertex = np.zeros(n_v, dtype=bool)
        self.is_boundary_vertex[self.edges[self.boundary_edges].ravel()] = True
        return by_edge[first[self.boundary_edges]]

    def _build_boundary_loops(self, halfedge):
        """Walk boundary halfedges (ids from :meth:`_build_edges`) into loops."""
        if len(self.boundary_edges) == 0:
            raise MeshError("no boundary loop (closed surfaces are not supported)")
        corner, face = np.divmod(halfedge, len(self.triangles))
        v = self.triangles[face, (corner + 1) % 3]
        w = self.triangles[face, (corner + 2) % 3]
        _, once = np.unique(v, return_index=True)
        if len(once) < len(v):
            raise MeshError("non-manifold boundary vertex %d"
                            % v[np.setdiff1d(np.arange(len(v)), once)[0]])
        leaving = np.zeros(len(self.vertices), dtype=np.int64)
        leaving[v] = np.arange(len(v))
        walk, starts = [], []
        visited = np.zeros(len(v), dtype=bool)
        for row in leaving[np.sort(v)]:
            if not visited[row]:
                starts.append(len(walk))
            while not visited[row]:
                visited[row] = True
                walk.append(row)
                row = leaving[w[row]]
        table = np.column_stack([v, w, face, self.boundary_edges, corner])
        self.boundary_halfedges = table[walk]
        self.boundary_loops = np.split(self.boundary_halfedges[:, 0], starts[1:])

    # -- queries -----------------------------------------------------------

    def euler_characteristic(self):
        return len(self.vertices) - len(self.edges) + len(self.triangles)


def load_mesh(path):
    """Read a triangulated OBJ file into a :class:`TriMesh`.

    Only ``v`` and ``f`` records are used; texture and normal indices in
    face records are ignored. Faces must be triangles and indices are
    1-based (negative indices count from the end, per the OBJ spec).
    """
    vertices = []
    faces = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                if len(parts) < 4:
                    raise MeshError("%s:%d: malformed vertex record" % (path, lineno))
                vertices.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                idx = []
                for tok in parts[1:]:
                    first = tok.split("/")[0]
                    if not first:
                        raise MeshError("%s:%d: malformed face record" % (path, lineno))
                    i = int(first)
                    if i == 0 or len(vertices) + i < 0:
                        raise MeshError("%s:%d: face index %d out of range (%d vertices read)"
                                        % (path, lineno, i, len(vertices)))
                    idx.append(i - 1 if i > 0 else len(vertices) + i)
                if len(idx) != 3:
                    raise MeshError("%s:%d: face has %d vertices; only triangles are supported"
                                    % (path, lineno, len(idx)))
                faces.append(idx)
    if not vertices:
        raise MeshError("%s: no vertices found" % path)
    return TriMesh(vertices, faces)


class TransportAtlas:
    """Intrinsic frames, parallel transport, and angle-defect curvature.

    Attributes
    ----------
    vertex_frame : (n_v, 2, 3) ndarray
        Orthonormal tangent pair per vertex (rows are the two axes).
    face_frame : (n_f, 2, 3) ndarray
        Orthonormal tangent pair per face.
    transport : (n_f, 3) ndarray of complex
        Unit transport coefficient from the vertex frame at corner j
        into the face frame.
    vertex_curvature : (n_v,) ndarray
        Angle defect divided by vertex area. Interior vertices use the
        flat reference 2*pi; boundary vertices use pi, so flat-disk
        boundaries carry zero curvature.
    """

    def __init__(self, mesh, vertex_frame, face_frame, transport):
        self.mesh = mesh
        self.vertex_frame = vertex_frame
        self.face_frame = face_frame
        self.transport = transport
        self._curvature()

    def _curvature(self):
        mesh = self.mesh
        angle_sum = np.zeros(len(mesh.vertices))
        np.add.at(angle_sum, mesh.triangles.ravel(), mesh.corner_angle.ravel())
        reference = np.where(mesh.is_boundary_vertex, np.pi, 2.0 * np.pi)
        self.vertex_curvature = (reference - angle_sum) / mesh.vertex_area


def build_transport(mesh, frame_rotation=None):
    """Construct frames and unit-complex parallel transport for ``mesh``.

    The vertex frame's first axis is the first incident edge (in face scan
    order) projected to the tangent plane of the area-weighted vertex
    normal; the face frame's first axis is the first triangle edge. The
    transport coefficient for corner j of face T is ``u + iv``, where
    ``(u, v)`` are the face-frame coordinates of the vertex frame's first
    axis turned by the principal (minimal) rotation taking the vertex
    normal onto the face normal.

    Parameters
    ----------
    mesh : TriMesh
    frame_rotation : (n_v,) array_like, optional
        Extra in-plane rotation (radians, counterclockwise about the
        vertex normal) applied to each vertex frame. Useful for testing
        frame independence.

    Returns
    -------
    TransportAtlas
    """
    nv = len(mesh.vertices)
    bad = mesh._vertex_normal_norm <= 1e-14 * mesh.total_area
    if bad.any():
        raise MeshError("cannot build a frame at vertex %d: zero normal" % np.nonzero(bad)[0][0])

    t = mesh.triangles
    p = mesh.vertices

    # every corner's outgoing edge, projected; each vertex takes its first usable one
    a, b = t.ravel(), t[:, [1, 2, 0]].ravel()
    n = mesh.vertex_normal[a]
    e = p[b] - p[a]
    e = e - rowdot(e, n)[:, None] * n
    ln = np.sqrt(rowdot(e, e))
    usable = np.nonzero(~(ln < 1e-14))[0]
    framed, first = np.unique(a[usable], return_index=True)
    if len(framed) < nv:
        raise MeshError("cannot build a frame at vertex %d: all incident edges project "
                        "to zero" % np.setdiff1d(np.arange(nv), framed)[0])
    pick = usable[first]
    vertex_e1 = e[pick] / ln[pick][:, None]
    if frame_rotation is not None:
        ang = np.asarray(frame_rotation, dtype=np.float64)
        e2 = np.cross(mesh.vertex_normal, vertex_e1)
        vertex_e1 = np.cos(ang)[:, None] * vertex_e1 + np.sin(ang)[:, None] * e2
    vertex_frame = np.stack([vertex_e1, np.cross(mesh.vertex_normal, vertex_e1)], axis=1)

    face_e1 = p[t[:, 1]] - p[t[:, 0]]
    face_e1 = face_e1 / np.linalg.norm(face_e1, axis=-1, keepdims=True)
    face_frame = np.stack([face_e1, np.cross(mesh.face_normal, face_e1)], axis=1)

    # transport coefficient per corner: turn e1 = F_a[0] by the Rodrigues
    # rotation R = I + [axis]_x + [axis]_x^2 / (1 + c) taking n_a onto n_T,
    # using [axis]_x^2 e1 = axis (axis . e1) - (1 - c^2) e1 for unit normals
    n_to = np.repeat(mesh.face_normal, 3, axis=0)
    axis = np.cross(n, n_to)
    c = rowdot(n, n_to)
    if np.any(c < -0.999999):
        raise MeshError("vertex and face normals are antipodal; mesh is badly folded")
    e1 = vertex_e1[a]
    turned = (c[:, None] * e1 + np.cross(axis, e1)
              + axis * (rowdot(axis, e1) / (1.0 + c))[:, None])
    Ft = np.repeat(face_frame, 3, axis=0)
    coeff = rowdot(turned, Ft[:, 0]) + 1j * rowdot(turned, Ft[:, 1])
    coeff /= np.abs(coeff)
    return TransportAtlas(mesh, vertex_frame, face_frame, coeff.reshape(len(t), 3))

