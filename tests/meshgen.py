"""Deterministic mesh generators for the test and acceptance suites."""

import numpy as np

from minsec.mesh import TriMesh


def single_triangle():
    return TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])


def fan_disk(n=8, radius=1.0):
    """Center vertex plus ``n`` rim vertices, ``n`` faces."""
    ang = 2 * np.pi * np.arange(n) / n
    verts = np.zeros((n + 1, 3))
    verts[1:, 0] = radius * np.cos(ang)
    verts[1:, 1] = radius * np.sin(ang)
    tris = [[0, 1 + i, 1 + (i + 1) % n] for i in range(n)]
    return TriMesh(verts, tris)


def _ring_points(rings, radius):
    """Hex-pattern disk sampling: ring j carries 6j points."""
    pts = [(0.0, 0.0)]
    for j in range(1, rings + 1):
        r = radius * j / rings
        for i in range(6 * j):
            a = 2 * np.pi * i / (6 * j)
            pts.append((r * np.cos(a), r * np.sin(a)))
    return np.array(pts)


def _triangulate_planar(xy, keep=None):
    from scipy.spatial import Delaunay

    tri = Delaunay(xy).simplices
    p = xy[tri]
    signed = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                    - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    flip = signed < 0
    tri[flip] = tri[flip][:, [0, 2, 1]]
    if keep is not None:
        centroid = xy[tri].mean(axis=1)
        tri = tri[keep(centroid)]
    return tri


def disk(rings=8, area=1.0):
    """Flat disk of the given area; rings=8 gives 217 vertices."""
    radius = np.sqrt(area / np.pi)
    xy = _ring_points(rings, radius)
    tris = _triangulate_planar(xy)
    verts = np.column_stack([xy, np.zeros(len(xy))])
    return TriMesh(verts, tris)


def annulus(rings=8, r_inner=0.4, r_outer=1.0):
    pts = []
    for j in range(rings + 1):
        r = r_inner + (r_outer - r_inner) * j / rings
        n = max(8, int(round(2 * np.pi * r / ((r_outer - r_inner) / rings))))
        # stagger alternating rings to avoid degenerate cocircular quads
        off = 0.5 * (j % 2)
        for i in range(n):
            a = 2 * np.pi * (i + off) / n
            pts.append((r * np.cos(a), r * np.sin(a)))
    xy = np.array(pts)

    def keep(c):
        return np.hypot(c[:, 0], c[:, 1]) > r_inner * 1.001

    tris = _triangulate_planar(xy, keep=keep)
    verts = np.column_stack([xy, np.zeros(len(xy))])
    return TriMesh(verts, tris)


def spherical_cap(rings=8, sphere_radius=1.0, cap_angle=np.pi / 3):
    """Geodesic cap of half-angle ``cap_angle`` on a sphere, lifted from a disk."""
    rim = sphere_radius * np.sin(cap_angle)
    xy = _ring_points(rings, rim)
    tris = _triangulate_planar(xy)
    # map planar radius to polar angle proportionally, then lift
    rr = np.hypot(xy[:, 0], xy[:, 1])
    phi = cap_angle * rr / rim
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(rr > 0, sphere_radius * np.sin(phi) / rr, 0.0)
    verts = np.column_stack([xy[:, 0] * scale, xy[:, 1] * scale,
                             sphere_radius * np.cos(phi)])
    return TriMesh(verts, tris)


def saddle(rings=8, radius=1.0, bend=0.5):
    xy = _ring_points(rings, radius)
    tris = _triangulate_planar(xy)
    verts = np.column_stack([xy, bend * (xy[:, 0] ** 2 - xy[:, 1] ** 2)])
    return TriMesh(verts, tris)


def rectangle(nx=23, ny=24, width=1.0, height=1.0):
    """Structured grid rectangle; 23 x 24 gives 1012 faces."""
    xs = np.linspace(0, width, nx)
    ys = np.linspace(0, height, ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel(), np.zeros(nx * ny)])
    tris = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            a = i * ny + j
            b = (i + 1) * ny + j
            # alternate the diagonal for isotropy
            if (i + j) % 2 == 0:
                tris.append([a, b, b + 1])
                tris.append([a, b + 1, a + 1])
            else:
                tris.append([a, b, a + 1])
                tris.append([b, b + 1, a + 1])
    return TriMesh(verts, tris)


def punctured_torus(n_major=12, n_minor=8, major=1.0, minor=0.4):
    """Torus grid with the quad at grid position (0, 0) removed: genus 1, one
    boundary loop, so two harmonic face fields (``2 n_f - (n_v - 1 + n_ie)``)."""
    u = 2 * np.pi * np.arange(n_major) / n_major
    v = 2 * np.pi * np.arange(n_minor) / n_minor
    U, V = np.meshgrid(u, v, indexing="ij")
    ring = major + minor * np.cos(V)
    verts = np.column_stack([(ring * np.cos(U)).ravel(), (ring * np.sin(U)).ravel(),
                             (minor * np.sin(V)).ravel()])
    tris = []
    for i in range(n_major):
        for j in range(n_minor):
            if i == 0 and j == 0:
                continue
            a = i * n_minor + j
            b = (i + 1) % n_major * n_minor + j
            c = (i + 1) % n_major * n_minor + (j + 1) % n_minor
            d = i * n_minor + (j + 1) % n_minor
            tris.append([a, b, c])
            tris.append([a, c, d])
    return TriMesh(verts, tris)


def side_by_side(*meshes, gap=0.5):
    """The meshes as one, each shifted along x past the one before: one
    connected part per input mesh."""
    verts, tris, x, base = [], [], 0.0, 0
    for m in meshes:
        v = m.vertices - [m.vertices[:, 0].min() - x, 0.0, 0.0]
        verts.append(v)
        tris.append(m.triangles + base)
        x, base = v[:, 0].max() + gap, base + len(v)
    return TriMesh(np.vstack(verts), np.vstack(tris))


def icosahedron_open():
    """Unit icosahedron with one face removed (so it has a boundary)."""
    t = (1 + np.sqrt(5)) / 2
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts[0])
    tris = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ])
    return TriMesh(verts, tris[1:])


def tetrahedron():
    """Closed tetrahedron (no boundary); raw arrays, since TriMesh rejects it."""
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    tris = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
    return verts, tris


def write_obj(path, mesh):
    with open(path, "w") as fh:
        for v in mesh.vertices:
            fh.write("v %.17g %.17g %.17g\n" % tuple(v))
        for t in mesh.triangles:
            fh.write("f %d %d %d\n" % (t[0] + 1, t[1] + 1, t[2] + 1))
