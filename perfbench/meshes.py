"""Seeded test meshes for the benchmark, kept apart from the test suite's
generators so that a change there cannot move the benchmark.

Each generator returns ``(vertices, triangles)`` arrays. Interior vertices
are jittered by a seeded random offset of at most ``JITTER`` times the
ring spacing; boundary vertices stay on the circle, so the boundary edge
count (``6 * rings``) does not depend on the seed.
"""

import numpy as np
from scipy.spatial import Delaunay

JITTER = 0.05


def _jittered_rings(rings, radius, seed):
    """Hex-pattern disk sampling (ring j carries 6j points), interior jittered."""
    pts = [(0.0, 0.0)]
    for j in range(1, rings + 1):
        r = radius * j / rings
        a = 2 * np.pi * np.arange(6 * j) / (6 * j)
        pts.extend(zip(r * np.cos(a), r * np.sin(a)))
    xy = np.array(pts)
    n_interior = 1 + 3 * rings * (rings - 1)       # points on rings 0 .. rings-1
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0.0, 2 * np.pi, n_interior)
    mag = rng.uniform(0.0, JITTER * radius / rings, n_interior)
    xy[:n_interior] += np.column_stack([mag * np.cos(ang), mag * np.sin(ang)])
    return xy


def _triangulate(xy):
    """Delaunay triangles, oriented counterclockwise."""
    tri = Delaunay(xy).simplices
    p = xy[tri]
    signed = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
              - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    flip = signed < 0
    tri[flip] = tri[flip][:, [0, 2, 1]]
    return tri


def disk(rings, seed, area=1.0):
    """Flat disk of the given area; 36 rings give 3997 vertices, 72 give 15769."""
    xy = _jittered_rings(rings, np.sqrt(area / np.pi), seed)
    return np.column_stack([xy, np.zeros(len(xy))]), _triangulate(xy)


def spherical_cap(rings, seed, sphere_radius=1.0, cap_angle=np.pi / 3):
    """Geodesic cap of half-angle ``cap_angle``, lifted from a planar disk.

    24 rings give 1801 vertices.
    """
    rim = sphere_radius * np.sin(cap_angle)
    xy = _jittered_rings(rings, rim, seed)
    tri = _triangulate(xy)
    rr = np.hypot(xy[:, 0], xy[:, 1])
    polar = cap_angle * rr / rim
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(rr > 0, sphere_radius * np.sin(polar) / rr, 0.0)
    verts = np.column_stack([xy[:, 0] * scale, xy[:, 1] * scale,
                             sphere_radius * np.cos(polar)])
    return verts, tri


def write_obj(path, vertices, triangles):
    """ASCII OBJ with 1-based indices, positions at full precision."""
    with open(path, "w") as fh:
        for v in vertices:
            fh.write("v %.17g %.17g %.17g\n" % tuple(v))
        for t in triangles:
            fh.write("f %d %d %d\n" % (t[0] + 1, t[1] + 1, t[2] + 1))
