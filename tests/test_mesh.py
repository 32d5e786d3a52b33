from types import SimpleNamespace

import numpy as np
import pytest

import meshgen
from minsec.cli import main
from minsec.mesh import MeshError, TriMesh, build_transport, load_mesh
from minsec.operators import OperatorSet


def test_single_triangle_load(tmp_path):
    path = tmp_path / "tri.obj"
    meshgen.write_obj(path, meshgen.single_triangle())
    mesh = load_mesh(path)
    assert len(mesh.triangles) == 1
    assert mesh.total_area == pytest.approx(0.5)
    assert len(mesh.boundary_loops) == 1
    assert len(mesh.boundary_loops[0]) == 3


def test_fan_disk_counts():
    mesh = meshgen.fan_disk(8)
    assert len(mesh.triangles) == 8
    interior = ~mesh.is_boundary_vertex
    assert interior.sum() == 1
    assert len(mesh.boundary_loops) == 1
    assert len(mesh.boundary_loops[0]) == 8


def test_closed_surface_rejected():
    verts, tris = meshgen.tetrahedron()
    with pytest.raises(MeshError, match="no boundary loop"):
        TriMesh(verts, tris)


def test_nonmanifold_edge_rejected():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]], dtype=float)
    tris = [[0, 1, 2], [0, 3, 1], [0, 1, 4]]
    with pytest.raises(MeshError, match="non-manifold edge"):
        TriMesh(verts, tris)


def _reverse_face(mesh, n_boundary, nth):
    """Vertices and triangles of ``mesh`` with the ``nth`` face that has
    ``n_boundary`` boundary vertices listed clockwise."""
    tris = mesh.triangles.copy()
    f = np.nonzero(mesh.is_boundary_vertex[tris].sum(axis=1) == n_boundary)[0][nth]
    tris[f] = tris[f, ::-1]
    return mesh.vertices, tris


def test_inconsistent_orientation_rejected(tmp_path, capsys):
    # an interior face reversed: without the check this mesh solves to a wrong field
    cap = _reverse_face(meshgen.spherical_cap(6), n_boundary=0, nth=3)
    # a face with a boundary edge reversed: without it, a misleading boundary error
    disk = _reverse_face(meshgen.disk(5, area=1), n_boundary=2, nth=0)
    for verts, tris in (cap, disk):
        with pytest.raises(MeshError, match="inconsistent triangle orientation at edge"):
            TriMesh(verts, tris)
    path = tmp_path / "flipped.obj"
    meshgen.write_obj(path, SimpleNamespace(vertices=cap[0], triangles=cap[1]))
    code = main(["--mesh", str(path), "--degree", "4", "--fiber-n", "16",
                 "--max-iters", "100", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: inconsistent triangle orientation")


def test_degenerate_triangle_rejected():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0]]
    tris = [[0, 1, 2], [0, 1, 3]]  # second triangle has zero area
    with pytest.raises(MeshError, match="degenerate"):
        TriMesh(verts, tris)


def test_obj_parse_failure(tmp_path, capsys):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3 4\n")
    with pytest.raises(MeshError, match="triangles"):
        load_mesh(path)

    # face index 0, and negative indices reaching before the first vertex
    disk = meshgen.disk(5, area=1)
    n_v = len(disk.vertices)
    v_lines = ["v %.17g %.17g %.17g\n" % tuple(p) for p in disk.vertices]
    f_lines = ["f %d %d %d\n" % tuple(t + 1) for t in disk.triangles]
    wrapped = ["f %d %d %d\n" % tuple(t - 2 * n_v) for t in disk.triangles]
    cases = [(v_lines + wrapped, n_v + 1, -2 * n_v + disk.triangles[0, 0]),
             (v_lines + ["f -101 54 53\n"] + f_lines, n_v + 1, -101),
             (["f 0 2 3\n"] + v_lines + f_lines, 1, 0)]
    for k, (lines, lineno, index) in enumerate(cases):
        path = tmp_path / ("index%d.obj" % k)
        path.write_text("".join(lines))
        with pytest.raises(MeshError, match=r"%s:%d: face index %d out of range"
                           % (path.name, lineno, index)):
            load_mesh(path)
    with pytest.raises(MeshError, match="negative vertex"):
        TriMesh(disk.vertices, disk.triangles - n_v)

    code = main(["--mesh", str(tmp_path / "index0.obj"), "--degree", "4", "--fiber-n", "16",
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: ") and "out of range" in err[0]


def test_area_bookkeeping():
    for mesh in (meshgen.disk(5), meshgen.spherical_cap(5), meshgen.saddle(5)):
        assert mesh.vertex_area.sum() == pytest.approx(mesh.total_area, rel=1e-12)
        assert mesh.face_area.sum() == pytest.approx(mesh.total_area, rel=1e-12)


def test_boundary_loop_orientation():
    # CCW triangles with +z normal: boundary loop must run counterclockwise
    mesh = meshgen.fan_disk(12)
    loop = mesh.boundary_loops[0]
    pts = mesh.vertices[loop][:, :2]
    signed = 0.5 * np.sum(pts[:, 0] * np.roll(pts[:, 1], -1) - np.roll(pts[:, 0], -1) * pts[:, 1])
    assert signed > 0


def test_boundary_halfedge_table():
    annulus, rect = meshgen.annulus(4), meshgen.rectangle()
    assert len(annulus.boundary_loops) == 2
    for mesh in (annulus, rect):
        table = mesh.boundary_halfedges
        v, w, face, edge, corner = table.T
        np.testing.assert_array_equal(np.sort(edge), mesh.boundary_edges)
        # rows chain within each loop and wrap at the loop's end
        start = 0
        for loop in mesh.boundary_loops:
            rows = table[start:start + len(loop)]
            np.testing.assert_array_equal(rows[:, 0], loop)
            np.testing.assert_array_equal(rows[:, 1], np.roll(loop, -1))
            start += len(loop)
        assert start == len(table)
        # v -> w runs counterclockwise in face, along the edge opposite corner
        tri = mesh.triangles[face]
        i = np.arange(len(table))
        np.testing.assert_array_equal(tri[i, (corner + 1) % 3], v)
        np.testing.assert_array_equal(tri[i, (corner + 2) % 3], w)
        np.testing.assert_array_equal(mesh.face_edge[face, corner], edge)
        np.testing.assert_array_equal(mesh.edges[edge], np.sort(table[:, :2], axis=1))
        np.testing.assert_array_equal(mesh.edge_faces[edge, 0], face)
        # every edge_faces entry contains its edge, filled in face_edge column-major order
        eid, side = np.nonzero(mesh.edge_faces >= 0)
        assert (mesh.face_edge[mesh.edge_faces[eid, side]] == eid[:, None]).any(axis=1).all()
        expected = [[] for _ in mesh.edges]
        for j in range(3):
            for f, e in enumerate(mesh.face_edge[:, j]):
                expected[e].append(f)
        np.testing.assert_array_equal(mesh.edge_faces, [fs + [-1] * (2 - len(fs)) for fs in expected])
    # the rectangle's corner faces carry two boundary edges
    assert np.bincount(rect.boundary_halfedges[:, 2]).max() == 2


def test_planar_transport_is_identity():
    mesh = meshgen.disk(4)
    atlas = build_transport(mesh)
    # all frames live in the z=0 plane; transports must be unit phases
    np.testing.assert_allclose(np.abs(atlas.transport), 1.0, atol=1e-12)
    # a globally constant direction, written per-vertex then moved to each
    # face, must be frame independent: rho * (frame coords of x-hat) agree
    xhat = np.array([1.0, 0.0, 0.0])
    zv = atlas.vertex_frame @ xhat
    zv = zv[:, 0] + 1j * zv[:, 1]
    zf = atlas.face_frame @ xhat
    zf = zf[:, 0] + 1j * zf[:, 1]
    moved = atlas.transport * zv[mesh.triangles]
    np.testing.assert_allclose(moved, np.repeat(zf[:, None], 3, axis=1), atol=1e-10)


def test_planar_rotated_frames_transport():
    # rotating a vertex frame by alpha multiplies coordinates by e^{-i alpha},
    # so the transport picks up e^{+i alpha}
    mesh = meshgen.disk(3)
    rng = np.random.default_rng(7)
    alpha = rng.uniform(-np.pi, np.pi, len(mesh.vertices))
    base = build_transport(mesh)
    rot = build_transport(mesh, frame_rotation=alpha)
    expected = base.transport * np.exp(1j * alpha)[mesh.triangles]
    np.testing.assert_allclose(rot.transport, expected, atol=1e-10)


def test_transport_matches_rotation_matrix():
    # oracle: the full Rodrigues matrix R = I + [a]_x + [a]_x^2 / (1 + c)
    # taking the vertex normal onto the face normal; the 2x2 block of
    # F_T R F_a^T is a rotation [[u, -v], [v, u]], read off as u + iv
    rng = np.random.default_rng(11)
    for mesh in (meshgen.spherical_cap(6), meshgen.saddle(6)):
        atlas = build_transport(mesh, frame_rotation=rng.uniform(-np.pi, np.pi,
                                                                  len(mesh.vertices)))
        expected = np.empty(mesh.triangles.shape, dtype=complex)
        for f, tri in enumerate(mesh.triangles):
            n_t = mesh.face_normal[f]
            for j, a in enumerate(tri):
                n_a = mesh.vertex_normal[a]
                ax = np.cross(n_a, n_t)
                K = np.array([[0.0, -ax[2], ax[1]], [ax[2], 0.0, -ax[0]],
                              [-ax[1], ax[0], 0.0]])
                R = np.eye(3) + K + K @ K / (1.0 + n_a @ n_t)
                M = atlas.face_frame[f] @ R @ atlas.vertex_frame[a].T
                rho = complex(M[0, 0] + M[1, 1], M[1, 0] - M[0, 1])
                expected[f, j] = rho / abs(rho)
        np.testing.assert_allclose(atlas.transport, expected, rtol=0, atol=1e-15)


def test_planar_interior_curvature_zero():
    mesh = meshgen.disk(5)
    atlas = build_transport(mesh)
    interior = ~mesh.is_boundary_vertex
    np.testing.assert_allclose(atlas.vertex_curvature[interior], 0.0, atol=1e-10)


def test_planar_interior_holonomy_trivial():
    mesh = meshgen.disk(4)
    rng = np.random.default_rng(3)
    atlas = build_transport(mesh, frame_rotation=rng.uniform(-np.pi, np.pi, len(mesh.vertices)))
    # composing rho(a->T1) * conj(rho(a->T2)) hops between faces; around a
    # full interior star the product of face-to-face hops must be 1
    tris = mesh.triangles
    for v in np.nonzero(~mesh.is_boundary_vertex)[0][:10]:
        star = np.nonzero((tris == v).any(axis=1))[0]
        hol = 1.0 + 0j
        # order the star by shared edges
        cur = star[0]
        seen = {cur}
        order = [cur]
        while len(order) < len(star):
            for f in star:
                if f in seen:
                    continue
                if len(set(tris[cur]) & set(tris[f])) == 2:
                    order.append(f)
                    seen.add(f)
                    cur = f
                    break
        for i, f in enumerate(order):
            g = order[(i + 1) % len(order)]
            jf = np.nonzero(tris[f] == v)[0][0]
            jg = np.nonzero(tris[g] == v)[0][0]
            hol *= atlas.transport[f, jf] * np.conj(atlas.transport[g, jg])
        assert abs(np.angle(hol)) < 1e-10


def test_icosahedron_angle_defect():
    mesh = meshgen.icosahedron_open()
    atlas = build_transport(mesh)
    interior = np.nonzero(~mesh.is_boundary_vertex)[0]
    assert len(interior) > 0
    p = mesh.vertices
    for v in interior:
        # independent oracle: accumulate angles straight from positions
        total = 0.0
        for f in np.nonzero((mesh.triangles == v).any(axis=1))[0]:
            others = [w for w in mesh.triangles[f] if w != v]
            u0 = p[others[0]] - p[v]
            u1 = p[others[1]] - p[v]
            total += np.arccos(np.dot(u0, u1) / (np.linalg.norm(u0) * np.linalg.norm(u1)))
        defect = 2 * np.pi - total
        assert atlas.vertex_curvature[v] * mesh.vertex_area[v] == pytest.approx(defect, abs=1e-12)
        # regular icosahedron: five equilateral corners, defect 2*pi - 5*pi/3
        assert defect == pytest.approx(2 * np.pi - 5 * np.pi / 3, abs=1e-9)


def test_gauss_bonnet():
    for mesh in (meshgen.disk(5), meshgen.spherical_cap(6), meshgen.saddle(6),
                 meshgen.annulus(6), meshgen.icosahedron_open()):
        atlas = build_transport(mesh)
        interior = ~mesh.is_boundary_vertex
        total_curv = np.sum((atlas.vertex_curvature * mesh.vertex_area)[interior])
        # boundary turning angle at v: pi minus the wedge angle sum
        angle_sum = np.zeros(len(mesh.vertices))
        np.add.at(angle_sum, mesh.triangles.ravel(), mesh.corner_angle.ravel())
        turning = np.sum((np.pi - angle_sum)[mesh.is_boundary_vertex])
        chi = mesh.euler_characteristic()
        assert total_curv + turning == pytest.approx(2 * np.pi * chi, abs=1e-8)


def _transport_power(atlas, k, degree):
    """Frequency-k entry of face 0, corner 0, as the solver's operators form it."""
    ops = OperatorSet.assemble(atlas.mesh, atlas, degree=degree, radius=1.0, k_max=k)
    return ops.transport_k(k)[0, 0]


def test_transport_power_values():
    # the entry is the unit transport coefficient raised to -k*degree
    mesh = meshgen.fan_disk(6)
    atlas = build_transport(mesh)
    atlas.transport = atlas.transport.astype(complex)
    atlas.transport[0, 0] = 1j
    assert _transport_power(atlas, k=1, degree=1) == pytest.approx(-1j)
    atlas.transport[0, 0] = np.exp(1j * np.pi / 6)
    assert _transport_power(atlas, k=2, degree=4) == pytest.approx(np.exp(-1j * 8 * np.pi / 6))
    atlas.transport[0, 0] = 1.0
    assert _transport_power(atlas, k=5, degree=2) == pytest.approx(1.0)
