import numpy as np
import pytest

import meshgen
from minsec.mesh import build_transport
from minsec.operators import (OperatorSet, assemble_boundary_rows,
                              assemble_crouzeix_raviart, assemble_frequency_laplacian,
                              assemble_linear_fem, assemble_stiffness,
                              quarter_turn)
from minsec.solver import AdmmSolver, SolverConfig
from oracles import coo_frequency_laplacian, coo_stiffness, coo_vertex_mass, scatter_corners


def _fem(mesh):
    return assemble_linear_fem(mesh, build_transport(mesh))


def test_hat_gradient_right_triangle():
    mesh = meshgen.single_triangle()
    fem = _fem(mesh)
    # face frame is leg-aligned (first edge is the x leg)
    np.testing.assert_allclose(fem.hat_gradient[0, :, 0], [-1.0, -1.0], atol=1e-14)
    np.testing.assert_allclose(fem.hat_gradient[0].sum(axis=1), 0.0, atol=1e-14)


def test_partition_of_unity_and_mass():
    mesh = meshgen.saddle(4)
    fem = _fem(mesh)
    np.testing.assert_allclose(fem.hat_gradient.sum(axis=2), 0.0, atol=1e-12)
    np.testing.assert_allclose(fem.corner_mass.sum(axis=(1, 2)), fem.face_area, rtol=1e-14)
    # exact linear-element entries
    np.testing.assert_allclose(fem.corner_mass[:, 0, 0], fem.face_area / 6, rtol=1e-14)
    np.testing.assert_allclose(fem.corner_mass[:, 0, 1], fem.face_area / 12, rtol=1e-14)


def test_gradient_reproduces_linear_functions():
    mesh = meshgen.disk(4)
    atlas = build_transport(mesh)
    fem = assemble_linear_fem(mesh, atlas)
    rng = np.random.default_rng(0)
    coef = rng.standard_normal(3)
    vals = mesh.vertices @ coef                     # linear in space
    corner = vals[mesh.triangles]
    g = np.einsum("fdj,fj->fd", fem.hat_gradient, corner)
    expected = np.einsum("fij,j->fi", atlas.face_frame, coef)
    np.testing.assert_allclose(g, expected, atol=1e-12)


def test_incidence_row_sums():
    # at frequency zero the corner scatter counts each vertex's corners
    mesh = meshgen.fan_disk(8)
    ops = OperatorSet.assemble(mesh, build_transport(mesh), degree=1, radius=1.0, k_max=1)
    counts = np.bincount(mesh.triangles.ravel(), minlength=len(mesh.vertices))
    ones = np.ones(mesh.triangles.shape + (1,))     # frequency 0 only
    np.testing.assert_allclose(scatter_corners(ops, ones)[:, 0], counts)


def test_covariant_incidence_structure():
    mesh = meshgen.spherical_cap(4)
    ops = OperatorSet.assemble(mesh, build_transport(mesh), degree=2, radius=1.0, k_max=3)
    for k in (0, 1, 3):
        np.testing.assert_allclose(np.abs(ops.transport_k(k)), 1.0, atol=1e-12)
    np.testing.assert_allclose(ops.transport_k(-3), np.conj(ops.transport_k(3)), atol=1e-14)
    np.testing.assert_array_equal(ops.transport_k(0), 1.0)


def _cotan_stiffness(mesh):
    # independent oracle: classic cotangent formula
    n_v = len(mesh.vertices)
    L = np.zeros((n_v, n_v))
    for f, tri in enumerate(mesh.triangles):
        for j in range(3):
            a, b, c = tri[j], tri[(j + 1) % 3], tri[(j + 2) % 3]
            u = mesh.vertices[b] - mesh.vertices[a]
            v = mesh.vertices[c] - mesh.vertices[a]
            cot = np.dot(u, v) / np.linalg.norm(np.cross(u, v))
            for x, y in ((b, c), (c, b)):
                L[x, y] -= cot / 2
            L[b, b] += cot / 2
            L[c, c] += cot / 2
    return L


def test_zero_frequency_laplacian_is_cotan():
    mesh = meshgen.disk(4)
    ops = OperatorSet.assemble(mesh, build_transport(mesh), degree=1, radius=1.0, k_max=2)
    L0 = ops.laplacian(0).toarray()
    np.testing.assert_allclose(L0.imag, 0.0, atol=1e-12)
    np.testing.assert_allclose(L0.real, _cotan_stiffness(mesh), atol=1e-10)
    # constants are in the nullspace before boundary elimination
    assert np.abs(L0 @ np.ones(len(mesh.vertices))).max() < 1e-10


def test_parallel_field_has_zero_covariant_energy():
    mesh = meshgen.disk(5)
    rng = np.random.default_rng(4)
    atlas = build_transport(mesh, frame_rotation=rng.uniform(-np.pi, np.pi, len(mesh.vertices)))
    fem = assemble_linear_fem(mesh, atlas)
    xhat = np.array([1.0, 0.0, 0.0])
    zv = atlas.vertex_frame @ xhat
    f = np.conj(zv[:, 0] + 1j * zv[:, 1])
    S = assemble_stiffness(fem, atlas.transport ** (-1))
    energy = np.real(np.conj(f) @ (S @ f))
    assert energy < 1e-10 * np.real(np.conj(f) @ f) * np.abs(S.data).max()


def test_frequency_laplacian_positive_definite():
    mesh = meshgen.disk(4, area=1.0)
    ops = OperatorSet.assemble(mesh, build_transport(mesh), degree=1, radius=1.0, k_max=1)
    L1 = ops.laplacian(1).toarray()
    np.linalg.cholesky(L1)  # raises if not PD


def test_hermitian_and_conjugation_all_meshes():
    meshes = [meshgen.fan_disk(8), meshgen.disk(3), meshgen.annulus(4),
              meshgen.spherical_cap(4), meshgen.saddle(4)]
    for mesh in meshes:
        atlas = build_transport(mesh)
        fem = assemble_linear_fem(mesh, atlas)
        for d in (1, 4):
            td = atlas.transport ** d
            for k in (0, 1, 3):
                Lk = assemble_frequency_laplacian(fem, td ** (-k), k, radius=0.7)
                diff = (Lk - Lk.conj().T).toarray()
                assert np.abs(diff).max() <= 1e-12 * max(1.0, np.abs(Lk.data).max())
                Lm = assemble_frequency_laplacian(fem, td ** k, -k, radius=0.7)
                np.testing.assert_allclose(Lm.toarray(), np.conj(Lk.toarray()), atol=1e-13)


@pytest.mark.parametrize("mesh", [meshgen.disk(4), meshgen.annulus(4), meshgen.spherical_cap(4),
                                  meshgen.fan_disk(8)], ids=["disk", "annulus", "cap", "fan"])
def test_pattern_assembly_matches_coo_oracle(mesh):
    # values summed into the precomputed pattern against COO triplets that
    # the CSC conversion sorts and sums: the same matrices up to rounding
    K, radius = 5, 0.7
    ops = OperatorSet.assemble(mesh, build_transport(mesh), degree=3, radius=radius, k_max=K)
    fem, c1 = ops.fem, ops.transport_k(1)
    pairs = [(ops.stiffness(1), coo_stiffness(fem, c1)), (ops.vertex_mass(1), coo_vertex_mass(fem, c1))]
    pairs += [(ops.laplacian(k), coo_frequency_laplacian(fem, ops.transport_k(k), k, radius))
              for k in (0, 1, K)]
    for ours, oracle in pairs:
        assert np.array_equal(ours.indptr, oracle.indptr)
        assert np.array_equal(ours.indices, oracle.indices)
        assert np.abs(ours.data - oracle.data).max() <= 1e-14 * np.abs(oracle.data).max()
        # every vertex matrix of the mesh has the one pattern
        assert np.array_equal(ours.indptr, fem.pattern.indptr)
        assert np.array_equal(ours.indices, fem.pattern.indices)
    # each matrix owns its index arrays: changing one leaves the others alone
    L = ops.laplacian(1)
    L.indices[:] = 0
    assert np.array_equal(ops.laplacian(K).indices, fem.pattern.indices)


def test_radius_scaling_quarters_vertical_mass():
    mesh = meshgen.spherical_cap(4)
    atlas = build_transport(mesh)
    ops1 = OperatorSet.assemble(mesh, atlas, degree=2, radius=1.0, k_max=2)
    ops2 = OperatorSet.assemble(mesh, atlas, degree=2, radius=2.0, k_max=2)
    k = 2
    S = ops1.stiffness(k).toarray()
    np.testing.assert_allclose(ops2.stiffness(k).toarray(), S, atol=1e-14)
    V1 = ops1.laplacian(k).toarray() - S
    V2 = ops2.laplacian(k).toarray() - S
    np.testing.assert_allclose(V2, 0.25 * V1, atol=1e-12)


def test_cr_single_interior_edge():
    # two unit right triangles sharing their hypotenuse: hand assembly gives 8
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]
    tris = [[0, 1, 2], [1, 3, 2]]
    from minsec.mesh import TriMesh
    mesh = TriMesh(verts, tris)
    fem = _fem(mesh)
    cr = assemble_crouzeix_raviart(mesh, fem)
    assert cr.laplacian.shape == (1, 1)
    assert cr.laplacian[0, 0] == pytest.approx(8.0)
    assert cr.laplacian[0, 0] > 0


def test_cr_requires_interior_edges():
    mesh = meshgen.single_triangle()
    with pytest.raises(ValueError, match="interior"):
        assemble_crouzeix_raviart(mesh, _fem(mesh))


def test_cr_mass_diagonal_entries():
    mesh = meshgen.disk(4)
    fem = _fem(mesh)
    cr = assemble_crouzeix_raviart(mesh, fem)
    expected = np.zeros(len(mesh.edges))
    np.add.at(expected, mesh.face_edge.ravel(), np.repeat(mesh.face_area / 3, 3))
    np.testing.assert_allclose(cr.mass, expected[mesh.interior_edges], rtol=1e-14)


def test_cr_laplacian_ones_support():
    # rows of L-hat against all-ones only touch faces with eliminated boundary edges
    mesh = meshgen.disk(4)
    fem = _fem(mesh)
    cr = assemble_crouzeix_raviart(mesh, fem)
    resid = np.abs(cr.laplacian @ np.ones(cr.laplacian.shape[0]))
    touched = np.nonzero(resid > 1e-12)[0]
    boundary_faces = set(mesh.edge_faces[mesh.boundary_edges, 0])
    for col in touched:
        eid = cr.interior_edges[col]
        faces = set(mesh.edge_faces[eid]) - {-1}
        assert faces & boundary_faces


def test_discrete_stokes_circulation():
    mesh = meshgen.disk(4)
    assert len(mesh.triangles) >= 50
    atlas = build_transport(mesh)
    fem = assemble_linear_fem(mesh, atlas)
    cr = assemble_crouzeix_raviart(mesh, fem)
    rng = np.random.default_rng(8)
    v = rng.standard_normal((len(mesh.triangles), 2))
    area2 = np.repeat(fem.face_area, 2)
    total_curl = np.ones(cr.laplacian.shape[0]) @ (cr.gradient.T @ (area2 * quarter_turn(v).ravel()))
    # brute-force circulation oracle straight from positions
    circ = 0.0
    for vtx, w, f, *_ in mesh.boundary_halfedges:
        e3 = mesh.vertices[w] - mesh.vertices[vtx]
        e2d = atlas.face_frame[f] @ e3
        circ += np.dot(v[f], e2d)
    assert total_curl == pytest.approx(circ, abs=1e-10 * max(1, abs(circ)))


def test_conforming_nonconforming_orthogonality():
    # the rotated interior-edge gradients are exactly area-orthogonal to
    # conforming gradients; this is what decouples the two global blocks
    mesh = meshgen.saddle(4)
    atlas = build_transport(mesh)
    ops = OperatorSet.assemble(mesh, atlas, degree=1, radius=1.0, k_max=1)
    rng = np.random.default_rng(9)
    f = rng.standard_normal(len(mesh.vertices))
    phi = rng.standard_normal(len(mesh.interior_edges))
    gf = np.einsum("fdj,fj->fd", ops.fem.hat_gradient, f[mesh.triangles])
    gphi = quarter_turn(ops.cr_face_gradient(phi))
    inner = np.sum(ops.fem.face_area * np.einsum("fd,fd->f", gf, gphi))
    assert abs(inner) < 1e-12 * len(mesh.triangles)


def test_boundary_rows_match_circulation():
    mesh = meshgen.annulus(4)
    atlas = build_transport(mesh)
    rows = assemble_boundary_rows(mesh, atlas)
    rng = np.random.default_rng(10)

    def circulation(v):
        # brute-force per-edge line integrals straight from positions
        return np.array([np.dot(v[f], atlas.face_frame[f] @ (mesh.vertices[w] - mesh.vertices[a]))
                         for a, w, f, *_ in mesh.boundary_halfedges])

    v = rng.standard_normal((len(mesh.triangles), 2))
    assert rows @ v.ravel() == pytest.approx(circulation(v), rel=1e-12)
    # the coupling rows of the frequency-zero saddle system, on both loops
    solver = AdmmSolver(mesh, SolverConfig(degree=1, fiber_n=8), atlas=atlas)
    systems, ops = solver.systems, solver.ops
    u = rng.standard_normal(len(mesh.vertices))
    grad_u = np.einsum("fdj,fj->fd", ops.fem.hat_gradient, u[mesh.triangles])
    assert systems._C1 @ u == pytest.approx(circulation(grad_u), rel=1e-12)
    phi = rng.standard_normal(len(mesh.interior_edges))
    rot_phi = quarter_turn(ops.cr_face_gradient(phi))
    assert systems._C2 @ phi == pytest.approx(circulation(rot_phi), rel=1e-12)
