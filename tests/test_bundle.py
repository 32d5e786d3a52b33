import numpy as np
import pytest

import meshgen
from minsec.bundle import (FiberDiscretization, TAU_BAR_VERTICAL, _forward, _inverse,
                           make_boundary_data, make_kappa_bar)
from minsec.mesh import build_transport
from oracles import fejer_delta


def test_fiber_discretization_validation():
    fd = FiberDiscretization(64)
    assert fd.k_max == 31
    assert fd.length == pytest.approx(2 * np.pi)
    np.testing.assert_allclose(np.diff(fd.theta), 2 * np.pi / 64)
    with pytest.raises(ValueError):
        FiberDiscretization(15)
    with pytest.raises(ValueError):
        FiberDiscretization(6)
    with pytest.raises(ValueError):
        FiberDiscretization(16, radius=0.0)


def test_fourier_constant():
    c = _forward(np.full(16, 3.0), 7)
    assert c.shape == (8,)
    assert c[0] == pytest.approx(3.0)
    np.testing.assert_allclose(c[1:], 0.0, atol=1e-14)


def test_fourier_cosine():
    fd = FiberDiscretization(16)
    c = _forward(np.cos(fd.theta), fd.k_max)
    assert c[1] == pytest.approx(0.5)
    mask = np.ones(fd.k_max + 1, dtype=bool)
    mask[1] = False
    np.testing.assert_allclose(c[mask], 0.0, atol=1e-14)


def test_fourier_roundtrip_is_bandlimit_projection():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(64)
    K = 31
    # independent direct-summation oracle for the projection
    theta = 2 * np.pi * np.arange(64) / 64
    proj = np.zeros(64, dtype=complex)
    for k in range(-K, K + 1):
        ck = np.sum(x * np.exp(-1j * k * theta)) / 64
        proj += ck * np.exp(1j * k * theta)
    once = _inverse(_forward(x, K), 64)
    np.testing.assert_allclose(once, proj, atol=1e-12)
    twice = _inverse(_forward(once, K), 64)
    np.testing.assert_allclose(twice, once, atol=1e-12)


@pytest.mark.parametrize("n", [10, 16, 64])
@pytest.mark.parametrize("short", [False, True], ids=["kmax_full", "kmax_2"])
def test_fourier_batched_matches_direct_sum(n, short):
    K = 2 if short else n // 2 - 1
    rng = np.random.default_rng(n)
    x = rng.standard_normal((3, 2, n))
    c = rng.standard_normal((3, 2, K + 1)) + 1j * rng.standard_normal((3, 2, K + 1))
    k = np.arange(K + 1)
    # direct sums c_k = (1/n) sum_m x_m e^{-ik theta_m} and
    # x_m = Re(c_0 + 2 sum_k c_k e^{ik theta_m}), with k*theta_m reduced mod 2*pi in integers
    fwd = np.zeros((3, 2, K + 1), dtype=complex)
    inv = c[..., :1].real.repeat(n, axis=-1)
    for m in range(n):
        phase = np.exp(2j * np.pi * (k * m % n) / n)
        fwd += x[..., m:m + 1] * np.conj(phase) / n
        inv[..., m] += 2 * np.sum(c[..., 1:] * phase[1:], axis=-1).real
    np.testing.assert_allclose(_forward(x, K), fwd, rtol=0, atol=1e-13)
    np.testing.assert_allclose(_inverse(c, n), inv, rtol=0, atol=1e-13)


def test_fourier_reality_conjugate_symmetry():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(32)
    # x_{-m} has the coefficients c_{-k} = conj(c_k) of a real signal
    mirrored = _forward(np.roll(x[::-1], 1), 15)
    np.testing.assert_allclose(mirrored, np.conj(_forward(x, 15)), atol=1e-13)


def test_fejer_peak_value():
    for K in (4, 8, 31):
        assert fejer_delta(0.3, K, 0.3) == pytest.approx(K)


def test_fejer_nonnegative_dense_grid():
    theta = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    rng = np.random.default_rng(2)
    for K in range(1, 9):
        g0 = rng.uniform(0, 2 * np.pi)
        assert fejer_delta(g0, K, theta).min() >= -1e-12


def test_fejer_mean_is_one():
    fd = FiberDiscretization(64)
    vals = fejer_delta(1.0, 8, fd.theta)
    assert vals.mean() == pytest.approx(1.0, abs=1e-12)


def test_tau_bar():
    assert TAU_BAR_VERTICAL == pytest.approx(0.15915494309, abs=1e-10)
    # fiber integral of the vertical density against d(theta)
    assert TAU_BAR_VERTICAL * 2 * np.pi == pytest.approx(1.0)


def test_kappa_bar_planar_and_linearity():
    atlas = build_transport(meshgen.disk(4))
    np.testing.assert_allclose(make_kappa_bar(atlas, 4), 0.0, atol=1e-12)
    cap = build_transport(meshgen.spherical_cap(6))
    np.testing.assert_allclose(make_kappa_bar(cap, 4), 2 * make_kappa_bar(cap, 2), rtol=1e-14)


def _cap_curvature_total(rings, cap_angle, d):
    mesh = meshgen.spherical_cap(rings, cap_angle=cap_angle)
    atlas = build_transport(mesh)
    kbar = make_kappa_bar(atlas, d)
    # CR edge masses: one third of incident face areas per edge
    edge_mass = np.zeros(len(mesh.edges))
    np.add.at(edge_mass, mesh.face_edge.ravel(), np.repeat(mesh.face_area / 3, 3))
    return np.sum(kbar * edge_mass[mesh.interior_edges])


def test_kappa_bar_integrates_to_cap_curvature():
    cap_angle = np.pi / 3
    d = 2
    expected = d * 2 * np.pi * (1 - np.cos(cap_angle)) / (2 * np.pi)
    # boundary vertices are masked out of the density, so a one-ring-wide
    # collar of curvature is missing; the deficit shrinks to first order
    err = [abs(_cap_curvature_total(r, cap_angle, d) - expected) / expected
           for r in (7, 13, 20)]
    assert err[0] < 0.30 and err[1] < 0.16 and err[2] < 0.11
    assert err[2] < err[1] < err[0]


def test_boundary_data_formula():
    atlas = build_transport(meshgen.fan_disk(12))
    K = 31
    explicit = {int(v): 0.0 for v in atlas.mesh.boundary_loops[0]}
    bd = make_boundary_data(atlas, explicit, degree=1, k_max=K)
    np.testing.assert_allclose(bd.gamma0, 0.0, atol=1e-14)
    f1 = bd.coefficient(1)
    np.testing.assert_allclose(f1, -1j * (30 / 31) / (2 * np.pi), atol=1e-14)
    np.testing.assert_allclose(bd.coefficient(-1), np.conj(f1), atol=1e-15)


def test_boundary_data_missing_vertex():
    atlas = build_transport(meshgen.fan_disk(8))
    with pytest.raises(ValueError, match="missing"):
        make_boundary_data(atlas, {1: 0.0}, degree=1, k_max=7)


def test_boundary_vertical_reconstruction_is_fejer():
    # ik f^(k) plus the reference vertical term rebuilds the unit-mass
    # Fejer spike on the boundary fiber
    atlas = build_transport(meshgen.fan_disk(12))
    fd = FiberDiscretization(32)
    K = fd.k_max
    bd = make_boundary_data(atlas, "tangent", degree=1, k_max=K)
    i = 3
    coeffs = np.zeros(K + 1, dtype=complex)
    coeffs[0] = TAU_BAR_VERTICAL
    for k in range(1, K + 1):
        coeffs[k] = 1j * k * bd.coefficient(k)[i]
        # the one-sided form relies on conjugate negative frequencies
        np.testing.assert_allclose(-1j * k * bd.coefficient(-k)[i], np.conj(coeffs[k]),
                                   atol=1e-15)
    samples = _inverse(coeffs, fd.n)
    expected = fejer_delta(bd.gamma0[i], K, fd.theta) / (2 * np.pi)
    np.testing.assert_allclose(samples, expected, atol=1e-12)
    assert samples.min() >= -1e-12


def test_tangent_winding_closes_one_turn():
    # around a flat disk the boundary tangent makes one full turn, so the
    # degree-d data winds d times
    for d in (1, 2, 4):
        atlas = build_transport(meshgen.disk(4))
        bd = make_boundary_data(atlas, "tangent", degree=d, k_max=7)
        assert bd.edge_winding.sum() == pytest.approx(d, abs=1e-9)
