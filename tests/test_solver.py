import concurrent.futures
import contextlib
import gc
import inspect
import itertools
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import meshgen
from minsec import solver as solver_module
from minsec.bundle import TAU_BAR_VERTICAL
from minsec.cli import main
from minsec.extract import extract_singularities
from minsec.mesh import build_transport
from minsec.operators import assemble_frequency_laplacian
from minsec.solver import (AdmmSolver, SolverConfig, _Bordered, _local_step_sigma, _metric_sq,
                           adapt_penalty, init_state, local_step_gamma, local_step_sigma,
                           run_admm, spd_lu)
from oracles import fejer_delta, scatter_corners


def _solver(mesh, **kw):
    kw.setdefault("fiber_n", 16)
    kw.setdefault("max_iters", 400)
    return AdmmSolver(mesh, SolverConfig(**kw))


def constant_field_angles(atlas):
    """Explicit boundary angles representing the global +x direction."""
    xhat = np.array([1.0, 0.0, 0.0])
    zv = atlas.vertex_frame @ xhat
    ang = np.arctan2(zv[:, 1], zv[:, 0])
    return {int(v): float(ang[v]) for loop in atlas.mesh.boundary_loops for v in loop}


# -- pointwise steps ------------------------------------------------------

def test_local_step_sigma_formula():
    h = np.array([[2.0, 0.0]])
    v = np.array([0.0])
    out_h, out_v = local_step_sigma(h, v, mu=1.0, radius=1.0)
    np.testing.assert_allclose(out_h, [[1.0, 0.0]])       # norm 2 -> scale 1/2
    assert out_v[0] == 0.0
    # inside the deadzone
    out_h, out_v = local_step_sigma(np.array([[0.3, 0.0]]), np.array([0.4]), 1.0, 1.0)
    np.testing.assert_allclose(out_h, 0.0)
    np.testing.assert_allclose(out_v, 0.0)
    # negative vertical part clamps to zero before shrinking
    out_h, out_v = local_step_sigma(np.array([[0.0, 0.0]]), np.array([-3.0]), 1.0, 1.0)
    np.testing.assert_allclose(out_h, 0.0)
    np.testing.assert_allclose(out_v, 0.0)
    # the radius enters the metric: vertical covector norm is v/r
    out_h, out_v = local_step_sigma(np.array([[0.0, 0.0]]), np.array([1.0]), 1.0, 0.25)
    np.testing.assert_allclose(out_v, 0.75)               # |.|_g = 4, scale 3/4
    # the density the sweep reads is the result's metric norm, 0 in the deadzone
    h, v = np.array([[0.1, 0.0], [3.0, 1.0]]), np.array([0.1, 2.0])
    d = np.empty(2)
    out_h, out_v = _local_step_sigma(h, v, 2.0, 0.5, density=d)
    assert d[0] == 0.0 and d[1] > 0.0
    np.testing.assert_allclose(d, np.sqrt(_metric_sq(out_h, out_v, 0.5)), rtol=1e-14)


def test_local_step_gamma_formula():
    assert local_step_gamma(np.array([0.5]), nu=1.0, lam=1.0)[0] == 0.0
    assert local_step_gamma(np.array([-2.0]), nu=1.0, lam=1.0)[0] == pytest.approx(-1.0)
    out = local_step_gamma(np.array([10.0, 10.0]), nu=1.0, lam=1.0,
                           mask_cols=np.array([1]))
    assert out[0] == pytest.approx(9.0)
    assert out[1] == 0.0


def test_adapt_penalty_rules():
    assert adapt_penalty(1.0, 1.0, 0.05) == (2.0, 0.5)
    assert adapt_penalty(1.0, 0.05, 1.0) == (0.5, 2.0)
    assert adapt_penalty(1.0, 0.3, 0.3) == (1.0, 1.0)


# -- initialization -------------------------------------------------------

def test_init_state_feasible():
    solver = _solver(meshgen.disk(4), degree=2)
    state = init_state(solver.ops, solver.fd, solver.kappa_bar)
    assert state.sigma_v.min() == pytest.approx(TAU_BAR_VERTICAL)
    np.testing.assert_allclose(state.sigma_h, 0.0)
    np.testing.assert_allclose(state.gamma, solver.kappa_bar)
    # feasible start: gamma equals the curvature density and phi is zero,
    # so the density constraint has zero violation
    np.testing.assert_allclose(state.gamma - solver.gamma_target(state), 0.0, atol=1e-15)


def test_init_state_planar_gamma_zero():
    solver = _solver(meshgen.disk(4), degree=4)
    state = init_state(solver.ops, solver.fd, solver.kappa_bar)
    np.testing.assert_allclose(state.gamma, 0.0, atol=1e-12)


# -- global step contracts -------------------------------------------------

def test_frequency_solve_contract_and_conjugation():
    mesh = meshgen.saddle(4)
    solver = _solver(mesh, degree=2)
    state = init_state(solver.ops, solver.fd, solver.kappa_bar)
    rng = np.random.default_rng(0)
    state.sigma_h = rng.standard_normal(state.sigma_h.shape) * 0.1
    state.sigma_v += rng.standard_normal(state.sigma_v.shape) * 0.1
    state.mu, state.nu = 1.0, 1.0
    solver.global_step(state)

    ops, fd = solver.ops, solver.fd
    n_f = len(mesh.triangles)
    alpha_h = state.sigma_h + state.w_h
    alpha_v = state.sigma_v + state.w_v - TAU_BAR_VERTICAL
    # independent DFT oracle for the one-sided coefficients k = 0..K
    m, k = np.meshgrid(np.arange(fd.n), np.arange(fd.k_max + 1), indexing="ij")
    dft = np.exp(-2j * np.pi * m * k / fd.n) / fd.n
    Ch = alpha_h @ dft
    Cv = alpha_v @ dft
    interior = solver.systems.interior
    for k in (1, 3):
        hk = Ch[:, :, k].reshape(n_f, 3, 2)
        face_h = ops.fem.face_area[:, None] * hk.mean(axis=1)
        gc = np.einsum("fdj,fd->fj", ops.fem.hat_gradient, face_h)
        mc = np.einsum("fij,fj->fi", ops.fem.corner_mass, Cv[:, k].reshape(n_f, 3))
        values = np.zeros((n_f, 3, k + 1), dtype=complex)
        values[:, :, k] = gc - (1j * k / solver.config.radius ** 2) * mc
        rhs = scatter_corners(ops, values)[:, k]
        resid = (ops.laplacian(k) @ state.f[k] - rhs)[interior]
        assert np.linalg.norm(resid) <= 1e-10 * max(np.linalg.norm(rhs), 1e-30)

        # the mirrored frequency with conjugate data yields the conjugate field
        Lm = assemble_frequency_laplacian(ops.fem, ops.transport_d ** k, -k,
                                          solver.config.radius)
        f_b = solver.bd.coefficient(-k)
        fm = np.zeros(len(mesh.vertices), dtype=complex)
        fm[solver.systems.b_vertices] = f_b
        from scipy.sparse.linalg import spsolve
        A_ii = Lm[interior][:, interior].tocsc()
        A_ib = Lm[interior][:, solver.systems.b_vertices].tocsc()
        fm[interior] = spsolve(A_ii, np.conj(rhs)[interior] - A_ib @ f_b)
        np.testing.assert_allclose(fm, np.conj(state.f[k]), atol=1e-9)


def test_zero_rhs_zero_boundary_gives_zero():
    mesh = meshgen.disk(3)
    solver = _solver(mesh, degree=1)
    rhs = np.zeros(len(mesh.vertices), dtype=complex)
    solver.bd.coef[:] = 0.0
    fk = solver.systems.solve_frequency(1, rhs)
    np.testing.assert_allclose(fk, 0.0, atol=1e-14)


def test_zero_system_homogeneous_and_beta_size():
    # planar disk, no data: f0 constant (gauge fixes it to zero), phi zero
    mesh = meshgen.disk(3)
    solver = _solver(mesh, degree=1)
    solver.systems.refactor(1.0, 1.0)
    n_ie = len(mesh.interior_edges)
    f0, phi, beta = solver.systems.solve_zero(
        np.zeros(len(mesh.vertices)), np.zeros(n_ie), np.zeros(len(solver._g0)))
    np.testing.assert_allclose(f0, 0.0, atol=1e-12)
    np.testing.assert_allclose(phi, 0.0, atol=1e-12)
    assert len(beta) == len(mesh.boundary_loops[0])


def test_kkt_residual_every_iteration():
    mesh = meshgen.disk(4)
    solver = _solver(mesh, degree=4)
    state = init_state(solver.ops, solver.fd, solver.kappa_bar)
    for _ in range(25):
        solver.iterate(state)
        f0, phi, beta, rhs1, rhs2 = solver._last_zero
        assert solver.systems.kkt_residual(f0, phi, beta, rhs1, rhs2, solver._g0) <= 1e-9


@pytest.mark.parametrize("mesh", [meshgen.disk(5), meshgen.annulus(4), meshgen.fan_disk(12),
                                  meshgen.rectangle(6, 5)],
                         ids=["disk", "annulus", "fan", "rectangle"])
def test_saddle_refactor_penalty_pairs(mesh):
    # the split edge-midpoint factors must solve the full saddle system at
    # any penalty pair, lopsided ones included, on several loops, and where
    # the boundary rows C2 are rank-deficient (fan disk: rank n - 1;
    # rectangle(6, 5): rank 14 of 18)
    solver = _solver(mesh, degree=4)
    systems = solver.systems
    rng = np.random.default_rng(3)
    n_v, n_ie = len(mesh.vertices), len(mesh.interior_edges)
    for mu, nu in [(1.0, 1.0), (2.0 ** 12, 2.0 ** -12), (2.0 ** -20, 1.0),
                   (2.0 ** -3, 2.0 ** 5), (1.0, 1.0), (2.0, 2.0), (2.0 ** -15, 2.0 ** 5)]:
        systems.refactor(mu, nu)
        for _ in range(2):
            rhs1 = rng.standard_normal(n_v)
            rhs1 -= rhs1.mean()          # constants span the kernel of L0
            rhs2 = rng.standard_normal(n_ie)
            g0 = rng.standard_normal(len(solver._g0))
            f0, phi, beta = systems.solve_zero(rhs1, rhs2, g0)
            assert systems.kkt_residual(f0, phi, beta, rhs1, rhs2, g0) <= 1e-9
    assert systems.builds == 7
    # f0 and phi come from sparse back-substitution: no dense block is
    # taller than the boundary
    n_be = len(solver._g0)
    tall = [name for name, value in vars(systems).items()
            if isinstance(value, np.ndarray) and value.ndim == 2 and value.shape[0] > n_be]
    assert tall == []


def test_saddle_build_memory_below_one_tall_block():
    # the boundary blocks are formed from chunks of sparse columns: the
    # first two builds never hold an interior-edge by boundary-edge array
    mesh = meshgen.disk(36)
    solver = _solver(mesh, degree=4)
    tall_bytes = 8 * len(mesh.interior_edges) * len(solver._g0)
    tracemalloc.start()
    try:
        solver.systems.refactor(1.0, 1.0)
        solver.systems.refactor(2.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solver.systems.builds == 2
    assert peak < tall_bytes


def _gram_pairs(systems):
    """(matrix, ordering, C, eps) of bordered Grams: ``A`` (which has the
    pattern of ``Lc``), whose Gram enters the Schur complement, at three
    ``t`` with the build's ``eps``, and on other borders ``L0_ff`` in the
    vertex ranks and ``Lc``, both in the orders a build would give them,
    with the bound ``B W^-1 B^T`` on their Grams' diagonals as ``eps``."""
    cr, C2, edges = systems.ops.cr, systems._C2, systems._edge_order
    L0_ff = systems._L0[systems.free0][:, systems.free0]
    rank = np.argsort(np.concatenate([systems.interior, systems.b_vertices]))
    eps = systems._gram_scale[0]
    pairs = [(L0_ff, np.argsort(rank[systems.free0]), systems._C1f, eps),
             (cr.laplacian, edges, C2, eps)]
    for t in (2.0 ** -20, 1.0, 2.0 ** 20):
        pairs.append((cr.shifted_laplacian(t, 1.0), edges, C2, systems._border_eps(t, 1.0)))
    return pairs


@pytest.mark.parametrize("mesh", [meshgen.disk(5), meshgen.annulus(4), meshgen.spherical_cap(6),
                                  meshgen.fan_disk(12)],
                         ids=["disk", "annulus", "cap", "fan"])
def test_gram_matches_column_solves(mesh):
    # the trailing-block Gram of the bordered factor against the column-solve
    # form; the border is on two loops on the annulus and touches every
    # interior edge on the fan disk
    for K, order, C, eps in _gram_pairs(_solver(mesh, degree=4).systems):
        oracle = C @ spd_lu(K).solve(C.T.toarray())
        G = _Bordered(K, order, C, eps).gram()
        assert np.abs(G - oracle).max() <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("mesh", [meshgen.fan_disk(12), meshgen.rectangle(6, 5)],
                         ids=["fan", "rectangle"])
def test_bordered_factor_keeps_diagonal_pivots(mesh):
    # with C2 rank-deficient, C2 A^-1 C2^T is singular; eps > 0 keeps the
    # trailing block negative definite, so every pivot stays on the diagonal
    # in the natural order: positive on A, negative on the border
    systems = _solver(mesh, degree=4).systems
    n = len(mesh.interior_edges)
    assert np.linalg.matrix_rank(systems._C2.toarray()) < systems._C2.shape[0]
    for mu, nu in [(1.0, 1.0), (2.0 ** 12, 2.0 ** -12), (2.0 ** -20, 1.0), (2.0 ** -3, 2.0 ** 5)]:
        systems.refactor(mu, nu)
        lu = systems._lu_a.lu
        natural = np.arange(lu.shape[0])
        assert np.array_equal(lu.perm_r, natural) and np.array_equal(lu.perm_c, natural)
        pivots = lu.U.diagonal()
        assert pivots[:n].min() > 0 and pivots[n:].max() < 0


@pytest.mark.parametrize("mesh, parts, harmonic, iterations", [
    (meshgen.disk(5), 1, 0, 0), (meshgen.annulus(4), 1, 1, 0), (meshgen.annulus(8), 1, 1, 0),
    (meshgen.spherical_cap(6), 1, 0, 0), (meshgen.saddle(6), 1, 0, 0),
    (meshgen.punctured_torus(), 1, 2, 20),
    (meshgen.side_by_side(meshgen.disk(3), meshgen.annulus(4)), 2, 1, 0)],
    ids=["disk", "annulus4", "annulus8", "cap", "saddle", "torus", "disk-annulus"])
def test_hodge_s0_matches_column_solves(mesh, parts, harmonic, iterations):
    # S0 from the discrete Hodge decomposition against its column-solve form
    # C1f L0_ff^-1 C1f^T + C2 Lc^-1 C2^T; the harmonic fields number
    # loops - 1 + 2 genus per connected part, so on the torus a basis of loop
    # fields alone is short, and with two parts the count is not 1 - chi
    solver = _solver(mesh, degree=4, max_iters=max(iterations, 1), eps=0.0)
    systems = solver.systems
    n_f, n_v, n_ie = len(mesh.triangles), len(mesh.vertices), len(mesh.interior_edges)
    assert 2 * n_f - (n_v - parts + n_ie) == harmonic
    systems.refactor(1.0, 1.0)
    C1f, C2 = systems._C1f, systems._C2
    L0_ff = systems._L0[systems.free0][:, systems.free0]
    oracle = (C1f @ spd_lu(L0_ff).solve(C1f.T.toarray())
              + C2 @ spd_lu(systems.ops.cr.laplacian).solve(C2.T.toarray()))
    assert np.abs(systems._S0 - oracle).max() <= 1e-12 * np.abs(oracle).max()
    if iterations:
        report = solver.run().report
        assert report.iterations == iterations
        assert report.kkt_residual <= 1e-9


def test_gauge_pinned_once_per_connected_part():
    # the zero frequency is determined up to a constant on each connected
    # part, so each part pins one (boundary) vertex and L0_ff is regular
    mesh = meshgen.side_by_side(meshgen.disk(3), meshgen.disk(3))
    solver = _solver(mesh, degree=4, max_iters=20, eps=0.0)
    systems = solver.systems
    assert len(systems.pins) == 2 and mesh.is_boundary_vertex[systems.pins].all()
    pivots = np.abs(systems._lu(0).U.diagonal())
    assert pivots.min() >= 1e-8 * pivots.max()
    assert solver.run().report.kkt_residual <= 1e-9


@pytest.mark.parametrize("mesh", [meshgen.disk(5), meshgen.annulus(4), meshgen.spherical_cap(6),
                                  meshgen.fan_disk(8), meshgen.saddle(6)],
                         ids=["disk", "annulus", "cap", "fan", "saddle"])
def test_first_frequency_ordering_equals_real_l0(mesh):
    # the interior ordering is read off L_1's MMD factor; it equals the MMD
    # ordering of the real L0 interior block (the blocks share a pattern), so
    # the derived edge order and every factor are as under L0's ordering
    solver = _solver(mesh, degree=4)
    interior = np.nonzero(~mesh.is_boundary_vertex)[0]
    L0 = solver.ops.laplacian(0).real.tocsc()[interior][:, interior]
    L1 = solver.ops.laplacian(1)[interior][:, interior]
    assert np.array_equal(spd_lu(L1).perm_c, spd_lu(L0).perm_c)


def test_gram_rejects_band_outside_trailing_block(monkeypatch):
    # a factor that reorders the border rows away from the end must not
    # yield a block
    systems = _solver(meshgen.disk(5), degree=4).systems
    K, order, C, eps = _gram_pairs(systems)[1]
    monkeypatch.setattr(solver_module, "spd_lu", lambda matrix, permc_spec=None:
                        spd_lu(matrix, permc_spec="COLAMD"))
    with pytest.raises(RuntimeError, match="natural order"):
        _Bordered(K, order, C, eps).gram()


def test_saddle_build_factors_a_once(monkeypatch):
    # the first build factors Lc (held) and A once; every later build factors
    # A once, whose trailing block gives that build's Gram; a repeated
    # (mu, nu) factors nothing
    made = []
    real_splu = solver_module.splu
    monkeypatch.setattr(solver_module, "splu",
                        lambda *args, **kw: made.append(1) or real_splu(*args, **kw))
    systems = _solver(meshgen.disk(5), degree=4).systems
    del made[:]
    for (mu, nu), new in [((1.0, 1.0), 2), ((2.0, 1.0), 1), ((2.0, 1.0), 0), ((4.0, 2.0), 1),
                          ((2.0 ** -20, 1.0), 1)]:
        before = len(made)
        systems.refactor(mu, nu)
        assert len(made) - before == new
    assert systems.factorizations == len(made) == 5
    assert systems.builds == 4


@pytest.mark.parametrize("mesh", [meshgen.disk(5), meshgen.annulus(4)], ids=["disk", "annulus"])
def test_bordered_a_solves_match_mmd_factor(mesh):
    # A's solves through the held bordered factor (two solves, the second
    # with the border right-hand side that zeroes the border part) match an
    # MMD factor's
    systems = _solver(mesh, degree=4).systems
    cr = systems.ops.cr
    rng = np.random.default_rng(5)
    r = rng.standard_normal((len(mesh.interior_edges), 3))
    for mu, nu in [(1.0, 1.0), (2.0 ** 12, 2.0 ** -12), (2.0 ** -20, 1.0), (2.0 ** -3, 2.0 ** 5)]:
        systems.refactor(mu, nu)
        mmd = spd_lu(cr.shifted_laplacian(mu * systems.fd.length, nu))
        for rhs in (r[:, 0], r):
            want = mmd.solve(rhs)
            assert np.linalg.norm(systems._lu_a.solve(rhs) - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("mesh", [meshgen.disk(36), meshgen.spherical_cap(24)],
                         ids=["disk36", "cap24"])
def test_derived_edge_order_fills_no_more_than_mmd(mesh):
    # Lc is factored in the edge order derived from the vertex ordering, with
    # no MMD pass of its own; it fills no more than under MMD on these meshes
    # (not on annulus(8), where it fills 5 % more)
    systems = _solver(mesh, degree=4).systems
    systems.refactor(1.0, 1.0)
    lc, mmd = systems._lu_lc.lu, spd_lu(systems.ops.cr.laplacian)
    assert lc.L.nnz + lc.U.nnz <= mmd.L.nnz + mmd.U.nnz


class _RecordingLU:
    """A sparse factor that records the column count of every solve."""

    def __init__(self, lu, widths):
        self._lu, self._widths = lu, widths

    def solve(self, rhs):
        self._widths.append(1 if rhs.ndim == 1 else rhs.shape[1])
        return self._lu.solve(rhs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def test_saddle_builds_solve_one_column_per_loop(monkeypatch):
    # no boundary-edge-wide block of columns is solved: A's Gram comes from
    # its trailing factor block and S0 from the Hodge form (no solve on a
    # disk), only the loop product form solves
    widths = []
    real_splu = solver_module.splu
    monkeypatch.setattr(solver_module, "splu",
                        lambda *args, **kw: _RecordingLU(real_splu(*args, **kw), widths))
    mesh = meshgen.disk(36)
    systems = _solver(mesh, degree=4).systems
    systems.refactor(1.0, 1.0)
    systems.refactor(2.0, 1.0)
    assert systems.builds == 2
    assert widths and max(widths) <= len(mesh.boundary_loops)


@pytest.mark.parametrize("mesh", [meshgen.disk(5), meshgen.annulus(4), meshgen.spherical_cap(6),
                                  meshgen.fan_disk(12)],
                         ids=["disk", "annulus", "cap", "fan"])
def test_frequency_blocks_gathered_in_one_ordering(mesh, monkeypatch):
    # every L_k is factored once, in the one interior ordering: L_1's block
    # under MMD, whose ordering the others are gathered in from their data
    # and factored under NATURAL (on the owner threads, in any order); none
    # fills in more than under its own MMD
    factored = {}
    real = solver_module._factor_frequency

    def recording(k, matrix, permc_spec):
        factored[k] = (matrix, permc_spec)
        return real(k, matrix, permc_spec)

    monkeypatch.setattr(solver_module, "_factor_frequency", recording)
    solver = _solver(mesh, degree=4)
    systems, ops, K = solver.systems, solver.ops, solver.fd.k_max
    cols, natural = systems.b_vertices, np.nonzero(~mesh.is_boundary_vertex)[0]
    assert np.array_equal(np.sort(systems.interior), natural)
    assert sorted(factored) == list(range(K + 1))        # 0: L0_ff
    assert [factored[k][1] for k in range(1, K + 1)] == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (K - 1)
    for k in range(1, K + 1):
        L, L_ii = ops.laplacian(k), factored[k][0]
        L_ib, rows = systems._freq[k]
        lu = systems._lu(k)
        assert np.array_equal(rows, natural if k == 1 else systems.interior)
        for block, want in ((L_ii, L[rows][:, rows]), (L_ib, L[rows][:, cols])):
            assert block.shape == want.shape and block.nnz == want.nnz
            assert np.array_equal(block.toarray(), want.toarray())
        mmd = spd_lu(L[natural][:, natural])
        assert lu.L.nnz + lu.U.nnz <= mmd.L.nnz + mmd.U.nnz


def test_owner_factor_failure_names_frequency(monkeypatch):
    # a factor that fails on an owner thread stops setup on the main thread,
    # naming the first failing frequency in job order
    real = solver_module._spd_lu

    def failing(matrix, permc_spec):
        if permc_spec == "NATURAL":         # every k >= 2 block
            raise RuntimeError("Factor is exactly singular")
        return real(matrix, permc_spec)

    monkeypatch.setattr(solver_module, "_spd_lu", failing)
    with pytest.raises(RuntimeError, match="failed at frequency 2: Factor is exactly singular"):
        _solver(meshgen.disk(4), degree=4)


def _reference_iterate(solver, state):
    """Out-of-place oracle of :meth:`AdmmSolver.iterate`: fresh arrays for
    every step, the horizontal reconstruction repeated over the corners,
    four separate norms and ``objective(state)``."""
    radius = solver.config.radius
    solver.global_step(state)
    Rh_face, Rv = solver.reconstruct(state)
    Rh = np.repeat(Rh_face, 3, axis=0)
    prev_h, prev_v = state.sigma_h, state.sigma_v
    state.sigma_h, state.sigma_v = local_step_sigma(Rh - state.w_h, Rv - state.w_v,
                                                    state.mu, radius)
    gt = solver.gamma_target(state)
    prev_g = state.gamma
    state.gamma = local_step_gamma(gt - state.z, state.nu, solver.lam, solver.mask_cols)
    state.w_h = state.w_h + state.sigma_h - Rh
    state.w_v = state.w_v + state.sigma_v - Rv
    state.z = state.z + state.gamma - gt
    measure = solver.ops.fem.corner_weight.ravel()[:, None] * (solver.fd.length / solver.fd.n)

    def sigma_norm(h, v):
        return np.sqrt(np.sum(measure * _metric_sq(h, v, radius)))

    def gamma_norm(g):
        return np.sqrt(np.sum(solver.ops.cr.mass * g * g))

    res = np.array([sigma_norm(state.sigma_h - Rh, state.sigma_v - Rv),
                    sigma_norm(state.sigma_h - prev_h, state.sigma_v - prev_v),
                    gamma_norm(state.gamma - gt), gamma_norm(state.gamma - prev_g)])
    state.mu, s = adapt_penalty(state.mu, res[0], res[1])
    if s != 1.0:
        state.w_h = state.w_h * s
        state.w_v = state.w_v * s
    state.nu, s = adapt_penalty(state.nu, res[2], res[3])
    if s != 1.0:
        state.z = state.z * s
    state.iteration += 1
    return res, solver.objective(state)


@pytest.mark.parametrize("mesh, mu0, chunk_faces", [(meshgen.disk(5), 2.0 ** -6, None),
                                                    (meshgen.annulus(4), 2.0 ** -6, None),
                                                    (meshgen.annulus(4), 2.0 ** 6, None),
                                                    (meshgen.annulus(4), 2.0 ** -6, 40)],
                         ids=["disk-mu_up", "annulus-mu_up", "annulus-mu_down",
                              "annulus-mu_up-chunked"])
def test_in_place_sweep_matches_reference(mesh, mu0, chunk_faces, monkeypatch):
    # an off-balance first mu makes the sweep rescale its duals in place.
    # (On disk(5) a first mu of 2^6 drives nu to 1e-11, where the saddle
    # amplifies round-off between any two summation orders past 1e-12.)
    # The chunked case splits the 235 faces into 6 sweep chunks.
    if chunk_faces is not None:
        monkeypatch.setattr(solver_module, "_CHUNK_SAMPLES", 3 * 16 * chunk_faces)
    fast, slow = _solver(mesh, degree=4), _solver(mesh, degree=4)
    a = init_state(fast.ops, fast.fd, fast.kappa_bar)
    b = init_state(slow.ops, slow.fd, slow.kappa_bar)
    a.mu = b.mu = mu0
    mus = set()

    def close(x, y):
        return np.linalg.norm(np.ravel(x - y)) <= 1e-12 * np.linalg.norm(np.ravel(y))

    assert len(fast._chunks) == (1 if chunk_faces is None else 6)
    for _ in range(40):
        res_a, obj_a = fast.iterate(a)
        res_b, obj_b = _reference_iterate(slow, b)
        # relative to the residual or, once it sits at round-off, to the
        # size of the iterate it measures
        sizes = np.array([slow.sigma_norm(b.sigma_h, b.sigma_v)] * 2
                         + [slow.gamma_norm(b.gamma)] * 2)
        assert np.all(np.abs(res_a - res_b) <= 1e-12 * np.maximum(res_b, sizes))
        assert obj_a == pytest.approx(obj_b, rel=1e-12)
        assert (a.mu, a.nu, a.iteration) == (b.mu, b.nu, b.iteration)
        for name in ("sigma_h", "sigma_v", "w_h", "w_v", "gamma", "z", "f", "phi"):
            assert close(getattr(a, name), getattr(b, name)), name
        mus.add(a.mu)
    assert len(mus) >= 3


class _InlineExecutor(concurrent.futures.Executor):
    """Runs every submitted call at once, in the submitting thread."""

    def submit(self, fn, *args, **kwargs):
        future = concurrent.futures.Future()
        future.set_result(fn(*args, **kwargs))
        return future


# meshes that the patched chunk size splits into several sweep chunks
CHUNKED = [(meshgen.disk(8), 64, 50), (meshgen.annulus(6), 16, 100)]


@pytest.mark.parametrize("mesh, fiber_n, chunk_faces", CHUNKED, ids=["disk8-n64", "annulus6-n16"])
def test_sweep_same_inline_and_pooled(mesh, fiber_n, chunk_faces, monkeypatch):
    # the chunk bounds and the order of the partial sums do not depend on
    # how many threads run the chunks; more workers than cores, switching
    # threads often, would expose a chunk writing outside its own faces
    monkeypatch.setattr(solver_module, "_CHUNK_SAMPLES", 3 * fiber_n * chunk_faces)
    results = []
    switch = sys.getswitchinterval()
    try:
        for pool in (_InlineExecutor(), concurrent.futures.ThreadPoolExecutor(max_workers=3)):
            monkeypatch.setattr(solver_module, "_POOL", pool)
            solver = _solver(mesh, degree=4, fiber_n=fiber_n, eps=0.0, max_iters=40)
            assert len(solver._chunks) >= 6
            sys.setswitchinterval(1e-5)
            results.append(solver.run())
            pool.shutdown()
    finally:
        sys.setswitchinterval(switch)
    a, b = results
    for name in ("sigma_h", "sigma_v", "w_h", "w_v", "gamma", "z", "f", "phi", "mu", "nu"):
        assert np.array_equal(getattr(a.state, name), getattr(b.state, name)), name
    assert np.array_equal(a.report.residual_history, b.report.residual_history)
    assert np.array_equal(a.report.objective_history, b.report.objective_history)
    assert len(set(a.report.residual_history[:, 0])) > 1


def _public_callables(module):
    """(owner, attribute, value) of every public function and method defined
    in ``module``, properties included, as the span tracer wraps them."""
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, obj
        elif inspect.isclass(obj):
            for meth, raw in list(vars(obj).items()):
                if not meth.startswith("_") or meth == "__init__":
                    yield obj, meth, raw


def test_workers_call_no_public_function(monkeypatch):
    # every public function, method and property of the package records the
    # thread it runs on; a multi-chunk solve calls them on the main thread only
    mesh, fiber_n, chunk_faces = CHUNKED[0]
    monkeypatch.setattr(solver_module, "_CHUNK_SAMPLES", 3 * fiber_n * chunk_faces)
    pool = concurrent.futures.ThreadPoolExecutor(max_workers=3)
    monkeypatch.setattr(solver_module, "_POOL", pool)
    threads = {}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    package = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "minsec"]
    for module in package:
        for owner, attr, obj in _public_callables(module):
            name = "%s.%s" % (owner.__name__.rsplit(".", 1)[-1], attr)
            if isinstance(obj, property):
                monkeypatch.setattr(owner, attr, property(recording(name, obj.fget)))
            elif isinstance(obj, (classmethod, staticmethod)):
                monkeypatch.setattr(owner, attr, type(obj)(recording(name, obj.__func__)))
            elif inspect.isfunction(obj) and owner is module:
                wrapped = recording(name, obj)
                for m in package:       # every binding, imports included
                    for alias, value in list(vars(m).items()):
                        if value is obj:
                            monkeypatch.setattr(m, alias, wrapped)
            elif inspect.isfunction(obj):
                monkeypatch.setattr(owner, attr, recording(name, obj))
    sweep = solver_module.AdmmSolver._sweep_chunk
    monkeypatch.setattr(solver_module.AdmmSolver, "_sweep_chunk",
                        recording("_sweep_chunk", sweep))

    solver_module.run_admm(mesh, SolverConfig(degree=4, fiber_n=fiber_n, eps=0.0, max_iters=5))
    pool.shutdown()
    main = threading.get_ident()
    assert {"solver.run_admm", "AdmmSolver.iterate", "OperatorSet.cr_face_gradient",
            "FiberDiscretization.k_max"} <= set(threads)
    assert threads.pop("_sweep_chunk") - {main}        # the workers did run
    assert {name for name, ids in threads.items() if ids != {main}} == set()


class _RecordingFactor(_RecordingLU):
    """A sparse factor that records the thread that made it and the one that freed it."""

    def __init__(self, lu, matrix, records):
        super().__init__(lu, [])
        self._record = {"complex": np.iscomplexobj(matrix.data),
                        "made": threading.get_ident(), "freed": None}
        records.append(self._record)

    def __del__(self):
        self._record["freed"] = threading.get_ident()


def _record_factors(monkeypatch):
    """Makes every sparse factor of the solver a :class:`_RecordingFactor`;
    returns the list of their records."""
    records = []
    real_splu = solver_module.splu
    monkeypatch.setattr(solver_module, "splu", lambda matrix, *args, **kw: _RecordingFactor(
        real_splu(matrix, *args, **kw), matrix, records))
    return records


def test_sparse_factors_freed_on_the_thread_that_made_them(monkeypatch):
    # scipy's SuperLU frees a factor only on the thread that made it: setup
    # sends L0_ff and the frequency blocks k >= 2 to the owner threads (here
    # more owners than cores, switching threads often), and so does the first
    # build with Lc; the owners free them once the solver is collected. The
    # k = 1 block and every bordered A are made and freed on the main thread
    mesh, fiber_n, chunk_faces = CHUNKED[0]
    monkeypatch.setattr(solver_module, "_CHUNK_SAMPLES", 3 * fiber_n * chunk_faces)
    pool = concurrent.futures.ThreadPoolExecutor(max_workers=3)
    monkeypatch.setattr(solver_module, "_POOL", pool)
    owners = [solver_module._Owner() for _ in range(3)]
    monkeypatch.setattr(solver_module, "_OWNERS", owners)
    records = _record_factors(monkeypatch)
    switch = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        solver = AdmmSolver(mesh, SolverConfig(degree=4, fiber_n=fiber_n, eps=0.0, max_iters=12))
        K = solver.fd.k_max
        report = solver.run().report
        assert len(solver._chunks) >= 6 and report.saddle_builds >= 2
        del solver
        gc.collect()
        pool.shutdown()
        for owner in owners:                # an owner's release runs before it stops
            owner.stop()
    finally:
        sys.setswitchinterval(switch)
    main = threading.get_ident()
    assert len(records) == K + 2 + report.saddle_builds      # L_k, L0_ff, Lc and each A
    assert all(r["freed"] == r["made"] for r in records), records
    off_main = [r for r in records if r["made"] != main]
    assert sum(r["complex"] for r in off_main) == K - 1
    assert sum(not r["complex"] for r in off_main) == 2      # L0_ff and Lc
    assert len({r["made"] for r in off_main}) == len(owners)


_COLLECTED_ANYWHERE = """
import gc, sys, threading
sys.path[:0] = %r
import meshgen
from minsec import solver
main, owned, returned = threading.get_ident(), [], []

class Recording:
    def __init__(self, lu):
        self.lu, self.made = lu, threading.get_ident()
        if self.made != main:
            owned.append(1)

    def __getattr__(self, name):
        return getattr(self.lu, name)

    def __del__(self):
        if self.made != main and threading.get_ident() == self.made:
            returned.append(1)

real = solver.splu
solver.splu = lambda *args, **kw: Recording(real(*args, **kw))
mesh, cfg = meshgen.disk(4), solver.SolverConfig(degree=4, fiber_n=16, eps=0.0, max_iters=1)
gc.set_threshold(50)
for _ in range(100):
    systems = solver.AdmmSolver(mesh, cfg).systems
    systems.cycle = systems
del systems
gc.collect()
for owner in solver._OWNERS:
    owner.stop()
print(len(owned), len(returned))
held = solver.AdmmSolver(mesh, cfg)         # its owner-made factors live at exit
"""


def test_systems_collected_on_any_thread_release_their_factors():
    # a finalizer runs on whatever thread a garbage collection runs on, also
    # inside a submit to the owner it releases to, where a release that
    # submitted to a ThreadPoolExecutor deadlocked: systems held only by a
    # reference cycle, collected often while later ones are set up, give
    # every owner-made factor (L0_ff, L_2 .. L_7) back to its owner, and a
    # process that exits with owner-made factors alive exits cleanly
    run = subprocess.run([sys.executable, "-c", _COLLECTED_ANYWHERE % (sys.path,)],
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.split() == ["700", "700"]


def test_run_leaves_returned_state_alone():
    # the sweep writes into solver-owned spare buffers; none may end up in
    # a returned state, and a later run must not touch an earlier state
    solver = _solver(meshgen.disk(4), degree=4, eps=0.0, max_iters=20)
    first = solver.run().state
    names = ("sigma_h", "sigma_v", "w_h", "w_v")
    kept = {name: getattr(first, name).copy() for name in names}
    second = solver.run().state
    for name in names:
        assert np.array_equal(getattr(first, name), kept[name]), name
    samples = [getattr(st, name) for st in (first, second) for name in names]
    for x, y in itertools.combinations(samples, 2):
        assert not np.shares_memory(x, y)
    owned = [x for value in vars(solver).values()
             for x in (value if isinstance(value, tuple) else (value,))
             if isinstance(x, np.ndarray)]
    for x, y in itertools.product(owned, samples):
        assert not np.shares_memory(x, y)


def _poison_reconstruct(solver_cls, monkeypatch, at_iteration):
    """Make one vertical sample NaN in the given iteration's reconstruction.

    The sweep reconstructs face chunk by face chunk; the chunk of face 0 gets
    the NaN. ``global_step`` runs first in every iteration and tells which."""
    global_step, reconstruct = solver_cls.global_step, solver_cls._reconstruct
    current = []

    def step(self, state):
        current[:] = [state.iteration + 1]
        return global_step(self, state)

    def poisoned(self, coeffs, faces):
        Rh, Rv = reconstruct(self, coeffs, faces)
        if current == [at_iteration] and faces.start == 0:
            Rv[0, 0] = np.nan
        return Rh, Rv

    monkeypatch.setattr(solver_cls, "global_step", step)
    monkeypatch.setattr(solver_cls, "_reconstruct", poisoned)


def test_non_finite_residual_stops(monkeypatch):
    _poison_reconstruct(AdmmSolver, monkeypatch, 3)
    with pytest.raises(RuntimeError, match="^non-finite residual at iteration 3$"):
        run_admm(meshgen.disk(4), SolverConfig(degree=4, fiber_n=16, max_iters=50))


def test_non_finite_residual_cli_exit_code(monkeypatch, tmp_path, capsys):
    _poison_reconstruct(AdmmSolver, monkeypatch, 3)
    path = tmp_path / "disk.obj"
    meshgen.write_obj(path, meshgen.disk(4))
    code = main(["--mesh", str(path), "--degree", "4", "--fiber-n", "16",
                 "--max-iters", "50", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: non-finite residual at iteration 3\n"


def test_boundary_fiber_reconstruction_is_fejer():
    # with only the pinned boundary coefficients, vertical samples at a
    # boundary corner rebuild the unit-mass Fejer spike, hence stay >= 0
    mesh = meshgen.fan_disk(12)
    solver = _solver(mesh, degree=1)
    state = init_state(solver.ops, solver.fd, solver.kappa_bar)
    for k in range(1, solver.fd.k_max + 1):
        full = np.zeros(len(mesh.vertices), dtype=complex)
        full[solver.systems.b_vertices] = solver.bd.coefficient(k)
        state.f[k] = full
    _, Rv = solver.reconstruct(state)
    tri = mesh.triangles
    corner = 3 * 0 + int(np.nonzero(tri[0] != 0)[0][0])  # a boundary corner of face 0
    vtx = tri.ravel()[corner]
    g0 = solver.bd.gamma0[np.nonzero(solver.bd.vertex_ids == vtx)[0][0]]
    # samples live in the face fiber coordinate: the vertex angle moves by
    # the transport phase
    j = corner % 3
    shift = solver.config.degree * np.angle(solver.atlas.transport[0, j])
    expected = fejer_delta(g0 + shift, solver.fd.k_max, solver.fd.theta) / (2 * np.pi)
    np.testing.assert_allclose(Rv[corner], expected, atol=1e-10)
    assert Rv[corner].min() >= -1e-10


def test_reconstruction_reality():
    mesh = meshgen.spherical_cap(3)
    solver = _solver(mesh, degree=2)
    state = init_state(solver.ops, solver.fd, solver.kappa_bar)
    rng = np.random.default_rng(5)
    state.f = rng.standard_normal(state.f.shape) + 1j * rng.standard_normal(state.f.shape)
    state.f[0] = state.f[0].real
    state.phi = rng.standard_normal(state.phi.shape)
    # full-spectrum oracle with explicit conjugate negative frequencies
    K, N = solver.fd.k_max, solver.fd.n
    ops = solver.ops
    tri = mesh.triangles
    theta = solver.fd.theta
    CV = np.zeros((len(tri), 3, 2 * K + 1), dtype=complex)
    for k in range(-K, K + 1):
        fk = state.f[k] if k >= 0 else np.conj(state.f[-k])
        fc = ops.transport_k(k) * fk[tri]
        CV[:, :, k + K] = 1j * k * fc
    CV[:, :, K] += TAU_BAR_VERTICAL
    basis = np.exp(1j * np.outer(np.arange(-K, K + 1), theta))
    full = np.tensordot(CV, basis, axes=([2], [0]))
    assert np.abs(full.imag).max() < 1e-10
    _, Rv = solver.reconstruct(state)
    np.testing.assert_allclose(Rv, full.real.reshape(-1, N), atol=1e-10)


# -- whole-solve behavior --------------------------------------------------

def test_disk_poincare_hopf_positive_index():
    mesh = meshgen.disk(6, area=1.0)
    res = run_admm(mesh, SolverConfig(lam=1.0, degree=1, fiber_n=16, max_iters=400))
    assert res.report.converged
    total = np.sum(res.ops.cr.mass * res.state.gamma)
    assert total == pytest.approx(1.0, abs=0.01)
    assert res.state.sigma_v.min() >= 0.0


def test_disk_constant_data_no_singularities():
    mesh = meshgen.disk(6, area=1.0)
    atlas = build_transport(mesh)
    angles = constant_field_angles(atlas)
    res = run_admm(mesh, SolverConfig(lam=1.0, degree=1, fiber_n=16, max_iters=400),
                   boundary_spec=angles)
    assert res.report.converged
    total = np.sum(res.ops.cr.mass * res.state.gamma)
    assert abs(total) < 0.01
    assert np.abs(res.state.gamma).max() < 0.05
    # the current concentrates: a perfect band-limited spike carries the
    # fraction k_max/n at its peak sample, so demand most of that
    dens = np.sqrt(np.einsum("cdm,cdm->cm", res.state.sigma_h, res.state.sigma_h)
                   + res.state.sigma_v ** 2)
    frac = dens.max(axis=1) / np.maximum(dens.sum(axis=1), 1e-30)
    assert np.median(frac) > 0.8 * res.fd.k_max / res.fd.n


def test_conservation_identity_at_convergence():
    mesh = meshgen.disk(6, area=1.0)
    res = run_admm(mesh, SolverConfig(lam=1.0, degree=2, fiber_n=16, max_iters=600))
    assert res.report.converged
    lhs = np.sum(res.ops.cr.mass * (res.state.gamma - res.kappa_bar))
    # the winding of the boundary data, routed through the saddle rows
    rhs = -np.sum(-res.boundary.edge_winding)
    assert lhs == pytest.approx(2.0, abs=0.01)
    assert lhs == pytest.approx(rhs, abs=0.01)
    # exact identity for the potential part, every converged state: the
    # density reached through the edge-midpoint Poisson row integrates to
    # the boundary circulation
    gt = res.ops.cr.mass * (res.state.gamma - res.kappa_bar)
    raw = res.state.gamma - (res.ops.cr.laplacian @ res.state.phi) / res.ops.cr.mass \
        - res.kappa_bar
    assert np.sum(gt) - np.sum(res.boundary.edge_winding) == pytest.approx(
        np.sum(res.ops.cr.mass * raw), abs=1e-9)


def test_annulus_two_loops():
    # two boundary loops: the saddle couples through both circulation rows
    mesh = meshgen.annulus(8)
    res = run_admm(mesh, SolverConfig(lam=1.0, degree=4, fiber_n=16, eps=5e-4))
    assert res.report.converged
    sing = extract_singularities(res.state.gamma, res.ops, 4)
    assert sing.index_sum() == pytest.approx(mesh.euler_characteristic(), abs=0.02)
    assert res.report.kkt_residual <= 1e-9


def test_saddle_build_telemetry():
    mesh = meshgen.disk(4)
    fixed = run_admm(mesh, SolverConfig(degree=4, fiber_n=16, max_iters=1, eps=0.0))
    assert fixed.report.saddle_builds == 1 and fixed.report.factorizations == 2
    assert fixed.report.timings["refactor"] > 0.0
    solver = AdmmSolver(mesh, SolverConfig(degree=4, fiber_n=16, max_iters=30, eps=0.0))
    for lc_factors in (1, 0):   # timings and counts cover one run, not every run
        rep = solver.run().report
        assert rep.saddle_builds >= 1
        assert rep.factorizations == rep.saddle_builds + lc_factors
        assert rep.timings["refactor"] <= rep.timings["global"] <= rep.timings["total"]


def test_curved_base_index_budget():
    # with curvature the singularity budget splits between the interior
    # curvature density and the boundary winding; their sum is exact and
    # the extracted index still lands near the Euler characteristic
    cases = [(meshgen.spherical_cap(8, cap_angle=np.pi / 3), 1),
             (meshgen.spherical_cap(8, cap_angle=np.pi / 3), 4),
             (meshgen.saddle(8, bend=0.6), 2)]
    for mesh, d in cases:
        res = run_admm(mesh, SolverConfig(lam=1.0, degree=d, fiber_n=16,
                                          max_iters=1500))
        assert res.report.converged
        total = np.sum(res.ops.cr.mass * res.state.gamma)
        budget = np.sum(res.ops.cr.mass * res.kappa_bar) \
            + res.boundary.edge_winding.sum()
        assert total == pytest.approx(budget, abs=5e-3)
        assert total / d == pytest.approx(1.0, abs=0.02)


def test_positivity_after_every_iteration():
    mesh = meshgen.disk(4)
    solver = _solver(mesh, degree=4)
    state = init_state(solver.ops, solver.fd, solver.kappa_bar)
    for _ in range(40):
        solver.iterate(state)
        assert state.sigma_v.min() >= 0.0


def test_objective_trend():
    mesh = meshgen.disk(5, area=1.0)
    solver = _solver(mesh, degree=1, eps=0.0, max_iters=320)
    res = solver.run()
    obj = res.report.objective_history
    assert np.all(np.isfinite(obj))
    early = abs(obj[5] - obj[20])
    late = abs(obj[80] - obj[319])
    assert late < early


def test_hard_mask_pins_gamma():
    mesh = meshgen.disk(5, area=1.0)
    # mask the central patch: interior edges with both endpoints close in
    center = np.linalg.norm(mesh.vertices[:, :2], axis=1)
    masked = [eid for eid in mesh.interior_edges
              if center[mesh.edges[eid]].max() < 0.3]
    assert masked
    cfg = SolverConfig(lam=1.0, degree=1, fiber_n=16, max_iters=400, mask=masked)
    res = run_admm(mesh, cfg)
    cols = res.ops.cr.edge_col[masked]
    np.testing.assert_allclose(res.state.gamma[cols], 0.0, atol=1e-14)
    # index still lands somewhere: total is preserved
    total = np.sum(res.ops.cr.mass * res.state.gamma)
    assert total == pytest.approx(1.0, abs=0.05)


def test_soft_mask_lambda_field():
    mesh = meshgen.disk(5, area=1.0)
    n_ie = len(mesh.interior_edges)
    center = np.linalg.norm(mesh.vertices[:, :2], axis=1)
    lam = np.full(n_ie, 0.5)
    inner = np.array([center[mesh.edges[eid]].max() < 0.4
                      for eid in mesh.interior_edges])
    lam[inner] = 50.0
    res = run_admm(mesh, SolverConfig(lam=lam, degree=1, fiber_n=16, max_iters=600))
    mass = res.ops.cr.mass * np.abs(res.state.gamma)
    assert mass[inner].sum() < 0.1 * mass.sum()


@contextlib.contextmanager
def _caller_blas_threads(count):
    """Set every OpenBLAS the solver's pin finds to ``count`` threads; yields
    the libraries and restores their counts afterwards."""
    libraries = solver_module._ONE_BLAS_THREAD.libraries()
    saved = [get() for _, get, _ in libraries]
    try:
        for _, _, set_ in libraries:
            set_(count)
        yield libraries
    finally:
        for (_, _, set_), n in zip(libraries, saved):
            set_(n)


def test_run_holds_openblas_to_one_thread(monkeypatch):
    # setup and run hold every OpenBLAS to one thread, and the caller's count
    # is back afterwards
    if not solver_module._ONE_BLAS_THREAD.libraries():
        pytest.skip("no OpenBLAS found in this process")
    seen = []
    factor, iterate = solver_module._factor_frequency, AdmmSolver.iterate

    def counts():
        seen.append([get() for _, get, _ in libraries])

    monkeypatch.setattr(solver_module, "_factor_frequency",
                        lambda *args: counts() or factor(*args))
    monkeypatch.setattr(AdmmSolver, "iterate", lambda self, state: counts() or iterate(self, state))
    with _caller_blas_threads(2) as libraries:
        solver = _solver(meshgen.disk(4), degree=4, eps=0.0, max_iters=3)
        assert [get() for _, get, _ in libraries] == [2] * len(libraries)
        solver.run()
        assert [get() for _, get, _ in libraries] == [2] * len(libraries)
    assert len(seen) == solver.fd.k_max + 1 + 3
    assert all(c == [1] * len(libraries) for c in seen), seen


def test_determinism_bitwise():
    mesh = meshgen.disk(4, area=1.0)
    cfg = SolverConfig(lam=1.0, degree=4, fiber_n=16, max_iters=60, eps=0.0)
    a = run_admm(mesh, cfg)
    b = run_admm(mesh, cfg)
    assert np.array_equal(a.state.sigma_h, b.state.sigma_h)
    assert np.array_equal(a.state.gamma, b.state.gamma)
    assert np.array_equal(a.state.f, b.state.f)
    assert np.array_equal(a.report.residual_history, b.report.residual_history)
    # the caller's OpenBLAS thread count changes no result: disk(24), the
    # smallest disk where it does without the solver's one-thread pin
    mesh, cfg = meshgen.disk(24, area=1.0), SolverConfig(degree=4, fiber_n=16, max_iters=1, eps=0.0)
    runs = []
    for count in (1, 2):
        with _caller_blas_threads(count):
            runs.append(run_admm(mesh, cfg))
    a, b = runs
    for name in ("sigma_h", "sigma_v", "gamma", "f", "phi"):
        assert np.array_equal(getattr(a.state, name), getattr(b.state, name)), name
    assert np.array_equal(a.report.residual_history, b.report.residual_history)


def test_threaded_matches_single():
    # the global step runs its frequency solves in one thread; there is no knob
    with pytest.raises(TypeError):
        SolverConfig(threads=4)


def test_nonconvergence_is_warning():
    mesh = meshgen.disk(4)
    res = run_admm(mesh, SolverConfig(lam=1.0, degree=4, fiber_n=16, max_iters=5))
    assert not res.report.converged
    assert "cap" in res.report.warning
    assert res.report.iterations == 5


def test_penalties_stay_finite_long_run():
    mesh = meshgen.fan_disk(8)
    solver = _solver(mesh, degree=1, fiber_n=8, eps=0.0, max_iters=10_000)
    res = solver.run()
    assert np.isfinite(res.state.mu) and res.state.mu > 0
    assert np.isfinite(res.state.nu) and res.state.nu > 0
    assert np.all(np.isfinite(res.report.residual_history))


def test_config_validation():
    cases = [({"lam": -1.0}, "nonnegative"),
             ({"radius": 0.0}, "radius"),
             ({"lam": np.nan}, "lambda must be finite"),
             ({"lam": np.array([1.0, np.inf])}, "lambda must be finite"),
             ({"radius": np.nan}, "radius must be finite"),
             ({"radius": 1e-200}, "radius"),
             ({"eps": np.nan}, "eps must be finite"),
             ({"degree": 2.5}, "degree must be a positive integer"),
             ({"max_iters": 0}, "max_iters must be a positive integer"),
             ({"fiber_n": 15}, "N must be even and >= 8"),
             ({"fiber_n": 6}, "N must be even and >= 8")]
    for kw, match in cases:
        with pytest.raises(ValueError, match=match):
            SolverConfig(**kw).validate()
    with pytest.raises(ValueError, match="interior edges"):
        SolverConfig(lam=np.ones(3)).validate(5)
    with pytest.raises(TypeError):
        SolverConfig(mu=1.0)
    # fixed-iteration runs use eps = 0
    SolverConfig(eps=0.0).validate()
