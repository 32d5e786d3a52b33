"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines; the whole suite takes a few minutes single-threaded.
"""

import time

import numpy as np
import pytest

import meshgen
from minsec.bundle import make_kappa_bar
from minsec.extract import (concentration_cdf, extract_field,
                            extract_singularities, face_angle_gradient,
                            graph_area)
from minsec.mesh import build_transport
from minsec.operators import (OperatorSet, assemble_crouzeix_raviart,
                              assemble_frequency_laplacian, assemble_linear_fem,
                              assemble_stiffness, quarter_turn)
from minsec.reduced import solve_reduced
from minsec.solver import SolverConfig, run_admm
from oracles import fejer_delta


def _verdict(num, name, ok, detail):
    line = "criterion %d (%s): %s  [%s]" % (num, name, "PASS" if ok else "FAIL", detail)
    print("\n" + line)
    assert ok, line


@pytest.fixture(scope="module")
def disk_mesh():
    mesh = meshgen.disk(8, area=1.0)
    assert abs(len(mesh.vertices) - 200) <= 25   # the nominal 200-vertex fixture
    return mesh


@pytest.fixture(scope="module")
def disk_run(disk_mesh):
    cfg = SolverConfig(lam=1.0, radius=1.0, degree=4, fiber_n=16,
                       eps=5e-4, max_iters=2000)
    t0 = time.perf_counter()
    res = run_admm(disk_mesh, cfg)
    elapsed = time.perf_counter() - t0
    return res, elapsed


def test_criterion_1_convergence_regression(disk_mesh, disk_run):
    res, elapsed = disk_run
    ok_conv = res.report.converged and res.report.iterations <= 2000
    ok_time = elapsed < 30.0
    # decay-rate check on a fixed-length run covering iterations 10..1000
    slope_res = run_admm(disk_mesh, SolverConfig(
        lam=1.0, radius=1.0, degree=4, fiber_n=16, eps=0.0, max_iters=1000))
    h = slope_res.report.residual_history
    lo, hi = 10, 1000
    x = np.log(np.arange(lo, hi))
    y = np.log(np.maximum(h[lo:hi, 1], 1e-300))
    slope = np.polyfit(x, y, 1)[0]
    ok_slope = slope <= -0.8
    _verdict(1, "convergence regression", ok_conv and ok_time and ok_slope,
             "converged at iter %d, %.1fs, dual-residual slope %.2f"
             % (res.report.iterations, elapsed, slope))


def test_criterion_2_self_consistency(disk_mesh, disk_run):
    res_coarse, _ = disk_run
    cfg = SolverConfig(lam=1.0, radius=1.0, degree=4, fiber_n=16,
                       eps=1e-6, max_iters=60000)
    res_tight = run_admm(disk_mesh, cfg)
    # objective of the coarse solution, evaluated with identical weights
    from minsec.solver import AdmmSolver
    helper = AdmmSolver(disk_mesh, cfg)
    obj_coarse = helper.objective(res_coarse.state)
    obj_tight = helper.objective(res_tight.state)
    rel = abs(obj_coarse - obj_tight) / abs(obj_tight)
    ok = (res_tight.report.converged and rel <= 0.01
          and res_tight.report.kkt_residual <= 1e-9)
    _verdict(2, "self-consistency", ok,
             "objective %.6f vs %.6f (rel %.2e), saddle residual %.1e"
             % (obj_coarse, obj_tight, rel, res_tight.report.kkt_residual))


def test_criterion_3_index_quantization(disk_mesh):
    t0 = time.perf_counter()
    details = []
    ok = True
    for d in (1, 2, 4):
        cfg = SolverConfig(lam=1.0, radius=1.0, degree=d, fiber_n=16,
                           eps=5e-4, max_iters=2000)
        res = run_admm(disk_mesh, cfg)
        sing = extract_singularities(res.state.gamma, res.ops, d)
        total = sing.index_sum()
        worst = max((abs(c.residual) for c in sing.clusters), default=0.0)
        ok &= res.report.converged
        ok &= abs(total - 1.0) <= 0.02
        ok &= worst <= 0.05
        details.append("d=%d: %d clusters, sum %.4f, worst residual %.4f"
                       % (d, len(sing.clusters), total, worst))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    _verdict(3, "index quantization and index sum", ok,
             "; ".join(details) + "; %.1fs" % elapsed)


def test_criterion_4_concentration(disk_mesh):
    # degree-1 solve at the stated lambda = r = 1: the degree-4 variant keeps
    # its singular core over most of a unit-area disk and is legitimately
    # diffuse there, so the concentration threshold applies to the vector case
    res = run_admm(disk_mesh, SolverConfig(lam=1.0, radius=1.0, degree=1,
                                           fiber_n=16, eps=5e-4, max_iters=2000))
    field = extract_field(res.state, res.ops)
    cdf = concentration_cdf(res.state, field, res.ops, res.fd,
                            thetas=np.array([np.pi / 2, np.pi]))
    ok = res.report.converged and cdf[0] >= 0.65
    _verdict(4, "concentration", ok, "mass within pi/2: %.3f" % cdf[0])


def test_criterion_5_parameter_behavior():
    # an oblong rectangle avoids the square's diagonal superposition orbit
    mesh = meshgen.rectangle(27, 21, width=1.3, height=1.0)
    assert abs(len(mesh.triangles) - 1000) <= 60
    d = 2
    counts = []
    lam_lo = 2 * np.pi * 0.1
    lams = list(lam_lo * (10.0 / lam_lo) ** (np.arange(4) / 3))
    for lam in lams:
        res = run_admm(mesh, SolverConfig(lam=lam, radius=1.0, degree=d,
                                          fiber_n=16, eps=5e-4, max_iters=900))
        sing = extract_singularities(res.state.gamma, res.ops, d)
        counts.append(len(sing.clusters))
    ok_lambda = counts[-1] <= counts[0] and np.all(np.diff(counts) <= 0)

    # sharpness of transition regions, measured where the field is reliable
    # (low-confidence faces carry only extraction noise)
    p90 = []
    for r in (0.1, 1.0):
        res = run_admm(mesh, SolverConfig(lam=0.1, radius=r, degree=d,
                                          fiber_n=16, eps=5e-4, max_iters=900))
        field = extract_field(res.state, res.ops)
        mag = face_angle_gradient(field, res.ops)
        conf = field.confidence / np.median(field.confidence)
        clean = conf[mesh.triangles].min(axis=1) > 0.3
        p90.append(np.nanpercentile(mag[clean], 90))
    ok_radius = p90[1] > p90[0]
    _verdict(5, "parameter behavior", ok_lambda and ok_radius,
             "clusters over lambda sweep %s; p90 |D sigma| %.3f -> %.3f"
             % (counts, p90[0], p90[1]))


def test_criterion_6_operator_property_suite():
    meshes = {
        "triangle": meshgen.single_triangle(),
        "disk fan": meshgen.fan_disk(8),
        "annulus": meshgen.annulus(5),
        "spherical cap": meshgen.spherical_cap(5),
        "saddle": meshgen.saddle(5),
    }
    failures = []
    for name, mesh in meshes.items():
        atlas = build_transport(mesh)
        fem = assemble_linear_fem(mesh, atlas)
        td = atlas.transport ** 2
        for k in (0, 1, 2):
            Lk = assemble_frequency_laplacian(fem, td ** (-k), k, radius=0.8)
            if np.abs((Lk - Lk.conj().T).toarray()).max() > 1e-12 * max(1, np.abs(Lk.data).max()):
                failures.append("%s: laplacian k=%d not hermitian" % (name, k))
            Lm = assemble_frequency_laplacian(fem, td ** k, -k, radius=0.8)
            if np.abs(Lm.toarray() - np.conj(Lk.toarray())).max() > 1e-12:
                failures.append("%s: conjugation mismatch k=%d" % (name, k))

        # planar parallel field has zero covariant energy
        if name in ("triangle", "disk fan"):
            zv = atlas.vertex_frame @ np.array([1.0, 0.0, 0.0])
            f = np.conj(zv[:, 0] + 1j * zv[:, 1])
            S = assemble_stiffness(fem, atlas.transport ** (-1))
            if np.real(np.conj(f) @ (S @ f)) > 1e-10:
                failures.append("%s: parallel field energy" % name)

        # discrete Stokes: interior curl sums to the boundary line integral
        if name != "triangle":
            cr = assemble_crouzeix_raviart(mesh, fem)
            rng = np.random.default_rng(1)
            v = rng.standard_normal((len(mesh.triangles), 2))
            area2 = np.repeat(fem.face_area, 2)
            total = np.ones(cr.laplacian.shape[0]) @ (
                cr.gradient.T @ (area2 * quarter_turn(v).ravel()))
            circ = 0.0
            for vtx, w, fid, *_ in mesh.boundary_halfedges:
                circ += np.dot(v[fid], atlas.face_frame[fid]
                               @ (mesh.vertices[w] - mesh.vertices[vtx]))
            if abs(total - circ) > 1e-10 * max(1, abs(circ)):
                failures.append("%s: discrete Stokes %.2e" % (name, abs(total - circ)))

        # Fejer nonnegativity on a 4N grid
        n = 16
        grid = 2 * np.pi * np.arange(4 * n) / (4 * n)
        if fejer_delta(0.37, n // 2 - 1, grid).min() < -1e-12:
            failures.append("%s: fejer negative" % name)

        # angle-defect consistency with the Euler characteristic
        interior = ~mesh.is_boundary_vertex
        total_curv = np.sum((atlas.vertex_curvature * mesh.vertex_area)[interior])
        angle_sum = np.zeros(len(mesh.vertices))
        np.add.at(angle_sum, mesh.triangles.ravel(), mesh.corner_angle.ravel())
        turning = np.sum((np.pi - angle_sum)[mesh.is_boundary_vertex])
        if abs(total_curv + turning - 2 * np.pi * mesh.euler_characteristic()) > 1e-8:
            failures.append("%s: angle-defect identity" % name)
    _verdict(6, "operator property suite", not failures,
             "all identities on 5 meshes" if not failures else "; ".join(failures))


def test_criterion_7_helicoid_oracle():
    from scipy.integrate import quad
    r = 0.25
    mesh = meshgen.annulus(24, r_inner=r, r_outer=1.0)
    assert len(mesh.triangles) >= 5000
    atlas = build_transport(mesh)
    ops = OperatorSet.assemble(mesh, atlas, degree=1, radius=r, k_max=1)
    sigma = np.arctan2(mesh.vertices[:, 1], mesh.vertices[:, 0])
    zv = atlas.vertex_frame[:, 0]
    frame_angle = np.arctan2(zv[:, 1], zv[:, 0])
    rep = np.exp(1j * (sigma - frame_angle))
    from minsec.extract import ExtractedField
    field = ExtractedField(z=rep, angle=np.angle(rep),
                           confidence=np.ones(len(rep)),
                           defined=np.ones(len(rep), dtype=bool), degree=1)
    area = graph_area(field, ops, radius=r)
    oracle = quad(lambda rho: np.sqrt(1 + r ** 2 / rho ** 2) * 2 * np.pi * rho,
                  r, 1.0)[0]
    rel = abs(area - oracle) / oracle
    _verdict(7, "helicoid oracle", rel <= 0.02,
             "graph area %.5f vs quadrature %.5f (rel %.3e, %d faces)"
             % (area, oracle, rel, len(mesh.triangles)))


def test_criterion_8_reduced_limits():
    flat = meshgen.disk(5)
    kb_flat = make_kappa_bar(build_transport(flat), degree=1)
    out = solve_reduced(flat, kb_flat, lam_eff=1.0)
    ok_flat = np.abs(out.gamma).max() < 1e-10

    cap = meshgen.spherical_cap(8)
    kb = make_kappa_bar(build_transport(cap), degree=1)
    cr = assemble_crouzeix_raviart(cap, assemble_linear_fem(cap, build_transport(cap)))
    masses = []
    for lam_eff in np.logspace(-3, 2, 8):
        sol = solve_reduced(cap, kb, lam_eff=float(lam_eff), eps=1e-8)
        masses.append(float(np.sum(cr.mass * np.abs(sol.gamma))))
    diffs = np.diff(masses)
    ok_monotone = np.all(diffs <= 1e-8 * max(1.0, max(masses)))
    _verdict(8, "reduced-solver limits", ok_flat and ok_monotone,
             "flat max %.1e; sweep masses %s"
             % (np.abs(out.gamma).max(), ["%.4f" % m for m in masses]))


def test_criterion_9_performance_scaling():
    times = []
    sizes = []
    for rings in (18, 26, 36):
        mesh = meshgen.disk(rings, area=1.0)
        sizes.append(len(mesh.vertices))
        cfg = SolverConfig(lam=1.0, radius=1.0, degree=4, fiber_n=16,
                           eps=0.0, max_iters=500)
        t0 = time.perf_counter()
        run_admm(mesh, cfg)
        times.append(time.perf_counter() - t0)
    r1 = times[1] / times[0]
    r2 = times[2] / times[1]
    ok = r1 <= 2.6 and r2 <= 2.6
    _verdict(9, "performance scaling", ok,
             "vertices %s, times %s, ratios %.2f / %.2f"
             % (sizes, ["%.1fs" % t for t in times], r1, r2))
