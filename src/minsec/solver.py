"""ADMM solver for the minimal-section relaxation.

One iteration: per-frequency linear solves plus a frequency-zero saddle
system (global step), pointwise shrinkage at corner samples and interior
edges (local step), dual ascent, residuals, and adaptive penalties.
Corner samples and the one-sided vertical coefficients meet only through
:func:`bundle.fourier_forward` and :func:`bundle.fourier_inverse`. The
per-frequency systems and the conforming frequency-zero block are
factored when the solver is built. The edge-midpoint Laplacian is
factored, and solved against the boundary rows, at the first saddle
build; a penalty change refactors one block with Laplacian sparsity,
and the dense boundary Schur complement once per penalty ratio; each
saddle solve back-substitutes through the sparse factors.
The right-hand sides, boundary coupling rows and reconstruction use the
gradient and circulation matrices, corner scatter and transport powers of
:mod:`operators`; the solver builds none of its own.

A solve is set by the seven :class:`SolverConfig` fields ``lam``,
``radius``, ``degree``, ``fiber_n``, ``eps``, ``max_iters`` and ``mask``.
Both penalties start at 1 and are adapted every iteration; the objective
is recorded every iteration.
"""

import numbers
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .bundle import (TAU_BAR_VERTICAL, FiberDiscretization, check_fiber,
                     fourier_forward, fourier_inverse, make_boundary_data,
                     make_kappa_bar)
from .mesh import build_transport
from .operators import OperatorSet, quarter_turn

#: Penalty adaptation: scale a penalty by ADAPT_FACTOR when one residual
#: exceeds ADAPT_RATIO times the other.
ADAPT_RATIO = 10.0
ADAPT_FACTOR = 2.0


@dataclass
class SolverConfig:
    """Parameters of one solve.

    ``lam`` may be a scalar or a per-interior-edge array (a soft mask);
    ``mask`` lists global edge ids whose singularity density is pinned to
    zero (a hard mask). ``eps`` bounds all four residuals at convergence.
    """

    lam: object = 1.0
    radius: float = 1.0
    degree: int = 1
    fiber_n: int = 64
    eps: float = 5e-4
    max_iters: int = 2000
    mask: object = None

    def validate(self, n_interior_edges=None):
        """Check every value; returns ``lam`` as a float array."""
        lam = np.asarray(self.lam, dtype=float)
        if not np.all(np.isfinite(lam)):
            raise ValueError("lambda must be finite")
        if np.any(lam < 0):
            raise ValueError("lambda must be nonnegative")
        if lam.ndim not in (0, 1):
            raise ValueError("lambda must be a scalar or a per-interior-edge array")
        if lam.ndim == 1 and n_interior_edges is not None and len(lam) != n_interior_edges:
            raise ValueError("lambda field has %d entries; mesh has %d interior edges"
                             % (len(lam), n_interior_edges))
        if not np.isfinite(self.eps):
            raise ValueError("eps must be finite")
        if self.eps < 0:
            raise ValueError("epsilon must be nonnegative")
        for name in ("degree", "fiber_n", "max_iters"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError("%s must be a positive integer, got %r" % (name, value))
        check_fiber(self.radius, self.fiber_n)
        return lam


@dataclass
class BundleState:
    """ADMM iterate. Corner samples are indexed ``3*face + corner``."""

    sigma_h: np.ndarray        # (n_c, 2, n_inc) horizontal covector samples
    sigma_v: np.ndarray        # (n_c, n_inc) vertical covector samples
    w_h: np.ndarray            # scaled dual, same shape as sigma_h
    w_v: np.ndarray
    gamma: np.ndarray          # (n_ie,) singularity density
    z: np.ndarray              # (n_ie,) scaled dual
    f: np.ndarray              # (k_max + 1, n_v) complex coefficients, k >= 0
    phi: np.ndarray            # (n_ie,)
    mu: float
    nu: float
    iteration: int = 0


@dataclass
class ConvergenceReport:
    converged: bool = False
    iterations: int = 0
    eps: float = 0.0
    residuals: np.ndarray = None            # final (4,) values
    residual_history: np.ndarray = None     # (iterations, 4)
    objective_history: np.ndarray = None
    kkt_residual: float = np.nan
    timings: dict = field(default_factory=dict)
    saddle_builds: int = 0
    warning: str = ""


@dataclass
class SolveResult:
    state: BundleState
    report: ConvergenceReport
    ops: OperatorSet
    fd: FiberDiscretization
    boundary: object
    kappa_bar: np.ndarray


def init_state(ops, fd, boundary_data):
    """Feasible start: reference section samples, curvature as density, zero duals."""
    n_c = 3 * len(ops.mesh.triangles)
    n_ie = len(ops.mesh.interior_edges)
    kappa_bar = make_kappa_bar(ops.atlas, ops.degree)
    return BundleState(
        sigma_h=np.zeros((n_c, 2, fd.n)),
        sigma_v=np.full((n_c, fd.n), TAU_BAR_VERTICAL),
        w_h=np.zeros((n_c, 2, fd.n)),
        w_v=np.zeros((n_c, fd.n)),
        gamma=kappa_bar.copy(),
        z=np.zeros(n_ie),
        f=np.zeros((fd.k_max + 1, len(ops.mesh.vertices)), dtype=complex),
        phi=np.zeros(n_ie),
        mu=1.0,
        nu=1.0,
    )


def metric_sq(h, v, radius):
    """Squared bundle metric ``|h|^2 + v^2 / r^2``; axis 1 of ``h`` holds the 2-vector."""
    return np.einsum("cd...,cd...->c...", h, h) + v * v / radius ** 2


def sample_density(state, radius):
    """Bundle-metric norm ``sqrt(|sigma_h|^2 + sigma_v^2 / r^2)`` of each sample."""
    return np.sqrt(metric_sq(state.sigma_h, state.sigma_v, radius))


def local_step_sigma(hat_h, hat_v, mu, radius):
    """Pointwise prox of the bundle-metric norm with vertical nonnegativity.

    Clamps the vertical part to be nonnegative, then shortens the sample by
    ``1/mu`` in the metric ``|h|^2 + v^2 / r^2``, zeroing it inside the
    deadzone. Axis 1 of ``hat_h`` holds the 2-vector.
    """
    v = np.maximum(hat_v, 0.0)
    norm = np.sqrt(metric_sq(hat_h, v, radius))
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norm > 0, np.maximum(1.0 - 1.0 / (mu * norm), 0.0), 0.0)
    return np.expand_dims(scale, 1) * hat_h, scale * v


def local_step_gamma(gamma_hat, nu, lam, mask_cols=None):
    """Per-edge scalar shrinkage by ``lam/nu``; masked columns forced to zero."""
    thresh = np.broadcast_to(np.asarray(lam, dtype=float) / nu, gamma_hat.shape)
    mag = np.abs(gamma_hat)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(mag > 0, np.maximum(1.0 - thresh / mag, 0.0), 0.0)
    out = scale * gamma_hat
    if mask_cols is not None and len(mask_cols):
        out[mask_cols] = 0.0
    return out


def adapt_penalty(penalty, r_primal, r_dual):
    """Balanced-residual update: returns (new penalty, dual rescale factor)."""
    if r_primal > ADAPT_RATIO * r_dual:
        return penalty * ADAPT_FACTOR, 1.0 / ADAPT_FACTOR
    if r_dual > ADAPT_RATIO * r_primal:
        return penalty / ADAPT_FACTOR, ADAPT_FACTOR
    return penalty, 1.0


class GlobalSystems:
    """Prefactored linear systems of the global step.

    The per-frequency systems are independent of the penalties and are
    factored once. The frequency-zero saddle system couples the conforming
    and edge-midpoint blocks only through boundary rows; it is solved by a
    dense Schur complement over the boundary multiplier, with the
    conforming block gauge-fixed at one boundary vertex (its zero frequency
    is determined only up to a constant).

    The edge-midpoint block ``K2 = mu*ell*Lc + nu*Lc M^-1 Lc`` (``Lc`` the
    edge-midpoint Laplacian, ``M`` its diagonal mass) is used in the exact
    product form ``K2 = Lc M^-1 A`` with ``A = mu*ell*M + nu*Lc``, so
    ``K2^-1 = A^-1 M Lc^-1``. The boundary rows are ``C1 = B G_fem`` and
    ``C2 = B J G_cr`` (``B`` the circulation matrix, ``J`` the per-face
    quarter turn). The constructor factors the per-frequency systems and
    the conforming block and forms ``S1 = C1 L0^-1 C1^T``. The first
    :meth:`refactor` factors ``Lc`` and forms ``W2 = M Lc^-1 C2^T``; every
    build, the first included, factors ``A = nu (Lc + t M)``, ``t = mu*ell/nu``.
    ``mu*ell`` times the Schur complement, ``S1 + mu*ell C2 A^-1 W2``, depends
    only on ``t``, so one LU of it is kept per ``t``. ``S1``, ``W2`` and the
    factors are all that is stored; :meth:`solve_zero` back-substitutes
    through them. ``builds`` and ``build_seconds`` count and time the builds.
    """

    def __init__(self, ops, fd, boundary_data):
        self.ops = ops
        self.fd = fd
        self.bd = boundary_data
        mesh = ops.mesh
        n_v = len(mesh.vertices)

        self.b_vertices = np.asarray(boundary_data.vertex_ids, dtype=np.int64)
        is_b = np.zeros(n_v, dtype=bool)
        is_b[self.b_vertices] = True
        self.interior = np.nonzero(~is_b)[0]
        self.pin = int(self.b_vertices.min())
        self.free0 = np.delete(np.arange(n_v), self.pin)

        self._freq = {}
        for k in range(1, fd.k_max + 1):
            L = ops.laplacian(k)
            try:
                lu = splu(L[self.interior][:, self.interior].tocsc())
            except RuntimeError as exc:
                raise RuntimeError("factorization failed at frequency %d: %s"
                                   % (k, exc)) from exc
            self._freq[k] = (lu, L[self.interior][:, self.b_vertices].tocsc())

        self._L0 = L0 = ops.laplacian(0).real.tocsc()
        self._lu0 = splu(L0[self.free0][:, self.free0].tocsc())

        B = ops.boundary
        J = sp.kron(sp.identity(len(mesh.triangles)), [[0.0, -1.0], [1.0, 0.0]])
        self._C1 = (B @ ops.fem.gradient).tocsc()       # (n_be, n_v)
        self._C2 = (B @ J @ ops.cr.gradient).tocsc()    # (n_be, n_ie)
        self._C1f = C1f = self._C1[:, self.free0]
        self._S1 = C1f @ self._lu0.solve(C1f.T.toarray())   # C1 L0^{-1} C1^T
        self._lu_lc = None
        self._schurs = {}                               # t -> LU of mu*ell*S
        self._mu = None
        self._nu = None
        self.builds = 0
        self.build_seconds = 0.0

    def refactor(self, mu, nu):
        """(Re)build the frequency-zero saddle pieces for the given penalties."""
        if mu == self._mu and nu == self._nu:
            return
        t0 = time.perf_counter()
        mu_ell = mu * self.fd.length
        cr = self.ops.cr
        if self._lu_lc is None:
            self._lu_lc = splu(cr.laplacian.tocsc())
            # M Lc^{-1} C2^T, reused in every Schur rebuild
            self._W2 = cr.mass[:, None] * self._lu_lc.solve(self._C2.T.toarray())
        self._lu_a = splu(cr.shifted_laplacian(mu_ell, nu))
        t = mu_ell / nu
        if t not in self._schurs:
            lu, piv = sla.lu_factor(self._S1 + mu_ell * (self._C2 @ self._lu_a.solve(self._W2)))
            diag = np.abs(np.diag(lu))
            if diag.min() <= 1e-14 * max(diag.max(), 1e-300):
                raise RuntimeError("singular boundary coupling: incompatible boundary data")
            self._schurs[t] = (lu, piv)
        self._mu, self._nu = mu, nu
        self.builds += 1
        self.build_seconds += time.perf_counter() - t0

    def solve_frequency(self, k, rhs):
        """Solve the frequency-``k`` system with pinned boundary values."""
        lu, L_ib = self._freq[k]
        fb = self.bd.coefficient(k)
        out = np.zeros(rhs.shape[0], dtype=complex)
        out[self.b_vertices] = fb
        out[self.interior] = lu.solve(rhs[self.interior] - L_ib @ fb)
        return out

    def solve_zero(self, rhs1, rhs2, g0):
        """Solve the saddle system; returns (f0, phi, beta).

        ``rhs1``/``rhs2`` carry their penalty factors already; the first
        block is ``mu*ell*L0``, the second the combined edge-midpoint
        operator, coupled by the boundary circulation rows equal to ``g0``.
        """
        mu_ell = self._mu * self.fd.length
        C1f, C2 = self._C1f, self._C2

        def solve1(r):                                  # (mu*ell*L0_ff)^{-1} r
            return self._lu0.solve(r) / mu_ell

        def solve2(r):                                  # K2^{-1} r = A^{-1} M Lc^{-1} r
            return self._lu_a.solve(self.ops.cr.mass * self._lu_lc.solve(r))

        r1 = rhs1[self.free0]
        schur = self._schurs[mu_ell / self._nu]
        beta = mu_ell * sla.lu_solve(schur, C1f @ solve1(r1) + C2 @ solve2(rhs2) - g0)
        f0 = np.zeros(len(self.ops.mesh.vertices))
        f0[self.free0] = solve1(r1 - C1f.T @ beta)
        phi = solve2(rhs2 - C2.T @ beta)
        return f0, phi, beta

    def kkt_residual(self, f0, phi, beta, rhs1, rhs2, g0):
        """Relative residual of the full three-block saddle system."""
        mu_ell = self._mu * self.fd.length
        cr = self.ops.cr
        K2phi = (mu_ell * (cr.laplacian @ phi)
                 + self._nu * (cr.laplacian @ ((cr.laplacian @ phi) / cr.mass)))
        r1 = mu_ell * (self._L0 @ f0) + self._C1.T @ beta - rhs1
        r2 = K2phi + self._C2.T @ beta - rhs2
        r3 = self._C1 @ f0 + self._C2 @ phi - g0
        num = np.sqrt(np.sum(r1 ** 2) + np.sum(r2 ** 2) + np.sum(r3 ** 2))
        den = np.sqrt(np.sum(rhs1 ** 2) + np.sum(rhs2 ** 2) + np.sum(g0 ** 2))
        return num / max(den, 1e-300)


class AdmmSolver:
    """Owns operators, factorizations, and the iteration loop for one mesh."""

    def __init__(self, mesh, config, boundary_spec="tangent", atlas=None):
        self.config = config
        self.mesh = mesh
        self.lam = config.validate(len(mesh.interior_edges))
        self.atlas = build_transport(mesh) if atlas is None else atlas
        self.fd = FiberDiscretization(config.fiber_n, config.radius)
        self.ops = OperatorSet.assemble(mesh, self.atlas, config.degree,
                                        config.radius, self.fd.k_max)
        self.bd = make_boundary_data(self.atlas, boundary_spec, config.degree,
                                     self.fd.k_max)
        self.kappa_bar = make_kappa_bar(self.atlas, config.degree)
        self.systems = GlobalSystems(self.ops, self.fd, self.bd)
        self.mask_cols = self.ops.cr.mask_columns([] if config.mask is None else config.mask)
        self._phase_times = {"global": 0.0, "local": 0.0, "dual": 0.0,
                             "residual": 0.0}

        w = self.ops.fem.corner_weight.ravel()
        self._sample_measure = w[:, None] * (self.fd.length / self.fd.n)
        # boundary circulation of the reconstructed horizontal part equals
        # minus the winding of the boundary data (the interior-edge block
        # rotates gradients by +90 degrees, so positively wound data drives
        # positive singularity density)
        self._g0 = -self.bd.edge_winding

    # -- pieces of one iteration ----------------------------------------

    def global_step(self, state):
        ops, fd = self.ops, self.fd
        n_f = len(self.mesh.triangles)
        r2 = self.config.radius ** 2

        # batched right-hand side pieces for every frequency at once; only
        # the per-face mean of the horizontal samples enters them
        alpha_h = (state.sigma_h + state.w_h).reshape(n_f, 3, 2, -1).mean(axis=1)
        face_h = ops.fem.face_area[:, None, None] * fourier_forward(alpha_h, fd.k_max)
        Cv = fourier_forward(state.sigma_v + state.w_v - TAU_BAR_VERTICAL, fd.k_max)
        gc_all = np.einsum("fdj,fdk->fjk", ops.fem.hat_gradient, face_h)  # (n_f, 3, K+1)
        mc_all = np.einsum("fij,fjk->fik", ops.fem.corner_mass, Cv.reshape(n_f, 3, -1))

        for k in range(1, fd.k_max + 1):
            rhs = ops.scatter_corners(gc_all[:, :, k] - (1j * k / r2) * mc_all[:, :, k], k)
            state.f[k] = self.systems.solve_frequency(k, rhs)

        # frequency zero: conforming + edge-midpoint blocks meet at the boundary
        mu_ell = state.mu * fd.length
        self.systems.refactor(state.mu, state.nu)
        face_h0 = face_h[:, :, 0].real
        rhs1 = mu_ell * (ops.fem.gradient.T @ face_h0.ravel())
        jt_h0 = -quarter_turn(face_h0)        # adjoint of the quarter turn
        g = state.gamma - self.kappa_bar + state.z
        rhs2 = (mu_ell * (ops.cr.gradient.T @ jt_h0.ravel())
                + state.nu * (ops.cr.laplacian @ g))
        f0, phi, beta = self.systems.solve_zero(rhs1, rhs2, self._g0)
        state.f[0] = f0
        state.phi = phi
        self._last_zero = (f0, phi, beta, rhs1, rhs2)
        return state

    def reconstruct(self, state):
        """Samples of the reference-plus-potential covector (no dual shift)."""
        ops, fd = self.ops, self.fd
        n_f = len(self.mesh.triangles)
        K = fd.k_max
        tri = self.mesh.triangles

        fc_all = ops.transport_pow * state.f[:, tri]             # (K+1, n_f, 3)
        CH = np.einsum("fdj,kfj->fdk", ops.fem.hat_gradient, fc_all)
        CV = ((1j * np.arange(K + 1))[:, None, None] * fc_all).transpose(1, 2, 0)
        CH[:, :, 0] += quarter_turn(ops.cr_face_gradient(state.phi))
        CV[:, :, 0] += TAU_BAR_VERTICAL

        Rh_face = fourier_inverse(CH, fd.n)                      # (n_f, 2, N)
        Rv = fourier_inverse(CV, fd.n)                           # (n_f, 3, N)
        Rh = np.repeat(Rh_face, 3, axis=0)                       # (n_c, 2, N)
        return Rh, Rv.reshape(3 * n_f, fd.n)

    def gamma_target(self, state):
        cr = self.ops.cr
        return (cr.laplacian @ state.phi) / cr.mass + self.kappa_bar

    def sigma_norm(self, h, v):
        """Mass-weighted bundle-metric norm over corner samples."""
        return np.sqrt(np.sum(self._sample_measure * metric_sq(h, v, self.config.radius)))

    def gamma_norm(self, g):
        return np.sqrt(np.sum(self.ops.cr.mass * g * g))

    def objective(self, state):
        """Mass of the section current plus the weighted singularity mass."""
        mass_sigma = np.sum(self._sample_measure * sample_density(state, self.config.radius))
        mass_gamma = np.sum(self.ops.cr.mass * self.lam * np.abs(state.gamma))
        return mass_sigma + float(mass_gamma)

    def iterate(self, state):
        """One full ADMM sweep; returns the four residuals."""
        cfg = self.config
        t0 = time.perf_counter()
        self.global_step(state)
        Rh, Rv = self.reconstruct(state)
        t1 = time.perf_counter()
        hat_h = Rh - state.w_h
        hat_v = Rv - state.w_v
        prev_h, prev_v = state.sigma_h, state.sigma_v
        state.sigma_h, state.sigma_v = local_step_sigma(hat_h, hat_v, state.mu, cfg.radius)

        gt = self.gamma_target(state)
        prev_g = state.gamma
        state.gamma = local_step_gamma(gt - state.z, state.nu, self.lam, self.mask_cols)
        t2 = time.perf_counter()

        state.w_h = state.w_h + state.sigma_h - Rh
        state.w_v = state.w_v + state.sigma_v - Rv
        state.z = state.z + state.gamma - gt
        t3 = time.perf_counter()

        r_p_mu = self.sigma_norm(state.sigma_h - Rh, state.sigma_v - Rv)
        r_d_mu = self.sigma_norm(state.sigma_h - prev_h, state.sigma_v - prev_v)
        r_p_nu = self.gamma_norm(state.gamma - gt)
        r_d_nu = self.gamma_norm(state.gamma - prev_g)
        t4 = time.perf_counter()
        pt = self._phase_times
        pt["global"] += t1 - t0
        pt["local"] += t2 - t1
        pt["dual"] += t3 - t2
        pt["residual"] += t4 - t3

        state.mu, s = adapt_penalty(state.mu, r_p_mu, r_d_mu)
        if s != 1.0:
            state.w_h = state.w_h * s
            state.w_v = state.w_v * s
        state.nu, s = adapt_penalty(state.nu, r_p_nu, r_d_nu)
        if s != 1.0:
            state.z = state.z * s

        state.iteration += 1
        return np.array([r_p_mu, r_d_mu, r_p_nu, r_d_nu])

    def run(self):
        cfg = self.config
        state = init_state(self.ops, self.fd, self.bd)
        report = ConvergenceReport(eps=cfg.eps)
        history = []
        objective = []
        self._phase_times = dict.fromkeys(self._phase_times, 0.0)
        builds0, build_s0 = self.systems.builds, self.systems.build_seconds
        t_start = time.perf_counter()
        converged = False
        for _ in range(cfg.max_iters):
            res = self.iterate(state)
            history.append(res)
            objective.append(self.objective(state))
            if cfg.eps > 0 and np.all(res < cfg.eps):
                converged = True
                break
        timings = dict(self._phase_times)
        timings["total"] = time.perf_counter() - t_start
        timings["refactor"] = self.systems.build_seconds - build_s0
        report.saddle_builds = self.systems.builds - builds0
        report.converged = converged
        report.iterations = state.iteration
        report.residuals = history[-1]
        report.residual_history = np.array(history)
        report.objective_history = np.array(objective)
        report.timings = timings
        f0, phi, beta, rhs1, rhs2 = self._last_zero
        report.kkt_residual = self.systems.kkt_residual(f0, phi, beta, rhs1, rhs2, self._g0)
        if not converged:
            report.warning = "iteration cap %d reached before eps=%g" % (
                cfg.max_iters, cfg.eps)
        return SolveResult(state=state, report=report, ops=self.ops, fd=self.fd,
                           boundary=self.bd, kappa_bar=self.kappa_bar)


def run_admm(mesh, config, boundary_spec="tangent", atlas=None):
    """Solve the relaxation on ``mesh``; returns a :class:`SolveResult`.

    ``boundary_spec`` is ``"tangent"`` or a ``vertex -> angle`` mapping
    covering every boundary vertex (see :func:`make_boundary_data`).

    Non-convergence within the iteration cap is reported in
    ``result.report.warning``, never raised; partial states remain usable
    for extraction.
    """
    return AdmmSolver(mesh, config, boundary_spec, atlas=atlas).run()
