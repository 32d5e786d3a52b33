"""ADMM solver for the minimal-section relaxation.

One iteration: per-frequency linear solves plus a frequency-zero saddle
system (global step), pointwise shrinkage at corner samples and interior
edges (local step), dual ascent, residuals, and adaptive penalties.
Corner samples and the one-sided vertical coefficients meet only through
the transform pair :func:`bundle._forward` and :func:`bundle._inverse`.
The per-frequency systems and the conforming frequency-zero block are
factored when the solver is built (the first frequency's factor also
orders the interior vertices for the others), the edge-midpoint Laplacian
at the first saddle build, all by :func:`spd_lu`. Setup factors the
first frequency on the calling thread and sends the conforming block and
every other frequency to ``_OWNERS``, one owner thread per usable core,
as soon as each block is gathered; the first saddle build sends the
edge-midpoint Laplacian to owner 0. scipy's SuperLU frees a factor only on
the thread that made it, so an owner's factors live only in that owner's
box, and the box is emptied on its owner when the systems are collected.
Every solve runs on the calling thread. The
penalty-free part of the dense boundary Schur complement comes in closed
form from the discrete Hodge decomposition of face fields. Every penalty
change makes one sparse factor: the penalized edge-midpoint block
bordered by the boundary rows, a symmetric quasi-definite matrix whose
trailing block holds the rest of the Schur complement
(:class:`_Bordered`); it then factors that complement. Only sparse factors
and dense blocks with one row per boundary edge are stored; saddle solves
back-substitute.
The right-hand sides, boundary coupling rows and reconstruction use the
gradient and circulation matrices, corner incidence and transport powers
of :mod:`operators`; the solver builds none of its own.

:meth:`AdmmSolver.iterate` does all sample work of an iteration in two
sweeps over face chunks: before the solves, the face sums, forward
transform, per-face right-hand sides and conjugate transport; after
them, reconstruction, shrinkage, dual update and the partial sums of the
two sample residuals and the sample mass. A chunk holds as many whole
faces as fit in ``_CHUNK_SAMPLES`` corner-fiber samples (at least one),
so the chunk bounds and the order in which partial sums are added depend
on the mesh and ``fiber_n`` only: results are bitwise the same however
many threads run the chunks. A one-chunk mesh runs them inline; otherwise
they go to a module-level thread pool of at most one thread per usable
core (numpy releases the GIL in its array loops). Worker threads call no
public function or method of the package: the span tracing of
``perfbench`` keeps one span stack for all threads, so every traced call
must come from the main thread. The owners, too, run only private
functions; the sparse solves and the penalty logic stay on the main
thread. While the solver is built and while :meth:`AdmmSolver.run` runs,
every OpenBLAS loaded in the process is held to one thread and the
caller's thread counts are restored afterwards (``_ONE_BLAS_THREAD``):
idle OpenBLAS threads busy-wait and take cores from these threads, and a
threaded BLAS call sums in an order that depends on the thread count.

The sweeps update the state's four sample arrays (``sigma_h``,
``sigma_v``, ``w_h``, ``w_v``) in place. The duals are overwritten where
they are; the local step writes the new ``sigma`` into spare buffers that
the solver owns, and the arrays they replace hold the residual
differences, then become the next spares. So an array taken from a state
before an iteration is overwritten by it; copy it to keep it. The state
returned by :meth:`AdmmSolver.run` shares no memory with the solver's
spares.

A solve is set by the seven :class:`SolverConfig` fields ``lam``,
``radius``, ``degree``, ``fiber_n``, ``eps``, ``max_iters`` and ``mask``.
Both penalties start at 1 and are adapted every iteration; the objective
is recorded every iteration.
"""

import atexit
import ctypes
import functools
import numbers
import os
import queue
import threading
import time
import weakref
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .bundle import (TAU_BAR_VERTICAL, FiberDiscretization, _forward, _inverse,
                     check_fiber, make_boundary_data, make_kappa_bar)
from .mesh import build_transport
from .operators import OperatorSet, quarter_turn

#: Penalty adaptation: scale a penalty by ADAPT_FACTOR when one residual
#: exceeds ADAPT_RATIO times the other.
ADAPT_RATIO = 10.0
ADAPT_FACTOR = 2.0

#: Corner-fiber samples per chunk of the sample sweeps (whole faces, at least one).
_CHUNK_SAMPLES = 2 ** 16


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


#: Runs the chunks of multi-chunk sweeps; threads start as chunks are submitted.
_POOL = ThreadPoolExecutor(max_workers=_usable_cores(), thread_name_prefix="minsec-sweep")


class _Owner:
    """One daemon thread that runs the jobs given to it one at a time, in
    order: :meth:`submit` returns a future, :meth:`post` nothing.

    :meth:`post` only puts to a ``queue.SimpleQueue``, whose ``put`` is
    reentrant, so a finalizer may call it from whatever thread a garbage
    collection runs on. ``ThreadPoolExecutor.submit`` may not: it takes
    locks that a submit interrupted by that collection already holds, and a
    finalizer that submits from there deadlocks."""

    def __init__(self):
        self._jobs = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._thread = None

    def submit(self, fn, *args):
        with self._lock:
            if self._thread is None or not self._thread.is_alive():    # first use, or after a fork
                self._thread = threading.Thread(target=self._serve, name="minsec-factor",
                                                daemon=True)
                self._thread.start()
        future = Future()
        self.post(_settle, future, fn, args)
        return future

    def post(self, fn, *args):
        self._jobs.put((fn, args))

    def stop(self):
        """Ends the thread once every job given before has run."""
        with self._lock:
            thread, self._thread = self._thread, None
        if thread is not None and thread.is_alive():
            self.post(None)
            thread.join()

    def _serve(self):
        while True:
            fn, args = self._jobs.get()
            if fn is None:
                return
            fn(*args)
            del fn, args                # hold no job's arguments while idle


def _settle(future, fn, args):
    """``fn(*args)``'s result or exception into ``future``."""
    try:
        future.set_result(fn(*args))
    except BaseException as exc:
        future.set_exception(exc)


#: One owner per usable core. Owner ``i`` makes, holds and frees the factors
#: sent to it: scipy's SuperLU frees a factor only on the thread that made it.
#: They stop at interpreter exit: a factor still held then is freed in the
#: interpreter's teardown, which fails while the thread that made it lives.
_OWNERS = [_Owner() for _ in range(_usable_cores())]
atexit.register(lambda: [owner.stop() for owner in _OWNERS])


class _OneBlasThread:
    """Holds every OpenBLAS loaded in the process to one thread while any
    caller is inside, and restores the caller's counts on the last exit.

    OpenBLAS worker threads busy-wait after each threaded call and take cores
    from the owner and sweep threads, and a threaded call sums in an order
    that depends on the thread count. numpy and scipy may each load their own
    OpenBLAS; the libraries are found once, from the process's memory map,
    under the symbol names below. Where none is found this does nothing.
    """

    _SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
                ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
                ("openblas_get_num_threads", "openblas_set_num_threads"))

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._libraries = None
        self._saved = []

    def libraries(self):
        """``(path, get, set)`` of each OpenBLAS mapped into the process."""
        if self._libraries is None:
            try:
                with open("/proc/self/maps") as fh:
                    paths = {line.split(None, 5)[-1].strip() for line in fh}
            except OSError:                 # no memory map on this platform
                paths = set()
            found = []
            for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
                try:
                    lib = ctypes.CDLL(path)
                except OSError:
                    continue
                for get, set_ in self._SYMBOLS:
                    if hasattr(lib, get) and hasattr(lib, set_):
                        get, set_ = getattr(lib, get), getattr(lib, set_)
                        get.argtypes, get.restype = [], ctypes.c_int
                        set_.argtypes, set_.restype = [ctypes.c_int], None
                        found.append((path, get, set_))
                        break
            self._libraries = found
        return self._libraries

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = [(set_, get()) for _, get, set_ in self.libraries()]
                for set_, _ in self._saved:
                    set_(1)
            self._depth += 1
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_, count in self._saved:
                    set_(count)
        return False


_ONE_BLAS_THREAD = _OneBlasThread()


def _with_one_blas_thread(fn):
    """``fn`` run inside ``_ONE_BLAS_THREAD``. The wrapper's code lives in this
    module, which the span tracer checks before it wraps a method."""
    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        with _ONE_BLAS_THREAD:
            return fn(*args, **kwargs)
    return pinned


def spd_lu(matrix, permc_spec="MMD_AT_PLUS_A"):
    """Sparse LU of a symmetric (or Hermitian) matrix, diagonal pivots, symmetric
    fill-reducing ordering unless ``permc_spec`` names another (:class:`_Factor`,
    :class:`_Bordered`: ``NATURAL``). The matrix is positive definite or, bordered,
    symmetric quasi-definite (:class:`_Bordered`), so that every diagonal pivot is
    nonzero. Free a factor on the thread that made it: scipy's SuperLU frees it
    only there, and on any other thread its memory is never returned."""
    return _spd_lu(matrix, permc_spec)


def _spd_lu(matrix, permc_spec):
    """:func:`spd_lu`, which owner threads call (they call no public function)."""
    return splu(matrix.tocsc(), permc_spec=permc_spec, diag_pivot_thresh=0,
                options={"SymmetricMode": True})


def _factor_frequency(k, L_ii, permc_spec):
    """:func:`spd_lu` of the interior block of ``L_k`` (``k = 0``: ``L0_ff``);
    a failure names ``k``."""
    try:
        return _spd_lu(L_ii, permc_spec)
    except RuntimeError as exc:
        raise RuntimeError("factorization failed at frequency %d: %s" % (k, exc)) from exc


def _make_into(box, key, make, *args):
    """Owner job: ``make(*args)`` into ``box[key]``. It returns nothing, so
    that no future holds the factor."""
    box[key] = make(*args)


def _release(owners, boxes):
    """Empties each box on its own owner, so that its factors are freed on the
    thread that made them. A finalizer: it only posts."""
    for owner, box in zip(owners, boxes):
        owner.post(box.clear)


class _Factor:
    """:func:`spd_lu` of SPD ``K`` in the symmetric ``order``; :meth:`solve` works
    in ``K``'s numbering. Owner threads make it."""

    def __init__(self, K, order):
        self.order, self.rank = order, np.argsort(order)
        self.lu = _spd_lu(K[order][:, order], "NATURAL")

    def solve(self, r):
        return self.lu.solve(r[self.order])[self.rank]


class _Bordered:
    """:func:`spd_lu` of the symmetric quasi-definite ``[[A, C^T], [C, -eps I]]``:
    SPD ``A`` in the symmetric ``order``, the ``m`` rows of ``C`` last, every
    pivot on the diagonal in that order. Its trailing ``m x m`` block
    ``T = L_tt U_tt`` is the border's Schur complement ``-eps I - C A^-1 C^T``,
    so :meth:`gram` is ``C A^-1 C^T`` without column solves. ``eps > 0``, at
    the scale of that Gram, keeps ``T`` negative definite where ``C`` is
    rank-deficient and costs only rounding at that scale.

    A solve with border right-hand side 0 has border part ``y`` with
    ``C A^-1 u = -T y`` (:meth:`c_solve`); a second one with border
    right-hand side ``-T y`` has border part 0 and gives ``A^-1 u``
    (:meth:`solve`). Both work in ``A``'s numbering, on a vector or a block
    of columns."""

    def __init__(self, A, order, C, eps):
        m, n = C.shape
        C = C[:, order]
        K = sp.bmat([[A[order][:, order], C.T], [C, -eps * sp.identity(m)]], format="csc")
        self.lu = spd_lu(K, permc_spec="NATURAL")
        natural = np.arange(n + m)
        if not (np.array_equal(self.lu.perm_r, natural)
                and np.array_equal(self.lu.perm_c, natural)):
            raise RuntimeError("bordered factor left its natural order")
        self.order, self.rank, self.eps = order, np.argsort(order), eps
        self.T = self.lu.L[:, n:][n:].toarray() @ self.lu.U[:, n:][n:].toarray()

    def gram(self):
        G = -0.5 * (self.T + self.T.T)
        G[np.diag_indices_from(G)] -= self.eps
        return G

    def _solve(self, u, border):
        n = len(self.order)
        out = self.lu.solve(np.concatenate([u[self.order], border]))
        return out[:n][self.rank], out[n:]

    def c_solve(self, u):
        """``C A^-1 u``, by one solve."""
        return -(self.T @ self._solve(u, np.zeros((len(self.T),) + u.shape[1:]))[1])

    def solve(self, u):
        """``A^-1 u``, by two solves."""
        return self._solve(u, self.c_solve(u))[0]


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
    residuals: np.ndarray = None            # final (4,) values
    residual_history: np.ndarray = None     # (iterations, 4)
    objective_history: np.ndarray = None
    kkt_residual: float = np.nan
    timings: dict = field(default_factory=dict)
    saddle_builds: int = 0
    factorizations: int = 0                 # sparse, made by the saddle builds
    warning: str = ""


@dataclass
class SolveResult:
    state: BundleState
    report: ConvergenceReport
    ops: OperatorSet
    fd: FiberDiscretization
    boundary: object
    kappa_bar: np.ndarray


def init_state(ops, fd, kappa_bar):
    """Feasible start: reference section samples, ``kappa_bar`` as density, zero duals."""
    n_c = 3 * len(ops.mesh.triangles)
    n_ie = len(ops.mesh.interior_edges)
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


def _metric_sq(h, v, radius, per_corner=False):
    """Squared bundle metric ``|h|^2 + v^2 / r^2``; axis 1 of ``h`` holds the 2-vector.

    With ``per_corner`` it is summed over each corner's fiber (the last axis).
    """
    if per_corner:
        h_sub, v_sub = "cdm,cdm->c", "cm,cm->c"
    else:
        h_sub, v_sub = "cd...,cd...->c...", "c...,c...->c..."
    out = np.einsum(h_sub, h, h)
    out += np.einsum(v_sub, v, v) / radius ** 2
    return out


def _by_face(x):
    """View corner-indexed samples ``(3 n_f, ...)`` as ``(n_f, 3, ...)``."""
    return x.reshape(-1, 3, *x.shape[1:])


def _corners(faces):
    """Corner rows ``3*face + j`` of a slice of faces."""
    return slice(3 * faces.start, 3 * faces.stop)


def _measure_sq(measure, h, v, radius):
    """``sum(measure * |sample|^2)`` over corners, the squared sample norm."""
    return np.sum(measure * _metric_sq(h, v, radius, per_corner=True))


def _sample_mass(measure, density):
    """``sum(measure * density)`` over corners and fiber samples."""
    return np.sum(measure * density.sum(axis=1))


def sample_density(state, radius):
    """Bundle-metric norm ``sqrt(|sigma_h|^2 + sigma_v^2 / r^2)`` of each sample."""
    return np.sqrt(_metric_sq(state.sigma_h, state.sigma_v, radius))


def local_step_sigma(hat_h, hat_v, mu, radius):
    """Pointwise prox of the bundle-metric norm with vertical nonnegativity.

    Clamps the vertical part to be nonnegative, then shortens the sample by
    ``1/mu`` in the metric ``|h|^2 + v^2 / r^2``, zeroing it inside the
    deadzone. Axis 1 of ``hat_h`` holds the 2-vector.
    """
    return _local_step_sigma(hat_h, hat_v, mu, radius)


def _local_step_sigma(hat_h, hat_v, mu, radius, out=None, density=None):
    """:func:`local_step_sigma` into the optional pair of buffers ``out``;
    ``density``, if given, receives the result's metric norm
    ``max(|hat| - 1/mu, 0)`` per sample."""
    out_h, out_v = (None, None) if out is None else out
    v = np.maximum(hat_v, 0.0, out=out_v)
    norm = _metric_sq(hat_h, v, radius)
    np.sqrt(norm, out=norm)
    shrunk = np.subtract(norm, 1.0 / mu, out=density)
    np.maximum(shrunk, 0.0, out=shrunk)
    # shrunk / |hat| where the sample survives, 0 in the deadzone (shrunk = 0)
    scale = np.divide(shrunk, np.maximum(norm, 1.0 / mu, out=norm), out=norm)
    return np.multiply(np.expand_dims(scale, 1), hat_h, out=out_h), np.multiply(scale, v, out=v)


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
    factored once, all in one fill-reducing ordering of the interior
    vertices (every ``L_k`` has the vertex pattern): ``L_1``'s interior
    block under MMD, whose ordering is read off that held factor, then the
    other blocks, gathered in that ordering out of each ``L_k``'s data. The
    frequency-zero saddle system couples the conforming and edge-midpoint
    blocks only through boundary rows; it is solved by a dense Schur
    complement over the boundary multiplier, with the conforming block
    gauge-fixed at one vertex per connected part, a boundary vertex where
    the part has one (its zero frequency is determined only up to a
    constant on each part).

    The edge-midpoint block ``K2 = mu*ell*Lc + nu*Lc M^-1 Lc`` (``Lc`` the
    edge-midpoint Laplacian, ``M`` its diagonal mass) is used in the exact
    product form ``K2 = Lc M^-1 A`` with ``A = mu*ell*M + nu*Lc``, so
    ``K2^-1 = A^-1 M Lc^-1``. The boundary rows are ``C1 = B G_fem`` and
    ``C2 = B J G_cr`` (``B`` the circulation matrix, ``J`` the per-face
    quarter turn). ``mu*ell`` times the Schur complement depends only on
    ``t = mu*ell/nu``: by the resolvent identity it is ``S0 - nu C2 A^-1 C2^T``
    with ``A = nu (Lc + t M)``, refactored every build, and the penalty-free
    ``S0 = C1 L0^-1 C1^T + C2 Lc^-1 C2^T``, formed at the first build.
    With ``W`` the per-face area (both components), ``L0 = G_fem^T W G_fem``
    and ``Lc = G_cr^T W G_cr``, so the two terms are ``B P W^-1 B^T`` for the
    W-orthogonal projections ``P`` onto the conforming gradients and the
    turned edge-midpoint gradients. Those two spaces and the W-harmonic
    fields (loops - 1 + 2 genus of them per connected part) split the face fields, so
    ``S0 = B W^-1 B^T`` minus the harmonic term of :meth:`_hodge_s0`, which
    solves nothing on a disk. A gradient circulates to zero around a closed
    loop, so the difference ``S0 - nu C2 A^-1 C2^T`` cancels along the unit
    loop indicators ``Q`` in proportion to ``t``; there the product form
    ``mu*ell C2 A^-1 M Lc^-1 C2^T Q`` replaces it, solving one column per
    loop. ``A``'s Gram ``C2 A^-1 C2^T`` is read off the trailing block of the
    :class:`_Bordered` factor of ``[[A, C2^T], [C2, -eps I]]``, which also
    serves every ``A`` solve; ``eps`` (:meth:`_border_eps`) bounds that
    Gram's diagonal, so it keeps the trailing block negative definite where
    ``C2`` is rank-deficient (as on a fan disk or a rectangle) and
    adds only rounding at the scale of ``S0``. The sparse factors are ``L_k``
    (k >= 1) and ``L0_ff`` (its own MMD order) from setup, ``Lc`` from the
    first build, and the bordered ``A``, made at every build; ``L0_ff``,
    ``L_k`` for k >= 2 and ``Lc`` are made on the owner threads, ``Lc``
    while the first bordered factor is made, and read through :meth:`_lu`
    and :attr:`_lu_lc`. The one interior ordering ranks the vertices, the
    boundary last, and orders the interior edges by (lower, higher) endpoint
    rank for ``Lc`` and ``A``. Only ``S0``, ``Q``, the sparse factors, the
    bordered factor's trailing block and the Schur LU of the last build are
    stored.
    ``builds``, ``factorizations`` and ``build_seconds`` count the builds and
    their sparse factors and time them.
    """

    @_with_one_blas_thread
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
        # one gauge vertex per connected part: its lowest boundary vertex, if any
        n_parts, part = connected_components(ops.fem.pattern, directed=False)
        by_part = np.lexsort((~is_b, part))
        self.pins = by_part[np.searchsorted(part[by_part], np.arange(n_parts))]
        self.free0 = np.delete(np.arange(n_v), self.pins)

        # factors made on owner i live only in self._boxes[i], keyed by frequency
        # (0: L0_ff) or "lc" (Lc, on owner 0), and are released there when the
        # systems are collected
        self._owners = owners = _OWNERS
        self._boxes = [{} for _ in owners]
        weakref.finalize(self, _release, owners, self._boxes)
        self._L0 = L0 = ops.laplacian(0).real.tocsc()
        jobs = [owners[0].submit(_make_into, self._boxes[0], 0, _factor_frequency, 0,
                                 L0[self.free0][:, self.free0], "MMD_AT_PLUS_A")]

        # every L_k has the vertex pattern: L_1's MMD factor, held, orders the others
        natural = self.interior
        L_1 = ops.laplacian(1)[natural]
        self._lu_1 = _factor_frequency(1, L_1[:, natural], "MMD_AT_PLUS_A")
        self.interior = natural[np.argsort(self._lu_1.perm_c)]
        rank = np.argsort(np.concatenate([self.interior, self.b_vertices]))
        ends = np.sort(rank[mesh.edges[mesh.interior_edges]], axis=1)
        self._edge_order = np.lexsort(ends.T[::-1])         # by lower, then higher rank

        # L_k blocks are gathered from its data at 1-based positions `pos`,
        # sorted once so that no factorization sorts the shared indices, and
        # each is factored on owner k mod n as soon as it is gathered;
        # _freq[k] is (L_ib, the interior vertices in the factor's numbering)
        P = ops.fem.pattern
        pos = sp.csc_matrix((np.arange(1, P.nnz + 1), P.indices, P.indptr),
                            shape=P.shape)[self.interior].sorted_indices()
        gather = [(B.data - 1, B.indices, B.indptr, B.shape)
                  for B in (pos[:, self.interior], pos[:, self.b_vertices])]
        self._freq = {1: (L_1[:, self.b_vertices], natural)}
        for k in range(2, fd.k_max + 1):
            data = ops.laplacian(k).data
            L_ii, L_ib = (sp.csc_matrix((data[d], i, p), shape=n) for d, i, p, n in gather)
            self._freq[k] = (L_ib, self.interior)
            i = k % len(owners)
            jobs.append(owners[i].submit(_make_into, self._boxes[i], k,
                                         _factor_frequency, k, L_ii, "NATURAL"))

        B = ops.boundary
        J = sp.kron(sp.identity(len(mesh.triangles)), [[0.0, -1.0], [1.0, 0.0]])
        self._JG = (J @ ops.cr.gradient).tocsc()        # (2 n_f, n_ie)
        self._C1 = (B @ ops.fem.gradient).tocsc()       # (n_be, n_v)
        self._C2 = (B @ self._JG).tocsc()               # (n_be, n_ie)
        self._C1f = self._C1[:, self.free0]
        # bounds on the diagonal of C2 A^-1 C2^T, times nu and times mu*ell
        w, C2 = np.repeat(ops.fem.face_area, 2), self._C2
        self._gram_scale = (np.max(B.multiply(B) @ (1.0 / w)),
                            np.max(C2.multiply(C2) @ (1.0 / ops.cr.mass)))
        wait(jobs)
        for job in jobs:
            job.result()

        # unit loop indicators, in boundary_halfedges row order
        self._Q = sla.block_diag(*[np.full((len(loop), 1), len(loop) ** -0.5)
                                   for loop in mesh.boundary_loops])
        self._S0 = self._lu_a = self._schur = None      # _schur: LU of mu*ell*S
        self._mu = self._nu = None
        self.builds = self.factorizations = 0
        self.build_seconds = 0.0

    def refactor(self, mu, nu):
        """(Re)build the frequency-zero saddle pieces for the given penalties."""
        if mu == self._mu and nu == self._nu:
            return
        t0 = time.perf_counter()
        mu_ell = mu * self.fd.length
        cr, C2, Q = self.ops.cr, self._C2, self._Q
        first = self._S0 is None
        if first:                   # Lc on owner 0, while A's bordered factor is made here
            lc = self._owners[0].submit(_make_into, self._boxes[0], "lc",
                                        _Factor, cr.laplacian, self._edge_order)
            self.factorizations += 1
        self._lu_a = self._schur = None     # released before their successors are made
        self._lu_a = _Bordered(cr.shifted_laplacian(mu_ell, nu), self._edge_order, C2,
                               self._border_eps(mu_ell, nu))
        self.factorizations += 1
        if first:
            lc.result()
            self._S0 = self._hodge_s0()
        S = self._S0 - nu * self._lu_a.gram()
        # the difference cancels along the loops; there SQ, in product form, replaces it
        SQ = mu_ell * self._lu_a.c_solve(self._mass_lc(C2.T @ Q))
        S -= Q @ (Q.T @ S)
        S -= (S @ Q) @ Q.T
        S += SQ @ Q.T + Q @ (SQ.T - (Q.T @ SQ) @ Q.T)
        lu, piv = sla.lu_factor(S, overwrite_a=True)
        diag = np.abs(np.diag(lu))
        if diag.min() <= 1e-14 * max(diag.max(), 1e-300):
            raise RuntimeError("singular boundary coupling: incompatible boundary data")
        self._schur = lu, piv
        self._mu, self._nu = mu, nu
        self.builds += 1
        self.build_seconds += time.perf_counter() - t0

    def _border_eps(self, mu_ell, nu):
        """``eps`` of A's bordered factor: the smaller of the two bounds on the
        diagonal of ``C2 A^-1 C2^T``, from ``A >= nu Lc`` (``nu C2 A^-1 C2^T <= S0
        <= B W^-1 B^T``) and from ``A >= mu*ell M``."""
        by_nu, by_mu = self._gram_scale
        return min(by_nu / nu, by_mu / mu_ell)

    def _hodge_s0(self):
        """``S0 = B W^-1 B^T - (B Y)(Y^T W Y)^-1 (B Y)^T``, ``Y`` a basis of the
        W-harmonic face fields: the harmonic parts of fixed pseudo-random seeds,
        one per dimension, left after their W-orthogonal projections onto the
        conforming gradients (``L0_ff``) and the turned edge-midpoint gradients
        (``Lc``) are subtracted. With ``R`` from the QR of ``W^1/2 Y`` the
        subtracted term is ``V V^T``, ``V = B Y R^-1``."""
        ops, mesh = self.ops, self.ops.mesh
        B, w = ops.boundary, np.repeat(ops.fem.face_area, 2)
        S0 = (B @ sp.diags(1.0 / w) @ B.T).toarray()
        # loops - 1 + 2 genus, summed over the connected parts (one pin each): 0 on a disk
        h = 2 * len(mesh.triangles) - (len(mesh.vertices) - len(self.pins)
                                       + len(mesh.interior_edges))
        if h == 0:
            return S0
        G, JG = ops.fem.gradient[:, self.free0], self._JG
        Y = np.random.default_rng(0).standard_normal((len(w), h))
        WY = w[:, None] * Y
        Y -= G @ self._lu(0).solve(G.T @ WY) + JG @ self._lu_lc.solve(JG.T @ WY)
        root = np.sqrt(w)[:, None]
        V = B @ (np.linalg.qr(root * Y)[0] / root)
        return S0 - V @ V.T

    def _lu(self, k):
        """The factor of frequency ``k``'s interior block; ``k = 0``: ``L0_ff``."""
        return self._lu_1 if k == 1 else self._boxes[k % len(self._boxes)][k]

    @property
    def _lu_lc(self):
        """``Lc``'s :class:`_Factor`, made and held on owner 0 from the first build."""
        return self._boxes[0]["lc"]

    def _mass_lc(self, r):
        """``M Lc^-1 r``, so that ``K2^-1 r = A^-1 M Lc^-1 r``, for a vector or a
        block of columns ``r``."""
        return (self.ops.cr.mass * self._lu_lc.solve(r).T).T

    def solve_frequency(self, k, rhs):
        """Solve the frequency-``k`` system with pinned boundary values."""
        L_ib, rows = self._freq[k]
        fb = self.bd.coefficient(k)
        out = np.zeros(rhs.shape[0], dtype=complex)
        out[self.b_vertices] = fb
        out[rows] = self._lu(k).solve(rhs[rows] - L_ib @ fb)
        return out

    def solve_zero(self, rhs1, rhs2, g0):
        """Solve the saddle system; returns (f0, phi, beta).

        ``rhs1``/``rhs2`` carry their penalty factors already; the first
        block is ``mu*ell*L0``, the second the combined edge-midpoint
        operator, coupled by the boundary circulation rows equal to ``g0``.
        """
        mu_ell = self._mu * self.fd.length
        C1f, C2, lu0 = self._C1f, self._C2, self._lu(0)

        def solve1(r):                                  # (mu*ell*L0_ff)^{-1} r
            return lu0.solve(r) / mu_ell

        r1 = rhs1[self.free0]
        beta = mu_ell * sla.lu_solve(self._schur, C1f @ solve1(r1)
                                     + self._lu_a.c_solve(self._mass_lc(rhs2)) - g0)
        f0 = np.zeros(len(self.ops.mesh.vertices))
        f0[self.free0] = solve1(r1 - C1f.T @ beta)
        phi = self._lu_a.solve(self._mass_lc(rhs2 - C2.T @ beta))
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
        self._phase_times = {"global": 0.0, "sweep": 0.0}

        w = self.ops.fem.corner_weight.ravel()
        self._corner_measure = w * (self.fd.length / self.fd.n)   # of each sample at a corner
        n_f, n, K = len(mesh.triangles), self.fd.n, self.fd.k_max
        step = max(1, _CHUNK_SAMPLES // (3 * n))
        self._chunks = [slice(f, min(f + step, n_f)) for f in range(0, n_f, step)]
        # what the chunk kernels read besides the state, so that they touch
        # no property or public method
        self._k_max = K
        self._face_third = self.ops.fem.face_area / 3.0
        self._ik = 1j * np.arange(K + 1)
        # -ik / r^2, and the 1/4 that turns a face third into the mass weight area/12
        self._vertical_factor = -1j * np.arange(K + 1) / (4 * config.radius ** 2)
        # the pre-solve sweep's output: conjugate-transported corner terms of
        # every frequency, and each face's zero-frequency horizontal coefficient
        self._rhs_corner = np.empty((n_f, 3, K + 1), dtype=complex)
        self._face_h0 = np.empty((n_f, 2))
        # spare sigma buffers of the in-place sweep, swapped with the state's
        self._spare_sigma = (np.empty((3 * n_f, 2, n)), np.empty((3 * n_f, n)))
        # boundary circulation of the reconstructed horizontal part equals
        # minus the winding of the boundary data (the interior-edge block
        # rotates gradients by +90 degrees, so positively wound data drives
        # positive singularity density)
        self._g0 = -self.bd.edge_winding

    # -- the face-chunk sweeps ---------------------------------------------

    def _map(self, kernel, *args):
        """``kernel(faces, *args)`` for every face chunk; the results in chunk order."""
        if len(self._chunks) == 1:
            return [kernel(self._chunks[0], *args)]
        jobs = [_POOL.submit(kernel, faces, *args) for faces in self._chunks]
        wait(jobs)          # no chunk is still running when one has failed
        return [job.result() for job in jobs]

    def _rhs_chunk(self, faces, state):
        """Pre-solve sweep of one chunk: the conjugate-transported per-corner
        right-hand-side terms of every frequency into ``_rhs_corner``, and the
        zero-frequency horizontal coefficients into ``_face_h0``. Only the
        per-face sum of the horizontal samples enters them."""
        fem, corners, K = self.ops.fem, _corners(faces), self._k_max
        alpha_h = _by_face(state.sigma_h[corners]).sum(axis=1)
        alpha_h += _by_face(state.w_h[corners]).sum(axis=1)
        face_h = _forward(alpha_h, K)                            # (n, 2, K+1)
        face_h *= self._face_third[faces, None, None]
        self._face_h0[faces] = face_h[:, :, 0].real
        Cv = _by_face(_forward(state.sigma_v[corners] + state.w_v[corners], K))
        Cv[:, :, 0] -= TAU_BAR_VERTICAL
        # hat-gradient contraction, then the corner mass area/12 (I + 1 1^T)
        grad, out = fem.hat_gradient[faces], self._rhs_corner[faces]     # out: (n, 3, K+1)
        np.multiply(grad[:, 0, :, None], face_h[:, None, 0], out=out)
        out += grad[:, 1, :, None] * face_h[:, None, 1]
        Cv += Cv.sum(axis=1, keepdims=True)
        Cv *= self._face_third[faces, None, None] * self._vertical_factor
        out += Cv
        out *= np.conj(self.ops.transport_pow[faces])

    def _coefficients(self, state):
        """What reconstruction reads: the vertex coefficients with frequency
        last, and the quarter-turned edge-midpoint gradient of ``phi`` per face."""
        turned = quarter_turn(self.ops.cr_face_gradient(state.phi))
        return np.ascontiguousarray(state.f.T), turned

    def _reconstruct(self, coeffs, faces):
        """:meth:`reconstruct` on the faces in the slice ``faces``."""
        f_t, turned = coeffs
        ops, n = self.ops, self.fd.n
        fc = ops.transport_pow[faces] * f_t[self.mesh.triangles[faces]]    # (n, 3, K+1)
        grad = ops.fem.hat_gradient[faces]
        CH = grad[:, :, 0, None] * fc[:, None, 0]                          # (n, 2, K+1)
        CH += grad[:, :, 1, None] * fc[:, None, 1]
        CH += grad[:, :, 2, None] * fc[:, None, 2]
        CV = fc * self._ik
        CH[:, :, 0] += turned[faces]
        CV[:, :, 0] += TAU_BAR_VERTICAL
        return _inverse(CH, n), _inverse(CV, n).reshape(-1, n)

    def _sweep_chunk(self, faces, state, coeffs, new):
        """Post-solve sweep of one chunk; returns its shares of the squared
        primal and dual sample residuals and of the sample mass.

        ``hat = R - w`` is written over the duals, the local step writes the
        new ``sigma`` into ``new`` and ``w = sigma - hat`` goes over ``hat``.
        The old ``sigma`` takes ``sigma - sigma_prev``, then ``sigma - R``.
        """
        corners = _corners(faces)
        radius, measure = self.config.radius, self._corner_measure[corners]
        Rh, Rv = self._reconstruct(coeffs, faces)
        hat_h, hat_v = state.w_h[corners], state.w_v[corners]
        np.subtract(Rh[:, None], _by_face(hat_h), out=_by_face(hat_h))
        np.subtract(Rv, hat_v, out=hat_v)
        new_h, new_v = new[0][corners], new[1][corners]
        density = np.empty(hat_v.shape)
        _local_step_sigma(hat_h, hat_v, state.mu, radius, out=(new_h, new_v), density=density)
        np.subtract(new_h, hat_h, out=hat_h)
        np.subtract(new_v, hat_v, out=hat_v)
        prev_h, prev_v = state.sigma_h[corners], state.sigma_v[corners]
        np.subtract(new_h, prev_h, out=prev_h)
        np.subtract(new_v, prev_v, out=prev_v)
        dual = _measure_sq(measure, prev_h, prev_v, radius)
        np.subtract(_by_face(new_h), Rh[:, None], out=_by_face(prev_h))
        np.subtract(new_v, Rv, out=Rv)
        return _measure_sq(measure, prev_h, Rv, radius), dual, _sample_mass(measure, density)

    # -- pieces of one iteration ----------------------------------------

    def global_step(self, state):
        ops, K = self.ops, self._k_max
        self._map(self._rhs_chunk, state)
        rhs = ops.corner_incidence @ self._rhs_corner.reshape(-1, K + 1)    # (n_v, K+1)
        for k in range(1, K + 1):
            state.f[k] = self.systems.solve_frequency(k, rhs[:, k])

        # frequency zero: conforming + edge-midpoint blocks meet at the boundary
        mu_ell = state.mu * self.fd.length
        self.systems.refactor(state.mu, state.nu)
        face_h0 = self._face_h0
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
        """Samples of the reference-plus-potential covector (no dual shift).

        Returns the horizontal part once per face, ``(n_f, 2, N)``: it is the
        same at the face's three corners. The vertical part is per corner,
        ``(n_c, N)``.
        """
        return self._reconstruct(self._coefficients(state),
                                 slice(0, len(self.mesh.triangles)))

    def gamma_target(self, state):
        cr = self.ops.cr
        return (cr.laplacian @ state.phi) / cr.mass + self.kappa_bar

    def sigma_norm(self, h, v):
        """Mass-weighted bundle-metric norm over corner samples."""
        return np.sqrt(_measure_sq(self._corner_measure, h, v, self.config.radius))

    def gamma_norm(self, g):
        return np.sqrt(np.sum(self.ops.cr.mass * g * g))

    def objective(self, state):
        """Mass of the section current plus the weighted singularity mass."""
        density = sample_density(state, self.config.radius)
        return self._objective(_sample_mass(self._corner_measure, density), state.gamma)

    def _objective(self, mass_sigma, gamma):
        mass_gamma = np.sum(self.ops.cr.mass * self.lam * np.abs(gamma))
        return mass_sigma + float(mass_gamma)

    def iterate(self, state):
        """One in-place ADMM iteration; returns the four residuals and the objective.

        The sample work runs in the two face-chunk sweeps (:meth:`_rhs_chunk`
        inside :meth:`global_step`, then :meth:`_sweep_chunk`); their partial
        sums are added in chunk order. The old ``sigma`` buffers end up
        holding ``sigma - R`` and become the spares.
        """
        t0 = time.perf_counter()
        self.global_step(state)
        t1 = time.perf_counter()
        new = self._spare_sigma
        parts = self._map(self._sweep_chunk, state, self._coefficients(state), new)
        r_p_sq, r_d_sq, mass_sigma = np.sum(parts, axis=0)
        r_p_mu, r_d_mu = np.sqrt(r_p_sq), np.sqrt(r_d_sq)
        self._spare_sigma = (state.sigma_h, state.sigma_v)
        state.sigma_h, state.sigma_v = new

        gt = self.gamma_target(state)
        prev_g = state.gamma
        state.gamma = local_step_gamma(gt - state.z, state.nu, self.lam, self.mask_cols)
        state.z = state.z + state.gamma - gt
        r_p_nu = self.gamma_norm(state.gamma - gt)
        r_d_nu = self.gamma_norm(state.gamma - prev_g)
        pt = self._phase_times
        pt["global"] += t1 - t0
        pt["sweep"] += time.perf_counter() - t1

        state.mu, s = adapt_penalty(state.mu, r_p_mu, r_d_mu)
        if s != 1.0:
            state.w_h *= s
            state.w_v *= s
        state.nu, s = adapt_penalty(state.nu, r_p_nu, r_d_nu)
        if s != 1.0:
            state.z = state.z * s

        state.iteration += 1
        return np.array([r_p_mu, r_d_mu, r_p_nu, r_d_nu]), self._objective(mass_sigma, state.gamma)

    @_with_one_blas_thread
    def run(self):
        cfg = self.config
        state = init_state(self.ops, self.fd, self.kappa_bar)
        report = ConvergenceReport()
        history = []
        objective = []
        self._phase_times = dict.fromkeys(self._phase_times, 0.0)
        sys0 = self.systems.builds, self.systems.factorizations, self.systems.build_seconds
        t_start = time.perf_counter()
        converged = False
        for _ in range(cfg.max_iters):
            res, obj = self.iterate(state)
            if not np.all(np.isfinite(res)):
                raise RuntimeError("non-finite residual at iteration %d" % state.iteration)
            history.append(res)
            objective.append(obj)
            if cfg.eps > 0 and np.all(res < cfg.eps):
                converged = True
                break
        timings = dict(self._phase_times)
        timings["total"] = time.perf_counter() - t_start
        timings["refactor"] = self.systems.build_seconds - sys0[2]
        report.saddle_builds = self.systems.builds - sys0[0]
        report.factorizations = self.systems.factorizations - sys0[1]
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
    for extraction. A non-finite residual stops the solve with a
    ``RuntimeError`` naming the iteration.
    """
    return AdmmSolver(mesh, config, boundary_spec, atlas=atlas).run()
