"""Fiber sampling, the solver's vertical Fourier transform (numpy's real FFT
with the Nyquist bin dropped), and circle-bundle boundary data."""

from dataclasses import dataclass

import numpy as np

from .mesh import rowdot

#: Vertical density of the reference connection form: constant 1/(2*pi),
#: so that every fiber integrates to one.
TAU_BAR_VERTICAL = 1.0 / (2.0 * np.pi)


def check_fiber(radius, n=None):
    """Reject an increment count ``n`` that is odd or below 8, and a radius
    whose square is not a finite, positive, normal float."""
    if n is not None and (n < 8 or n % 2):
        raise ValueError("N must be even and >= 8, got %d" % n)
    if not np.isfinite(radius):
        raise ValueError("radius must be finite")
    if radius <= 0:
        raise ValueError("fiber radius must be positive")
    with np.errstate(over="ignore", under="ignore"):
        r2 = np.square(np.float64(radius))
    if not np.isfinite(r2) or r2 < np.finfo(np.float64).tiny:
        raise ValueError("fiber radius %g is out of range: radius**2 must be a "
                         "finite normal float" % radius)


@dataclass(frozen=True)
class FiberDiscretization:
    """Uniform sampling of the circle fiber.

    ``n`` increments at angles ``2*pi*m/n`` keep frequencies up to
    ``k_max = n/2 - 1`` (the Nyquist bin is dropped so every retained
    frequency has a conjugate partner).
    """

    n: int
    radius: float = 1.0

    def __post_init__(self):
        check_fiber(self.radius, self.n)

    @property
    def k_max(self):
        return self.n // 2 - 1

    @property
    def theta(self):
        return 2.0 * np.pi * np.arange(self.n) / self.n

    @property
    def length(self):
        return 2.0 * np.pi * self.radius


def fourier_forward(samples, k_max):
    """Coefficients ``c_k = (1/N) sum_m x_m e^{-ik theta_m}`` for ``k = 0..k_max``.

    ``samples`` holds real values on the uniform fiber grid along the last
    axis; their real FFT, cut to ``k_max + 1`` complex coefficients (the
    Nyquist bin is dropped), replaces that axis. Real samples have
    ``c_{-k} = conj(c_k)``: these one-sided coefficients store sections.
    """
    x = np.asarray(samples)
    n = x.shape[-1]
    if n <= 2 * k_max:
        raise ValueError("need more than 2*k_max samples, got %d for k_max=%d"
                         % (n, k_max))
    return _forward(x, k_max)


def _forward(x, k_max):
    """:func:`fourier_forward` of a sample array, unchecked."""
    return np.fft.rfft(x, norm="forward")[..., :k_max + 1]


def fourier_inverse(coeffs, n):
    """Real samples ``Re(c_0 + 2 sum_{k>0} c_k e^{ik theta_m})`` on the ``n``-point grid.

    Inverts :func:`fourier_forward` on real signals band-limited to ``k_max``;
    ``irfft`` zero-pads through the unused Nyquist bin, so ``k < n/2`` only.
    """
    c = np.asarray(coeffs)
    if c.shape[-1] > n // 2:
        raise ValueError("need at most n/2 coefficients, got %d for n=%d" % (c.shape[-1], n))
    return _inverse(c, n)


def _inverse(c, n):
    """:func:`fourier_inverse` of a coefficient array, unchecked."""
    return np.fft.irfft(c, n, norm="forward")


def make_kappa_bar(atlas, degree):
    """Per-interior-edge curvature density ``degree * kappa_e / (2*pi)``.

    Only interior vertices contribute: a boundary vertex's angle defect is
    the turning of the boundary, which the boundary winding data already
    accounts for, so it enters the edge mean as zero. On a flat mesh
    (polygonal boundary included) the result is identically zero.
    """
    mesh = atlas.mesh
    gauss = np.where(mesh.is_boundary_vertex, 0.0, atlas.vertex_curvature)
    edge_mean = 0.5 * (gauss[mesh.edges[:, 0]] + gauss[mesh.edges[:, 1]])
    return degree * edge_mean[mesh.interior_edges] / (2.0 * np.pi)


@dataclass
class BoundaryData:
    """Fixed boundary values for the vertical Fourier coefficients.

    ``coef[k - 1]`` holds the per-boundary-vertex value for frequency
    ``k`` in ``1..k_max``; negative frequencies are conjugates, and the
    zero frequency is left free (it is pinned by the boundary coupling of
    the frequency-zero system, not by a Dirichlet value). The boundary
    angle data is a Dirac on each boundary fiber, approximated by the
    Fejer kernel normalized to unit fiber mass:

        f^(k) = (1 - |k|/K) e^{-ik gamma0} / (2*pi*i*k).

    ``edge_winding`` carries the unwrapped increment of ``gamma0`` along
    each directed boundary edge (surface on the left), measured after
    moving both endpoint angles into the shared face frame, in units of
    full turns.
    """

    vertex_ids: np.ndarray
    gamma0: np.ndarray
    k_max: int
    coef: np.ndarray
    edge_winding: np.ndarray

    def coefficient(self, k):
        """Boundary values for frequency ``k`` (any sign, 0 < |k| <= k_max)."""
        if not 0 < abs(k) <= self.k_max:
            raise ValueError("frequency %d outside 1..%d" % (k, self.k_max))
        row = self.coef[abs(k) - 1]
        return row if k > 0 else np.conj(row)


def boundary_tangent_angles(atlas):
    """Angle of the oriented boundary tangent in each boundary vertex frame,
    aligned with ``np.concatenate(mesh.boundary_loops)``."""
    mesh = atlas.mesh
    v, w = mesh.boundary_halfedges[:, 0], mesh.boundary_halfedges[:, 1]
    fwd = mesh.vertices[w] - mesh.vertices[v]
    arriving = np.zeros(len(mesh.vertices), dtype=np.int64)
    arriving[w] = np.arange(len(w))
    unit = fwd / np.linalg.norm(fwd, axis=1, keepdims=True)
    tangent = unit + unit[arriving[v]]
    n = mesh.vertex_normal[v]
    t = tangent - rowdot(tangent, n)[:, None] * n
    flat = np.sqrt(rowdot(t, t)) < 1e-12
    t[flat] = (fwd - rowdot(fwd, n)[:, None] * n)[flat]
    e1, e2 = atlas.vertex_frame[v, 0], atlas.vertex_frame[v, 1]
    return np.arctan2(rowdot(t, e2), rowdot(t, e1))


def make_boundary_data(atlas, spec, degree, k_max):
    """Assemble :class:`BoundaryData` from a boundary angle source.

    Parameters
    ----------
    atlas : TransportAtlas
    spec : str or dict
        ``"tangent"`` aligns the field with the oriented boundary, or a
        mapping ``vertex index -> field angle`` covering every boundary
        vertex (angles are plain field angles; they are multiplied by the
        degree here).
    degree : int
        Directional field degree (1 vector, 2 line, 4 cross, ...).
    k_max : int
        Largest retained vertical frequency.
    """
    mesh = atlas.mesh
    vertex_ids = np.concatenate(mesh.boundary_loops)
    if isinstance(spec, str):
        if spec != "tangent":
            raise ValueError("unknown boundary spec %r" % spec)
        field_angle = boundary_tangent_angles(atlas)
    else:
        spec = {int(v): float(a) for v, a in dict(spec).items()}
        missing = [v for v in vertex_ids.tolist() if v not in spec]
        if missing:
            raise ValueError("boundary angles missing for vertices %s" % missing[:8])
        field_angle = np.array([spec[v] for v in vertex_ids.tolist()])
    gamma0 = np.mod(degree * field_angle, 2 * np.pi)

    k = np.arange(1, k_max + 1)
    weights = (1.0 - k / k_max) / (2.0 * np.pi * 1j * k)
    coef = weights[:, None] * np.exp(-1j * np.outer(k, gamma0))

    # winding of gamma0 along each boundary halfedge, compared in the
    # shared face frame and wrapped to the nearest representative
    v, w, face, _, corner = mesh.boundary_halfedges.T
    g_at = np.zeros(len(mesh.vertices))
    g_at[vertex_ids] = gamma0
    av = g_at[v] + degree * np.angle(atlas.transport[face, (corner + 1) % 3])
    aw = g_at[w] + degree * np.angle(atlas.transport[face, (corner + 2) % 3])
    delta = np.mod(aw - av + np.pi, 2 * np.pi) - np.pi

    return BoundaryData(vertex_ids=vertex_ids, gamma0=gamma0, k_max=k_max,
                        coef=coef, edge_winding=delta / (2 * np.pi))
