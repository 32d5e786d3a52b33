"""Field extraction, singularity clustering, and concentration diagnostics."""

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import splu

from .solver import sample_density


@dataclass
class ExtractedField:
    """Per-vertex directional field in the degree-d representation.

    ``angle`` is the degree-d angle in the stored vertex frame; divide by
    the degree for a representative field direction. ``confidence`` is the
    magnitude of the first vertical Fourier coefficient before
    normalization; vertices where it vanishes are flagged undefined.
    """

    z: np.ndarray              # (n_v,) unit complex (0 where undefined)
    angle: np.ndarray          # (n_v,)
    confidence: np.ndarray     # (n_v,)
    defined: np.ndarray        # (n_v,) bool
    degree: int


def extract_field(state, ops):
    """Read the field off the first negative vertical frequency.

    A perfectly concentrated section makes the fiber profile of the
    potential a sawtooth, whose -1 coefficient is ``i (1 - 1/K)
    e^{i sigma} / (2 pi)``; normalizing recovers ``e^{i sigma}``.
    """
    f_m1 = np.conj(state.f[1])
    conf = np.abs(f_m1)
    defined = conf > 1e-12
    z = np.zeros_like(f_m1)
    z[defined] = -1j * f_m1[defined] / conf[defined]
    return ExtractedField(z=z, angle=np.angle(z), confidence=conf,
                          defined=defined, degree=ops.degree)


@dataclass
class Singularity:
    position: np.ndarray       # (3,)
    index: float               # field units: integrated density / degree
    index_rounded: float       # nearest multiple of 1/degree
    residual: float            # index - index_rounded
    mass: float                # integrated density (degree-d winding quanta)
    edges: np.ndarray = field(repr=False, default=None)


@dataclass
class SingularitySet:
    clusters: list
    residual_mass: float       # density mass outside all clusters
    total_mass: float

    def index_sum(self):
        return float(sum(c.index for c in self.clusters))


def extract_singularities(gamma, ops, degree, threshold_rel=1e-3, grow_rings=1):
    """Cluster the singularity density into isolated defects.

    Interior edges carrying at least ``threshold_rel`` of the peak density
    are seeds; the set is grown by ``grow_rings`` rings of vertex-adjacent
    edges to absorb smeared mass, then split into connected components.
    Cluster indices are the integrated density divided by the degree, so a
    quantized defect lands on a multiple of ``1/degree``.
    """
    mesh = ops.mesh
    gamma = np.asarray(gamma)
    mass = ops.cr.mass * gamma
    total = float(mass.sum())
    peak = np.abs(gamma).max() if len(gamma) else 0.0
    if peak <= 0:
        return SingularitySet(clusters=[], residual_mass=total, total_mass=total)

    interior = mesh.interior_edges
    active = np.abs(gamma) > threshold_rel * peak
    verts_of = mesh.edges[interior]
    for _ in range(grow_rings):
        hot = np.zeros(len(mesh.vertices), dtype=bool)
        hot[verts_of[active].ravel()] = True
        active = active | hot[verts_of].any(axis=1)

    # union-find over active edges sharing a vertex
    parent = np.arange(len(interior))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_vertex = {}
    for col in np.nonzero(active)[0]:
        for v in verts_of[col]:
            other = by_vertex.setdefault(int(v), col)
            if other != col:
                parent[find(col)] = find(other)

    groups = {}
    for col in np.nonzero(active)[0]:
        groups.setdefault(find(col), []).append(col)

    midpoints = 0.5 * (mesh.vertices[verts_of[:, 0]] + mesh.vertices[verts_of[:, 1]])
    clusters = []
    clustered = 0.0
    quantum = 1.0 / degree
    for cols in groups.values():
        cols = np.array(cols)
        m = mass[cols]
        cmass = float(m.sum())
        clustered += cmass
        weight = np.abs(m)
        wsum = weight.sum()
        pos = midpoints[cols].mean(axis=0) if wsum == 0 else \
            (weight[:, None] * midpoints[cols]).sum(axis=0) / wsum
        index = cmass / degree
        rounded = np.round(index / quantum) * quantum
        clusters.append(Singularity(position=pos, index=index,
                                    index_rounded=float(rounded),
                                    residual=index - float(rounded),
                                    mass=cmass, edges=interior[cols]))
    clusters.sort(key=lambda c: -abs(c.mass))
    return SingularitySet(clusters=clusters, residual_mass=total - clustered,
                          total_mass=total)


def _corner_targets(extracted, ops):
    """Extracted angle at each corner, moved into the face fiber coordinate."""
    tri = ops.mesh.triangles
    return extracted.angle[tri] + np.angle(ops.transport_d)


def _fiber_mass(state, extracted, ops, fd):
    """``(mass, dist, vertex, total)``: area-weighted sample densities, their
    arc distance to the corner's field angle, each corner's vertex and the
    total mass per vertex."""
    mass = sample_density(state, ops.radius) * ops.fem.corner_weight.ravel()[:, None]
    target = _corner_targets(extracted, ops).ravel()
    dist = np.abs(np.mod(fd.theta[None, :] - target[:, None] + np.pi, 2 * np.pi) - np.pi)
    idx = ops.mesh.triangles.ravel()
    total = np.bincount(idx, weights=mass.sum(axis=1), minlength=len(ops.mesh.vertices))
    return mass, dist, idx, total


def concentration_cdf(state, extracted, ops, fd, thetas=None):
    """Area-averaged fraction of fiber mass within an angle of the field.

    Returns the cumulative fractions on the requested offsets (default
    ``pi*m/32``); monotone nondecreasing with value 1 at ``pi``.
    """
    if thetas is None:
        thetas = np.pi * np.arange(33) / 32
    thetas = np.asarray(thetas)
    dens, dist, idx, total = _fiber_mass(state, extracted, ops, fd)
    n_v = len(total)
    if not np.any(total > 0):
        raise ValueError("current carries no mass")
    ok = total > 0
    weight = np.where(ok, ops.mesh.vertex_area, 0.0)
    out = np.empty(len(thetas))
    for i, th in enumerate(thetas):
        within = np.bincount(idx, weights=(dens * (dist <= th)).sum(axis=1),
                             minlength=n_v)
        frac = np.divide(within, total, out=np.zeros(n_v), where=ok)
        out[i] = np.sum(weight * frac) / weight.sum()
    return out


def fiber_w2(state, extracted, ops, fd):
    """Per-vertex transport distance from the fiber mass to the field angle.

    The target is a point mass, so the distance is the square root of the
    arc-distance second moment; vertices without fiber mass return NaN.
    """
    dens, dist, idx, total = _fiber_mass(state, extracted, ops, fd)
    n_v = len(total)
    second = np.bincount(idx, weights=(dens * dist ** 2).sum(axis=1), minlength=n_v)
    out = np.full(n_v, np.nan)
    ok = total > 0
    out[ok] = np.sqrt(second[ok] / total[ok])
    return out


def face_angle_gradient(extracted, ops):
    """Covariant per-face derivative magnitude of the degree-d angle.

    Corner angles are moved into the face frame and unwrapped to the
    representative nearest the first corner before differencing, so only
    genuine variation registers, not branch jumps.
    """
    corner = _corner_targets(extracted, ops)
    ref = corner[:, :1]
    rel = np.mod(corner - ref + np.pi, 2 * np.pi) - np.pi
    grad = np.einsum("fdj,fj->fd", ops.fem.hat_gradient, rel)
    mag = np.sqrt(np.einsum("fd,fd->f", grad, grad))
    bad = ~extracted.defined[ops.mesh.triangles].all(axis=1)
    mag[bad] = np.nan
    return mag


def helicoid_area(radius, ratio):
    """Closed-form area of one helical turn of height ``2*pi*radius`` over a
    disk of radius ``ratio * radius``."""
    k = ratio
    return np.pi * radius ** 2 * (k * np.sqrt(1 + k * k) + np.arcsinh(k))


def graph_area(extracted, ops, radius, exclude_centers=(), exclude_radius=0.0,
               add_helicoid=False):
    """Area of the section graph over the non-excluded faces.

    Integrates ``sqrt(1 + r^2 |D sigma|^2)`` with the covariant per-face
    derivative; faces whose centroid lies within ``exclude_radius`` of any
    listed center are skipped, optionally replaced by the closed-form
    helicoid area of one excision disk each.
    """
    mesh = ops.mesh
    mag = face_angle_gradient(extracted, ops)
    keep = np.ones(len(mesh.triangles), dtype=bool)
    centers = np.atleast_2d(np.asarray(exclude_centers, dtype=float)) \
        if len(np.atleast_1d(exclude_centers)) else np.zeros((0, 3))
    if centers.size:
        centroid = mesh.vertices[mesh.triangles].mean(axis=1)
        for c in centers:
            keep &= np.linalg.norm(centroid - c, axis=1) > exclude_radius
    if np.any(keep & ~np.isfinite(mag)):
        raise ValueError("field is undefined on %d non-excluded faces"
                         % int(np.sum(keep & ~np.isfinite(mag))))
    area = np.sum(mesh.face_area[keep]
                  * np.sqrt(1.0 + radius ** 2 * mag[keep] ** 2))
    if add_helicoid and centers.size:
        area += len(centers) * helicoid_area(radius, exclude_radius / radius)
    return float(area)


def baseline_smoothest_field(ops, max_iters=500, tol=1e-8):
    """Globally optimal smooth field: lowest mode of the covariant Dirichlet
    pencil, via shifted inverse power iteration on the prefactored system.

    The eigenvector transforms like the vertical Fourier coefficients, so
    its conjugate is the degree-d field representation.
    """
    S = ops.stiffness(1).tocsc()
    M = ops.vertex_mass(0).real.tocsc()
    n = S.shape[0]
    shift = 1e-8 * (np.abs(S.diagonal()).mean() / np.abs(M.diagonal()).mean())
    lu = splu((S + shift * M).tocsc())
    x = np.ones(n, dtype=complex)
    x /= np.sqrt(np.real(np.conj(x) @ (M @ x)))
    lam_old = np.inf
    for _ in range(max_iters):
        y = lu.solve(M @ x)
        y /= np.sqrt(np.real(np.conj(y) @ (M @ y)))
        lam = np.real(np.conj(y) @ (S @ y))
        resid = np.linalg.norm(S @ y - lam * (M @ y)) / np.linalg.norm(y)
        x = y
        if resid <= tol and abs(lam - lam_old) <= tol * max(abs(lam), 1.0):
            break
        lam_old = lam
    else:
        raise RuntimeError("inverse power iteration did not converge in %d steps"
                           % max_iters)
    rep = np.conj(x)
    conf = np.abs(rep)
    defined = conf > 1e-12 * conf.max()
    z = np.zeros_like(rep)
    z[defined] = rep[defined] / conf[defined]
    return ExtractedField(z=z, angle=np.angle(z), confidence=conf / conf.max(),
                          defined=defined, degree=ops.degree)
