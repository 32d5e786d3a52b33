"""Field extraction, singularity clustering, and concentration diagnostics.

Clustering seeds on interior edges whose density exceeds
``SEED_THRESHOLD`` times the peak and grows the seeds by one ring of
vertex-adjacent edges. The baseline field's inverse power iteration stops
at a relative eigen-residual of ``BASELINE_TOL`` or fails after
``BASELINE_MAX_ITERS`` steps.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .solver import sample_density, spd_lu

SEED_THRESHOLD = 1e-3
BASELINE_MAX_ITERS = 500
BASELINE_TOL = 1e-8


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


def extract_singularities(gamma, ops, degree):
    """Cluster the singularity density into isolated defects.

    Interior edges carrying more than ``SEED_THRESHOLD`` of the peak
    density are seeds; the set is grown by one ring of vertex-adjacent
    edges to absorb smeared mass, then split into the connected components
    of the graph joining each active edge to its two vertices. Cluster
    indices are the integrated density divided by the degree, so a
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
    n_v = len(mesh.vertices)
    seed = np.abs(gamma) > SEED_THRESHOLD * peak
    verts_of = mesh.edges[interior]
    hot = np.zeros(n_v, dtype=bool)
    hot[verts_of[seed].ravel()] = True
    active = np.nonzero(seed | hot[verts_of].any(axis=1))[0]

    # graph nodes: the active edges first, then one node per vertex
    n_act = len(active)
    edge_node = np.repeat(np.arange(n_act), 2)
    vertex_node = n_act + verts_of[active].ravel()
    graph = sp.coo_matrix((np.ones(2 * n_act), (edge_node, vertex_node)),
                          shape=(n_act + n_v,) * 2)
    labels = connected_components(graph, directed=False)[1][:n_act]
    # groups in the order of their smallest column, columns ascending
    _, first = np.unique(labels, return_index=True)
    groups = [active[labels == labels[i]] for i in np.sort(first)]

    midpoints = 0.5 * (mesh.vertices[verts_of[:, 0]] + mesh.vertices[verts_of[:, 1]])
    clusters = []
    clustered = 0.0
    quantum = 1.0 / degree
    for cols in groups:
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


def graph_area(extracted, ops, radius):
    """Area of the section graph: ``sqrt(1 + r^2 |D sigma|^2)`` integrated
    over the faces with the covariant per-face derivative."""
    mag = face_angle_gradient(extracted, ops)
    undefined = int(np.sum(~np.isfinite(mag)))
    if undefined:
        raise ValueError("field is undefined on %d faces" % undefined)
    return float(np.sum(ops.mesh.face_area * np.sqrt(1.0 + radius ** 2 * mag ** 2)))


def baseline_smoothest_field(ops):
    """Globally optimal smooth field: lowest mode of the covariant Dirichlet
    pencil, via shifted inverse power iteration on the prefactored system.

    The eigenvector transforms like the vertical Fourier coefficients, so
    its conjugate is the degree-d field representation.
    """
    S = ops.stiffness(1).tocsc()
    M = ops.vertex_mass(0).real.tocsc()
    n = S.shape[0]
    shift = 1e-8 * (np.abs(S.diagonal()).mean() / np.abs(M.diagonal()).mean())
    lu = spd_lu(S + shift * M)
    x = np.ones(n, dtype=complex)
    x /= np.sqrt(np.real(np.conj(x) @ (M @ x)))
    lam_old = np.inf
    for _ in range(BASELINE_MAX_ITERS):
        y = lu.solve(M @ x)
        y /= np.sqrt(np.real(np.conj(y) @ (M @ y)))
        lam = np.real(np.conj(y) @ (S @ y))
        resid = np.linalg.norm(S @ y - lam * (M @ y)) / np.linalg.norm(y)
        x = y
        if (resid <= BASELINE_TOL
                and abs(lam - lam_old) <= BASELINE_TOL * max(abs(lam), 1.0)):
            break
        lam_old = lam
    else:
        raise RuntimeError("inverse power iteration did not converge in %d steps"
                           % BASELINE_MAX_ITERS)
    rep = np.conj(x)
    conf = np.abs(rep)
    defined = conf > 1e-12 * conf.max()
    z = np.zeros_like(rep)
    z[defined] = rep[defined] / conf[defined]
    return ExtractedField(z=z, angle=np.angle(z), confidence=conf / conf.max(),
                          defined=defined, degree=ops.degree)
