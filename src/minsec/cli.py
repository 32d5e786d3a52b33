"""Command-line pipeline: mesh in, field/singularity/diagnostic files out.

Outputs are plain text with fixed column orders so plotting and meshing
stay external. Exit code 0 means the solve converged, 2 that it hit the
iteration cap, 1 any error: :func:`main` prints a ``ValueError``,
``OSError`` or ``RuntimeError`` from any stage as one ``error: ...`` line.
A capped solve, or one whose field is undefined on some faces (exit 1,
``undefined_faces N`` in diagnostics.txt), still writes every file.
"""

import argparse
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from .bundle import make_kappa_bar
from .extract import (baseline_smoothest_field, concentration_cdf, extract_field,
                      extract_singularities, fiber_w2, graph_area)
from .mesh import build_transport, load_mesh
from .operators import OperatorSet
from .reduced import solve_reduced
from .solver import SolverConfig, run_admm, sample_density

MODES = ("minsec", "reduced", "baseline")


@dataclass
class RunConfig:
    mesh: str = ""
    mode: str = "minsec"
    degree: int = 1
    lam: float = 1.0
    lambda_field: str = ""
    radius: float = 1.0
    fiber_n: int = 64
    epsilon: float = 5e-4
    max_iters: int = 2000
    mask: str = ""
    boundary: str = "tangent"
    out: str = "."
    emit_current: bool = False


def _parse_bool(text):
    return text.lower() in ("1", "true", "yes", "on")


_PARSERS = {f.name: _parse_bool if f.type is bool else f.type for f in fields(RunConfig)}
_KEY_ALIASES = {"lambda": "lam", "n": "fiber_n", "eps": "epsilon"}


class ConfigError(ValueError):
    pass


def _check(config):
    if config.mode not in MODES:
        raise ConfigError("mode must be one of %s, got %r" % (", ".join(MODES), config.mode))
    try:
        _solver_config(config, config.lam).validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if config.epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    return config


def _solver_config(config, lam, mask=None):
    return SolverConfig(
        lam=lam, radius=config.radius, degree=config.degree,
        fiber_n=config.fiber_n, eps=config.epsilon, max_iters=config.max_iters,
        mask=mask)


def validate_config(path):
    """Parse a flat ``key = value`` config file into a validated RunConfig."""
    config = RunConfig()
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError("%s:%d: expected key = value" % (path, lineno))
            key, value = (s.strip() for s in body.split("=", 1))
            key = _KEY_ALIASES.get(key.lower(), key.lower())
            if key not in _PARSERS:
                raise ConfigError("%s:%d: unknown key %r" % (path, lineno, key))
            try:
                setattr(config, key, _PARSERS[key](value))
            except ValueError as exc:
                raise ConfigError("%s:%d: bad value for %r: %s" % (path, lineno, key, exc))
    return _check(config)


def _records(path):
    """``(path:line, fields)`` for each line with fields left once a ``#`` comment is cut."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split("#", 1)[0].split()
            if parts:
                yield "%s:%d" % (path, lineno), parts


def _parse(where, parts, kinds):
    """Convert the fields of one line, naming the line on failure."""
    try:
        if len(parts) != len(kinds):
            raise ValueError("expected %d fields, got %d" % (len(kinds), len(parts)))
        values = [kind(p) for kind, p in zip(kinds, parts)]
    except ValueError as exc:
        raise ConfigError("%s: bad line %r: %s" % (where, " ".join(parts), exc)) from None
    if not np.all(np.isfinite(values)):
        raise ConfigError("%s: values must be finite" % where)
    return values


def _check_vertex(where, v, mesh):
    if not 0 <= v < len(mesh.vertices):
        raise ConfigError("%s: vertex %d out of range (mesh has %d vertices)"
                          % (where, v, len(mesh.vertices)))


def _read_boundary_file(path, mesh):
    angles = {}
    for where, parts in _records(path):
        v, angle = _parse(where, parts, (int, float))
        _check_vertex(where, v, mesh)
        if not mesh.is_boundary_vertex[v]:
            raise ConfigError("%s: vertex %d is not a boundary vertex" % (where, v))
        angles[v] = angle
    return angles


def _read_mask_file(path, mesh):
    """Vertex lines mask every interior edge between two listed vertices;
    two-index lines name an interior edge directly."""
    n_v = len(mesh.vertices)
    keys = mesh.edges[:, 0] * n_v + mesh.edges[:, 1]     # sorted, as edges are
    listed = np.zeros(n_v, dtype=bool)
    ids = []
    for where, parts in _records(path):
        if len(parts) == 1:
            (v,) = _parse(where, parts, (int,))
            _check_vertex(where, v, mesh)
            listed[v] = True
            continue
        a, b = _parse(where, parts, (int, int))
        lo, hi = sorted((a, b))
        key = lo * n_v + hi if 0 <= lo and hi < n_v else -1
        eid = min(int(np.searchsorted(keys, key)), len(keys) - 1)
        if keys[eid] != key or mesh.edge_faces[eid, 1] < 0:
            raise ConfigError("%s: %d %d is not an interior edge of the mesh"
                              % (where, a, b))
        ids.append(eid)
    inside = mesh.interior_edges[listed[mesh.edges[mesh.interior_edges]].all(axis=1)]
    return sorted(set(ids + inside.tolist()))


def _read_lambda_field(path, mesh, base):
    per_vertex = np.full(len(mesh.vertices), np.nan)      # NaN: no line for the vertex
    for where, parts in _records(path):
        v, value = _parse(where, parts, (int, float))
        _check_vertex(where, v, mesh)
        if value < 0:
            raise ConfigError("%s: lambda must be nonnegative" % where)
        per_vertex[v] = value
    a, b = per_vertex[mesh.edges[mesh.interior_edges]].T
    mean = np.where(np.isnan(a), b, np.where(np.isnan(b), a, (a + b) / 2))
    return np.where(np.isnan(mean), base, mean)


def _write_rows(path, fmt, *columns):
    """One ``fmt % row`` line per row of the equal-length ``columns``."""
    with open(path, "w") as fh:
        fh.writelines(fmt % row for row in zip(*(np.ravel(c).tolist() for c in columns)))


_FIELD_ROW = "%d %.17g %.17g\n"                # vertex angle confidence
_FRAME_ROW = "%d" + " %.17g" * 6 + "\n"        # vertex e1 e2
_GAMMA_ROW = "%d %d %d %.17g\n"                # edge v0 v1 value


def run(config):
    """Execute one configured pipeline; returns the process exit code.

    Bad settings, inputs and failed solves raise; :func:`main` reports them.
    """
    _check(config)
    if not config.mesh:
        raise ConfigError("no mesh given")
    if not os.path.exists(config.mesh):
        raise ConfigError("mesh not found: %s" % config.mesh)
    mesh = load_mesh(config.mesh)
    atlas = build_transport(mesh)
    boundary = config.boundary
    if boundary != "tangent":
        boundary = _read_boundary_file(boundary, mesh)

    os.makedirs(config.out, exist_ok=True)
    path = lambda name: os.path.join(config.out, name)
    vertex = np.arange(len(mesh.vertices))
    frames = atlas.vertex_frame.reshape(len(vertex), 6).T
    edges = (mesh.interior_edges, *mesh.edges[mesh.interior_edges].T)

    if config.mode == "baseline":
        ops = OperatorSet.assemble(mesh, atlas, config.degree, config.radius, k_max=1)
        field = baseline_smoothest_field(ops)
        _write_rows(path("field.txt"), _FIELD_ROW, vertex, field.angle, field.confidence)
        _write_rows(path("frames.txt"), _FRAME_ROW, vertex, *frames)
        return 0

    if config.mode == "reduced":
        kb = make_kappa_bar(atlas, config.degree)
        ell = 2 * np.pi * config.radius
        mask = _read_mask_file(config.mask, mesh) if config.mask else None
        t0 = time.perf_counter()
        out = solve_reduced(mesh, kb, lam_eff=2 * config.lam / ell ** 2,
                            eps=config.epsilon, max_iters=config.max_iters, mask=mask)
        elapsed = time.perf_counter() - t0
        _write_rows(path("gamma.txt"), _GAMMA_ROW, *edges, out.gamma)
        lines = ["mode reduced",
                 "iterations %d" % out.iterations,
                 "converged %d" % int(out.converged),
                 "objective %.17g" % out.objective,
                 "feasibility %.17g" % out.feasibility,
                 "time_seconds %.6f" % elapsed]
        _write_rows(path("diagnostics.txt"), "%s\n", lines)
        return 0 if out.converged else 2

    lam = config.lam
    if config.lambda_field:
        lam = _read_lambda_field(config.lambda_field, mesh, config.lam)
    mask = _read_mask_file(config.mask, mesh) if config.mask else None
    res = run_admm(mesh, _solver_config(config, lam, mask), boundary, atlas=atlas)
    field = extract_field(res.state, res.ops)
    undefined = int(np.count_nonzero(~field.defined[mesh.triangles].all(axis=1)))
    area = float("nan") if undefined else graph_area(field, res.ops, config.radius)
    sing = extract_singularities(res.state.gamma, res.ops, config.degree)

    _write_rows(path("field.txt"), _FIELD_ROW, vertex, field.angle, field.confidence)
    _write_rows(path("frames.txt"), _FRAME_ROW, vertex, *frames)
    cl = sing.clusters
    _write_rows(path("singularities.txt"), "%.17g %.17g %.17g %.17g %.17g\n",
                *np.reshape([c.position for c in cl], (-1, 3)).T,
                [c.index for c in cl], [c.residual for c in cl])
    _write_rows(path("gamma.txt"), _GAMMA_ROW, *edges, res.state.gamma)
    if config.emit_current:
        # face corner increment value, one line per corner sample
        dens = sample_density(res.state, res.ops.radius)
        corner, inc = np.indices(dens.shape)
        _write_rows(path("current.txt"), "%d %d %d %.17g\n", corner // 3, corner % 3,
                    inc, dens)

    thetas = np.pi * np.arange(33) / 32
    cdf = concentration_cdf(res.state, field, res.ops, res.fd, thetas)
    w2 = fiber_w2(res.state, field, res.ops, res.fd)
    rep = res.report
    lines = ["mode minsec",
             "iterations %d" % rep.iterations,
             "converged %d" % int(rep.converged),
             "saddle_builds %d" % rep.saddle_builds,
             "sparse_factorizations %d" % rep.factorizations,
             "graph_area %.17g" % area,
             "undefined_faces %d" % undefined,
             "kkt_residual %.6g" % rep.kkt_residual,
             "final_residuals %s" % " ".join("%.6g" % r for r in rep.residuals)]
    lines += ["time_%s_seconds %.6f" % (k, v) for k, v in sorted(rep.timings.items())]
    lines += ["", "# concentration cdf: theta fraction"]
    lines += ["cdf %.17g %.17g" % (t, c) for t, c in zip(thetas, cdf)]
    lines += ["", "# fiber transport distance: vertex value"]
    lines += ["w2 %d %.17g" % (v, w2[v]) for v in range(len(w2))]
    lines += ["", "# residual history: iter r_p_mu r_d_mu r_p_nu r_d_nu"]
    lines += ["resid %d %s" % (i, " ".join("%.6g" % r for r in row))
              for i, row in enumerate(rep.residual_history)]
    _write_rows(path("diagnostics.txt"), "%s\n", lines)
    if undefined:
        raise ValueError("field is undefined on %d faces" % undefined)
    return 0 if rep.converged else 2


def build_parser():
    p = argparse.ArgumentParser(
        prog="minsec",
        description="Directional fields with optimized singularities on "
                    "triangle meshes with boundary.")
    p.add_argument("--mesh", help="triangulated OBJ file")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--degree", type=int, help="field degree (1 vector, 2 line, 4 cross)")
    p.add_argument("--lambda", dest="lam", type=float, help="singularity sparsity weight")
    p.add_argument("--lambda-field", dest="lambda_field",
                   help="per-vertex lambda file (soft mask)")
    p.add_argument("--radius", type=float, help="fiber radius")
    p.add_argument("--fiber-n", dest="fiber_n", type=int, help="fiber increments (even, >= 8)")
    p.add_argument("--epsilon", type=float, help="residual tolerance")
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--mask", help="hard-mask region file (vertex or edge lines)")
    p.add_argument("--boundary", help='"tangent" or a per-vertex angle file')
    p.add_argument("--out", help="output directory")
    p.add_argument("--emit-current", dest="emit_current", action="store_true",
                   default=None, help="write per-corner fiber densities")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = validate_config(args.config) if args.config else RunConfig()
        for f in fields(RunConfig):
            value = getattr(args, f.name, None)
            if value is not None:
                setattr(config, f.name, value)
        return run(config)
    except (ValueError, OSError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
