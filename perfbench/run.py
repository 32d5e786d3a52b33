"""minsec benchmark: seeded meshes in, timed solves and checked outputs out.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N          # every workload, one after another

With one ``--workload`` the run happens in this process. Without one,
each workload runs in a fresh child process, strictly one at a time: two
overlapping solves on a small machine slow each other down many times
over. The package is imported from ``src/`` of the checkout, never from
an installed copy.

A run builds its mesh from the seed, sets the solver up at least three
times and for at least two seconds, then repeats the workload's operation until ``--seconds`` have passed
(at least once) and reports medians. Every operation's outputs are
checked; an operation with a failed check counts in ``failed``. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json. With
``--trace 1`` the same untraced operations run first, then one with every
public function of the package wrapped in a span (see tracer.py), then
one more untraced as the reference for the tracing overhead; the metrics
are the per-layer ones, derived from the spans of the traced operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before
it are for people: mesh sizes, machine, each operation's final objective
(at full precision, to compare numerical rewrites against) and, when
tracing, a per-span table. A JSON file with the same detail, and the
spans themselves, is written to ``.perfbench_out/`` in the checkout.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import meshes
from tracer import Tracer, span_table

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
MODULES = ("mesh", "operators", "bundle", "solver", "extract", "reduced", "cli")
SETUP_SAMPLES = 3      # set up at least this often per run ...
SETUP_SECONDS = 2.0    # ... and for at least this long, so cheap set-ups are sampled more
KKT_TOL = 1e-9
INDEX_SUM_TOL = 0.02
INDEX_RESIDUAL_TOL = 0.05

# degree 4, lambda = r = 1 and tangent boundary everywhere. "library"
# workloads time build_transport + AdmmSolver(...) + run() with a fixed
# iteration cap (eps 0); the "cli" workload runs minsec.cli.main to eps on
# an OBJ file, then --mode reduced on the same file.
WORKLOADS = {
    "hotpath-disk4k-n64": {"kind": "library", "mesh": "disk", "rings": 36,
                           "fiber_n": 64, "max_iters": 30},
    "saddle-disk16k-n16": {"kind": "library", "mesh": "disk", "rings": 72,
                           "fiber_n": 16, "max_iters": 3, "min_ops": 2},
    "eps-cap2k-n16": {"kind": "cli", "mesh": "cap", "rings": 24,
                      "fiber_n": 16, "eps": 5e-4},
}
DEGREE, LAM, RADIUS = 4, 1.0, 1.0

clock = time.perf_counter


def load_minsec():
    """Import the package from the checkout's src/; exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "minsec" / "__init__.py").is_file():
        print("error: no minsec package under %s" % src, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import minsec
    import minsec.cli
    import minsec.solver
    if Path(minsec.__file__).resolve().parent != (src / "minsec").resolve():
        print("error: minsec imported from %s, not %s" % (minsec.__file__, src),
              file=sys.stderr)
        sys.exit(2)
    return minsec


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": {v: os.environ.get(v, "unset (library default)")
                         for v in thread_vars},
    }


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- one workload -----------------------------------------------------------

class Workload:
    """Mesh, operation and checks of one workload at one seed."""

    def __init__(self, minsec, spec, seed, workdir):
        self.minsec = minsec
        self.spec = spec
        gen = meshes.disk if spec["mesh"] == "disk" else meshes.spherical_cap
        self.vertices, self.triangles = gen(spec["rings"], seed)
        self.mesh = minsec.TriMesh(self.vertices, self.triangles)
        self.workdir = workdir
        self.obj = workdir / "mesh.obj"
        if spec["kind"] == "cli":
            meshes.write_obj(self.obj, self.vertices, self.triangles)
        self.config = minsec.SolverConfig(
            lam=LAM, radius=RADIUS, degree=DEGREE, fiber_n=spec["fiber_n"],
            eps=spec.get("eps", 0.0), max_iters=spec.get("max_iters", 2000))

    def counts(self):
        m = self.mesh
        return {"vertices": len(m.vertices), "faces": len(m.triangles),
                "boundary_edges": len(m.boundary_edges),
                "interior_edges": len(m.interior_edges),
                "euler_characteristic": int(m.euler_characteristic()),
                "samples": 3 * len(m.triangles) * self.spec["fiber_n"]}

    def setup(self):
        """build_transport + AdmmSolver construction; returns (seconds, solver)."""
        t0 = clock()
        atlas = self.minsec.mesh.build_transport(self.mesh)
        solver = self.minsec.solver.AdmmSolver(self.mesh, self.config, atlas=atlas)
        return clock() - t0, solver

    def operation(self):
        """Run the workload once; returns (record, SolveResult)."""
        if self.spec["kind"] == "library":
            setup_s, solver = self.setup()
            t0 = clock()
            res = solver.run()
            solve_s = clock() - t0
            rec = {"total_s": setup_s + solve_s, "setup_s": setup_s, "solve_s": solve_s}
            return self._record(rec, res, solve_checks(res)), res
        return self._cli_operation()

    def _cli_operation(self):
        cli = self.minsec.cli
        out_m, out_r = self.workdir / "minsec", self.workdir / "reduced"
        common = ["--mesh", str(self.obj), "--degree", str(DEGREE), "--lambda", str(LAM),
                  "--radius", str(RADIUS), "--epsilon", repr(self.config.eps)]
        captured = []
        run_admm = cli.run_admm

        def capture(*args, **kwargs):
            captured.append(run_admm(*args, **kwargs))
            return captured[-1]

        cli.run_admm = capture
        try:
            t0 = clock()
            code_m = cli.main(common + ["--mode", "minsec", "--fiber-n",
                                        str(self.spec["fiber_n"]), "--emit-current",
                                        "--out", str(out_m)])
            code_r = cli.main(common + ["--mode", "reduced", "--out", str(out_r)])
            total_s = clock() - t0
        finally:
            cli.run_admm = run_admm
        res = captured[0]
        reduced = read_diagnostics(out_r / "diagnostics.txt")
        checks = solve_checks(res)
        checks["minsec_exit_0"] = code_m == 0
        checks["reduced_exit_0"] = code_r == 0
        checks.update(singularity_checks(out_m / "singularities.txt",
                                         self.mesh.euler_characteristic()))
        rec = {"total_s": total_s, "solve_s": res.report.timings["total"],
               "reduced_iterations": int(reduced["iterations"]),
               "reduced_objective": float(reduced["objective"])}
        for sub in (out_m, out_r):
            shutil.rmtree(sub)
        return self._record(rec, res, checks), res

    def _record(self, rec, res, checks):
        rep = res.report
        rec["iterations"] = int(rep.iterations)
        rec["objective"] = final_objective(res)
        rec["kkt_residual"] = float(rep.kkt_residual)
        rec["checks"] = checks
        rec["ok"] = all(checks.values())
        return rec


def final_objective(res):
    hist = res.report.objective_history
    return float(hist[-1]) if hist is not None and len(hist) else float("nan")


def solve_checks(res):
    return {"objective_finite": math.isfinite(final_objective(res)),
            "kkt_residual<=%g" % KKT_TOL: bool(res.report.kkt_residual <= KKT_TOL),
            "sigma_v>=0": bool((res.state.sigma_v >= 0).all())}


def read_diagnostics(path):
    """``key value`` lines of a diagnostics.txt header, as strings."""
    out = {}
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if len(parts) == 2:
                out.setdefault(parts[0], parts[1])
    return out


def singularity_checks(path, chi):
    with open(path) as fh:
        rows = [[float(x) for x in ln.split()] for ln in fh if ln.strip()]
    index_sum = sum(r[3] for r in rows)
    return {"index_sum_within_%g_of_chi" % INDEX_SUM_TOL:
            abs(index_sum - chi) <= INDEX_SUM_TOL,
            "index_residuals<=%g" % INDEX_RESIDUAL_TOL:
            all(abs(r[4]) <= INDEX_RESIDUAL_TOL for r in rows)}


def attempt(fn, log):
    """Run one operation; an exception is a failed operation, not a crash."""
    try:
        return fn()
    except Exception:
        traceback.print_exc()
        log.append({"ok": False, "error": traceback.format_exc(limit=3)})
        return None, None


# -- per-layer metrics from spans ---------------------------------------------

ITERATE = "solver.AdmmSolver.iterate"
REFACTOR = "solver.GlobalSystems.refactor"

# per-layer metric -> the span whose summed duration it is
SPAN_TOTALS = {
    "mesh.load_mesh_s": "mesh.load_mesh",
    "mesh.build_transport_s": "mesh.build_transport",
    "operators.assemble_s": "operators.OperatorSet.assemble",
    "bundle.boundary_data_s": "bundle.make_boundary_data",
    "solver.systems_init_s": "solver.GlobalSystems.__init__",
    "solver.refactor_s": REFACTOR,
    "solver.reconstruct_s": "solver.AdmmSolver.reconstruct",
    "solver.objective_s": "solver.AdmmSolver.objective",
    "solver.solve_frequency_s": "solver.GlobalSystems.solve_frequency",
    "solver.solve_zero_s": "solver.GlobalSystems.solve_zero",
    "extract.singularities_s": "extract.extract_singularities",
    "extract.cdf_s": "extract.concentration_cdf",
    "extract.w2_s": "extract.fiber_w2",
    "reduced.solve_s": "reduced.solve_reduced",
}
LOCAL = ("solver.local_step_sigma", "solver.AdmmSolver.gamma_target",
         "solver.local_step_gamma")
RESIDUAL = ("solver.AdmmSolver.sigma_norm", "solver.AdmmSolver.gamma_norm")


def penalty_stats(spans):
    """Penalty changes the solver acted on, from successive refactor calls,
    and how many of them returned to a (mu, nu) pair seen before."""
    last, seen = {}, {}
    changes = repeats = 0
    for name, _, _, _, note in spans:
        if name != REFACTOR:
            continue
        owner, pair = note[0], note[1:]
        if owner in last and last[owner] != pair:
            changes += 1
            repeats += pair in seen[owner]
        last[owner] = pair
        seen.setdefault(owner, set()).add(pair)
    return changes, repeats


def layer_metrics(spans, installed, op):
    """Per-layer values from the spans of one traced operation.

    ``op`` carries the values not taken from spans. Returns (values,
    missing, span table); ``missing`` maps a metric to the traced targets
    it needs that were not found, and such a metric has no value. A layer
    that exists but did not run reads 0.
    """
    table = span_table(spans)

    def field(name, key):
        if name in table:
            return table[name][key]
        return 0 if key == "count" else 0.0

    def busy_under(names, parent):
        return sum(end - start for name, start, end, par, _ in spans
                   if name in names and par >= 0 and spans[par][0] == parent)

    changes, repeats = penalty_stats(spans)
    derived = {m: ([n], field(n, "total_s")) for m, n in SPAN_TOTALS.items()}
    derived.update({
        "solver.penalty_changes": ([REFACTOR], changes),
        "solver.penalty_repeat_frac": ([REFACTOR], repeats / changes if changes else 0.0),
        "solver.global_step_self_s": (["solver.AdmmSolver.global_step"],
                                      field("solver.AdmmSolver.global_step", "self_s")),
        "solver.local_s": ([ITERATE, *LOCAL], busy_under(LOCAL, ITERATE)),
        "solver.residual_s": ([ITERATE, *RESIDUAL], busy_under(RESIDUAL, ITERATE)),
        "solver.iterate_self_s": ([ITERATE], field(ITERATE, "self_s")),
        "solver.solve_frequency_calls": (["solver.GlobalSystems.solve_frequency"],
                                         field("solver.GlobalSystems.solve_frequency",
                                               "count")),
        "reduced.iterations": (["reduced.solve_reduced"], op["reduced_iterations"]),
        "cli.self_s": (["cli.main"], sum(row["self_s"] for name, row in table.items()
                                         if name.startswith("cli."))),
        "solver.samples": ([], op["samples"]),
        "solver.sample_state_mb": ([], op["sample_state_mb"]),
        "trace.overhead_s": ([], op["trace_overhead_s"]),
    })
    values, missing = {}, {}
    for metric, (needs, value) in derived.items():
        absent = [n for n in needs if n not in installed]
        if absent:
            missing[metric] = absent
        else:
            values[metric] = value
    return values, missing, table


def sample_state_mb(res):
    st = res.state
    return (st.sigma_h.nbytes + st.sigma_v.nbytes + st.w_h.nbytes
            + st.w_v.nbytes) / 2.0 ** 20


# -- driver -------------------------------------------------------------------

def run_workload(minsec, name, spec, seed, seconds, trace):
    """Measure one workload in this process; returns the result dict."""
    workdir = OUT / ("%s-seed%d-pid%d" % (name, seed, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(minsec, name, spec, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(minsec, name, spec, seed, seconds, trace, workdir):
    wl = Workload(minsec, spec, seed, workdir)
    log = []
    setups = []
    min_ops = spec.get("min_ops", 1)
    # each library operation sets up once more, inside its timed total
    min_setups = SETUP_SAMPLES - (min_ops if spec["kind"] == "library" else 0)
    while not log and (len(setups) < min_setups or sum(setups) < SETUP_SECONDS):
        t, solver = attempt(wl.setup, log)
        del solver
        gc.collect()
        if t is not None:
            setups.append(t)

    ops = []
    start = clock()
    while not log and (len(ops) < min_ops or clock() - start < seconds):
        rec, res = attempt(wl.operation, log)
        del res
        gc.collect()
        if rec is None:
            break
        ops.append(rec)
        if "setup_s" in rec:
            setups.append(rec["setup_s"])
    if not ops or not setups:
        print("error: no operation of %s completed" % name, file=sys.stderr)
        sys.exit(1)

    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "mesh": wl.counts(), "environment": environment(), "operations": ops}
    if trace:
        tracer = Tracer("minsec", MODULES, notes={
            REFACTOR: lambda args, kwargs, result: (id(args[0]), args[1], args[2])})
        installed = set(tracer.install())
        try:
            rec, res = attempt(wl.operation, log)
        finally:
            tracer.uninstall()
        if rec is None:
            sys.exit(1)
        rec["traced"] = True
        state_mb = sample_state_mb(res)
        del res
        gc.collect()
        # the first operation of a process runs cold, so the untraced
        # reference for the overhead is the one right after the traced one
        ref, _ = attempt(wl.operation, log)
        if ref is None:
            sys.exit(1)
        ops += [rec, ref]
        op = {"samples": wl.counts()["samples"], "sample_state_mb": state_mb,
              "reduced_iterations": rec.get("reduced_iterations", 0),
              "trace_overhead_s": rec["total_s"] - ref["total_s"]}
        metrics, missing, table = layer_metrics(tracer.spans, installed, op)
        result["missing"] = missing
        result["span_table"] = table
        result["spans"] = tracer.spans
    else:
        metrics = {
            "total_s": statistics.median(r["total_s"] for r in ops),
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(r["solve_s"] for r in ops),
            "iter_ms": statistics.median(1e3 * r["solve_s"] / r["iterations"] for r in ops),
            "iterations": statistics.median(r["iterations"] for r in ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    failed = sum(1 for r in ops + log if not r["ok"])
    result.update({"setup_samples_s": setups, "errors": log,
                   "attempted": len(ops) + len(log), "failed": failed,
                   "metrics": metrics})
    return result


def emit(result, declared):
    """Print the human-readable report, write the JSON file, print the result line."""
    name = result["workload"]
    m = result["mesh"]
    print("workload %s  seed %d  trace %d  seconds %g" % (
        name, result["seed"], result["trace"], result["seconds"]))
    print("mesh  vertices %d  faces %d  boundary_edges %d  samples %d  chi %d" % (
        m["vertices"], m["faces"], m["boundary_edges"], m["samples"],
        m["euler_characteristic"]))
    env = result["environment"]
    print("env   nproc %d (affinity %d)  cpu %s  python %s  numpy %s  scipy %s  blas %s" % (
        env["nproc"], env["affinity"], env["cpu"], env["python"], env["numpy"],
        env["scipy"], env["blas"]))
    print("env   blas threads %s" % ", ".join(
        "%s=%s" % kv for kv in env["blas_threads"].items()))
    print("setup samples_s %s" % " ".join("%.4f" % s for s in result["setup_samples_s"]))
    for i, r in enumerate(result["operations"]):
        print("op %d%s  total_s %.4f  solve_s %.4f  iterations %d  objective %r  "
              "kkt %.3g  %s" % (
                  i, " (traced)" if r.get("traced") else "", r["total_s"], r["solve_s"],
                  r["iterations"], r["objective"], r["kkt_residual"],
                  "ok" if r["ok"] else "FAILED " + ",".join(
                      k for k, v in r["checks"].items() if not v)))
    for e in result["errors"]:
        print("op error: %s" % e["error"].strip().splitlines()[-1])
    if "span_table" in result:
        print("span  %-44s %7s %10s %10s %10s %s" % (
            "name", "count", "total_s", "self_s", "median_s", "high percentile"))
        for sname, row in sorted(result["span_table"].items()):
            high = ("p%g %.6f" % (row["percentile"], row["value"])
                    if row["percentile"] is not None else "-")
            print("span  %-44s %7d %10.4f %10.4f %10.6f %s" % (
                sname, row["count"], row["total_s"], row["self_s"], row["median"], high))
        for metric, absent in result["missing"].items():
            print("MISSING %s: no traced %s" % (metric, ", ".join(absent)))
    metrics = {k: {"value": v, "unit": declared[k]}
               for k, v in result["metrics"].items() if k in declared}
    for k in declared:
        if k in metrics:
            print("metric %-30s %.6g %s" % (k, metrics[k]["value"], declared[k]))
        else:
            print("metric %-30s MISSING" % k)
    print("failed_frac %.6g  (%d failed of %d attempted)" % (
        result["failed"] / result["attempted"], result["failed"], result["attempted"]))

    OUT.mkdir(exist_ok=True)
    path = OUT / ("%s-seed%d-trace%d.json" % (name, result["seed"], result["trace"]))
    with open(path, "w") as fh:
        json.dump(result, fh, default=float)
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    print(json.dumps(line))


def run_all(args):
    """Each workload in a fresh child process, one after another."""
    lines = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        if proc.returncode != 0:
            print("error: workload %s exited with %d" % (name, proc.returncode),
                  file=sys.stderr)
            return proc.returncode
        lines[name] = json.loads(proc.stdout.strip().splitlines()[-1])

    print("summary seed %-31d %s" % (args.seed, "".join("%22s" % n for n in lines)))
    for metric, row in next(iter(lines.values()))["metrics"].items():
        print("summary %-30s %-5s %s" % (metric, row["unit"], "".join(
            "%22.6g" % ln["metrics"][metric]["value"] for ln in lines.values())))
    print("summary %-36s %s" % ("failed_frac", "".join(
        "%22.6g" % (ln["failed"] / ln["attempted"]) for ln in lines.values())))
    print(json.dumps({"correct": all(ln["correct"] for ln in lines.values()),
                      "attempted": sum(ln["attempted"] for ln in lines.values()),
                      "failed": sum(ln["failed"] for ln in lines.values()),
                      "workloads": {n: ln["metrics"] for n, ln in lines.items()}}))
    return 0


def main(argv=None):
    spec = benchmark_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="run this workload here (default: all, each in a fresh process)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    minsec = load_minsec()
    if args.workload is None:
        return run_all(args)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = run_workload(minsec, args.workload, WORKLOADS[args.workload],
                          args.seed, args.seconds, args.trace)
    emit(result, declared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
