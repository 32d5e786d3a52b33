"""Smoke check of the benchmark itself on tiny meshes (a few seconds).

    python3 perfbench/smoke.py

For each workload kind, with tracing off and on: every metric named in
BENCHMARK.json is emitted and no check fails. Then a failing check is
injected and must be counted in ``failed``. Also checks that
layers.json describes exactly the per-layer metrics of BENCHMARK.json,
and that a per-layer metric whose traced target is gone is reported as
missing rather than as zero.
Exits 1 on the first failure.
"""

import contextlib
import io
import json
import sys

import run

TINY = {
    "hotpath-disk4k-n64": {"kind": "library", "mesh": "disk", "rings": 4,
                           "fiber_n": 8, "max_iters": 3},
    "saddle-disk16k-n16": {"kind": "library", "mesh": "disk", "rings": 5,
                           "fiber_n": 8, "max_iters": 2},
    "eps-cap2k-n16": {"kind": "cli", "mesh": "cap", "rings": 6,
                      "fiber_n": 8, "eps": 5e-4},
}


def expect(cond, what):
    if not cond:
        print("smoke FAILED: %s" % what)
        sys.exit(1)


def tiny_run(minsec, name, trace, declared):
    result = run.run_workload(minsec, "smoke-" + name, TINY[name], 1, 0, trace)
    with contextlib.redirect_stdout(io.StringIO()) as text:
        run.emit(result, declared)
    return json.loads(text.getvalue().strip().splitlines()[-1])


def main():
    spec = run.benchmark_spec()
    minsec = run.load_minsec()
    expect(set(TINY) == set(run.WORKLOADS) == {w["name"] for w in spec["workloads"]},
           "workload names of run.py, smoke.py and BENCHMARK.json agree")
    with open(run.ROOT / "perfbench" / "layers.json") as fh:
        layers = json.load(fh)["layers"]
    per_layer = [m["name"] for m in spec["per_layer"]]
    e2e = [m["name"] for m in spec["end_to_end"]]
    op = {"samples": 1, "sample_state_mb": 1.0, "trace_overhead_s": 0.0,
          "reduced_iterations": 0}
    values, missing, _ = run.layer_metrics([], set(), op)
    expect(sorted(layers) == sorted(per_layer) == sorted([*values, *missing]),
           "layers.json, run.py and BENCHMARK.json per_layer name the same metrics")
    expect(sorted(values) == ["solver.sample_state_mb", "solver.samples",
                              "trace.overhead_s"],
           "metrics of absent trace targets are reported missing, not zero")
    for name, row in layers.items():
        for metric, workload in row["moves"]:
            expect(metric in e2e and workload in run.WORKLOADS,
                   "%s moves a known metric on a known workload" % name)

    for trace, names in ((0, e2e), (1, per_layer)):
        declared = {m["name"]: m["unit"]
                    for m in spec["per_layer" if trace else "end_to_end"]}
        for name in TINY:
            line = tiny_run(minsec, name, trace, declared)
            expect(sorted(line["metrics"]) == sorted(names),
                   "%s trace %d emits every declared metric" % (name, trace))
            expect(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                   "%s trace %d passes its checks" % (name, trace))
            print("smoke ok: %s trace %d, %d metrics" % (name, trace, len(names)))

    checks = run.solve_checks
    run.solve_checks = lambda res: dict(checks(res), injected=False)
    try:
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name in ("hotpath-disk4k-n64", "eps-cap2k-n16"):
            line = tiny_run(minsec, name, 0, declared)
            expect(not line["correct"] and line["failed"] == line["attempted"] >= 1,
                   "%s counts an injected failing check" % name)
            print("smoke ok: %s counts an injected failure (%d of %d failed)"
                  % (name, line["failed"], line["attempted"]))
    finally:
        run.solve_checks = checks
    print("smoke passed")


if __name__ == "__main__":
    main()
