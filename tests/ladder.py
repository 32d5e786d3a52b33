"""Numerical-rewrite gate: the solver's ladder of pinned runs.

A change that should alter results only by round-off must reproduce these
runs (``eps`` 5e-4, lambda = radius = 1): the same iterations and saddle
builds, final objectives within 1e-10 relative, and a saddle (KKT) residual
of at most 1e-9. Run it from the repository root:

    PYTHONPATH=src python tests/ladder.py

It prints one line per run and exits 1 if any run is off. pytest does not
collect it.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import meshgen  # noqa: E402
from minsec.solver import SolverConfig, run_admm  # noqa: E402

# (name, mesh, degree, fiber_n, iterations, saddle builds, final objective)
LADDER = [
    ("disk(8) d4/n16", lambda: meshgen.disk(8), 4, 16, 211, 44, 8.9033289942165),
    ("spherical_cap(8) d2/n64", lambda: meshgen.spherical_cap(8), 2, 64, 117, 44,
     10.382325664196436),
    ("annulus(6) d4/n16", lambda: meshgen.annulus(6), 4, 16, 150, 13, 23.146131364456274),
]


def main():
    failed = 0
    for name, make, degree, fiber_n, iterations, builds, objective in LADDER:
        report = run_admm(make(), SolverConfig(degree=degree, fiber_n=fiber_n)).report
        got = float(report.objective_history[-1])
        rel = abs(got - objective) / abs(objective)
        ok = (report.iterations == iterations and report.saddle_builds == builds
              and rel <= 1e-10 and report.kkt_residual <= 1e-9)
        failed += not ok
        print("%s %s: %d/%d (want %d/%d), objective %r (rel %.1e), KKT %.2e"
              % ("ok  " if ok else "FAIL", name, report.iterations, report.saddle_builds,
                 iterations, builds, got, rel, report.kkt_residual))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
