"""The benchmark's workloads: which suites each one runs, and why.

Together the three workloads run every suite of ``spinframe run all``
exactly once, at its default configuration (no seed count, grid or
tolerance is cut).  ``primary`` and ``secondary`` name the suites whose
wall times are reported as ``suite_s.primary`` and ``suite_s.secondary``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple[str, ...]
    primary: str
    secondary: str
    checks: tuple[str, ...]
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "property-sweep",
            ("factorization", "kk-decomposition"),
            "factorization", "kk-decomposition",
            ("factorization-identity", "kk-decomposition-analytic"),
            "thousands of tiny random fields: per-call overhead, TrigPoly "
            "sampling and pointwise bilinear algebra dominate",
        ),
        Workload(
            "exact-solutions",
            ("theorem1", "table1", "plane-waves", "appendix-b", "coframe"),
            "theorem1", "table1",
            ("theorem1-field-equation", "theorem1-variational-gradient",
             "theorem1-never-inconsistent", "state-table-classification",
             "plane-wave-dirac-solutions", "ode-example-analytic",
             "ode-example-stencil", "ode-example-lemma-branches",
             "coframe-correspondence"),
            "closed-form solutions: the finite-difference variational oracle "
            "with FFT bundle rebuilds dominates, random sampling is minor",
        ),
        Workload(
            "large-grid",
            ("separation", "torsion-routes"),
            "separation", "torsion-routes",
            ("separation-of-variables", "torsion-two-routes-analytic",
             "torsion-two-routes-refinement"),
            "few large arrays (12^3x8, 32^3, 64^3): array-size-bound sampling, "
            "stencils, wedge and Hodge, where batching must not cost time or memory",
        ),
    )
}

ALL_CHECKS = tuple(c for w in WORKLOADS.values() for c in w.checks)


def run_pass(workload, cfg):
    """One closed-loop pass; module attributes are looked up per call so a
    traced pass goes through the tracer's wrappers."""
    from spinframe import reports, suites

    reps, suite_s, suite_start = [], {}, {}
    c0 = time.process_time()
    t0 = time.perf_counter()
    for name in workload.suites:
        suite_start[name] = time.perf_counter()
        reps.extend(suites.run_suite(name, cfg))
        suite_s[name] = time.perf_counter() - suite_start[name]
    text = reports.render(reps, "json")
    wall = time.perf_counter() - t0
    return {"reports": reps, "text": text, "wall_s": wall,
            "cpu_s": time.process_time() - c0, "suite_s": suite_s,
            "suite_start": suite_start}
