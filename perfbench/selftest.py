"""Tracer self-test on two tiny configurations.

1. ``factorization`` with ``seeds=2`` through ``run_suite`` and ``render``.
2. One probe of ``discrete_variational_derivative`` on a 4^3 grid, which
   reaches ``SpinorBundle.from_grid`` and the FFT derivative.

For each, the traced layer entry counts and work counters must equal the
values predicted by reading the code (derivations below), and the JSON
report must be byte-identical with tracing on and off.  The exact counts are
what prove coverage: a missed alias, method or property changes them.

The layer self times must also add up to the traced wall time.  Self times
sum to the time of the root spans (``run_suite`` and ``render``) whatever
the tracer wraps below them, so this only confirms that the root spans
cover the pass; it cannot detect a missed inner call.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# Per factorization seed (8^3 grid, 3D): random_positive_spinor,
# random_covector_polys, covector_on and SpinorPoly.bundle enter sampling;
# covector_on and bundle each call LatticeSpec.meshgrid.  lagrangian_reduced
# reads rho twice and makes 3 _sigma_contract + 1 reduced_axial_torsion
# calls; each factorization_residual reads rho once and runs two
# dirac_lagrangian (2 rho, 4 torsion entries each) and one
# lagrangian_reduced.  The bundle evaluates c1 (7 modes) and c2 (6 modes)
# and their 3 derivatives; covector_on evaluates 3 real 12-mode
# polynomials; every evaluation covers 512 points.
_FACTORIZATION_PER_SEED = {
    "sampling.calls": 4, "grids.calls": 2 + 16, "torsion.calls": 4 + 2 * 12,
    "lagrangians.calls": 3, "grids.rho_evals": 2 + 2 * 7, "grids.bundles": 1,
    "sampling.bundles": 1, "sampling.bundle_evals": 8,
    "sampling.mode_points": (4 * (7 + 6) + 3 * 12) * 512,
}
# once per suite: periodic_spec, base_for, run_suite, make_report; render
_FACTORIZATION_ONCE = {"grids.calls": 1, "sampling.calls": 1, "suites.calls": 1,
                       "reports.calls": 2}

# Per action evaluation: SpinorBundle.from_grid (3 FFT derivatives of a
# (4,4,4,2) complex array) and dirac_lagrangian (rho once, 3 _sigma_contract,
# reduced_axial_torsion with its own rho read).  One probe makes 8.
_ACTION_EVAL = {
    "grids.calls": 3, "torsion.calls": 4, "lagrangians.calls": 1,
    "field_equations.action_evals": 1, "grids.fft_calls": 3, "grids.bundles": 1,
    "grids.rho_evals": 2, "grids.bytes_computed": 3 * 4 ** 3 * 2 * 16,
}

# The root spans plus the benchmark's own loop must cover the wall time.
GAP_ALLOWED_S = 0.005


def predicted_factorization(seeds: int) -> dict:
    out = {k: v * seeds for k, v in _FACTORIZATION_PER_SEED.items()}
    for k, v in _FACTORIZATION_ONCE.items():
        out[k] = out.get(k, 0) + v
    return out


def predicted_probe() -> dict:
    out = {k: 8 * v for k, v in _ACTION_EVAL.items()}
    out.update({"field_equations.calls": 1, "field_equations.probes": 1})
    return out


def observed(tracer) -> dict:
    totals = tracer.layer_totals()
    out = {f"{layer}.calls": n for layer, n in totals["calls"].items() if n}
    out.update({k: v for k, v in tracer.counts.items() if v})
    return out


def _compare(what: str, want: dict, got: dict) -> list[str]:
    return [f"{what}: {key} traced {got.get(key, 0)}, predicted {want.get(key, 0)}"
            for key in sorted(set(want) | set(got)) if want.get(key, 0) != got.get(key, 0)]


def self_time_gap(tracer, wall_s: float) -> float:
    """|sum of layer self times - wall time| of the spans recorded."""
    return abs(sum(tracer.layer_totals()["self_s"].values()) - wall_s)


def run_selftest(tracer_cls) -> list[str]:
    from spinframe import field_equations, grids, reports, suites

    failures = []
    cfg = suites.SuiteConfig(seeds=2)
    plain = reports.render(suites.run_suite("factorization", cfg), "json")
    tracer = tracer_cls()
    with tracer:
        t0 = time.perf_counter()
        traced = reports.render(suites.run_suite("factorization", cfg), "json")
        wall = time.perf_counter() - t0
    failures += _compare("factorization seeds=2", predicted_factorization(2),
                         observed(tracer))
    if traced != plain:
        failures.append("factorization seeds=2: report differs with tracing on")
    gap = self_time_gap(tracer, wall)
    if gap > GAP_ALLOWED_S:
        failures.append(f"factorization seeds=2: self times miss wall time by {gap:.6f} s")

    spec = grids.periodic_spec(4, 2.0 * np.pi / 4, 3)
    values = np.zeros(spec.extents + (2,), dtype=complex)
    values[..., 0] = 1.0
    params = grids.ModelParams(m=1.0)
    tracer.reset(run_id=1)
    with tracer:
        field_equations.discrete_variational_derivative(
            "dirac", values, spec, params, [(1, 2, 3)])
    failures += _compare("one variational probe", predicted_probe(), observed(tracer))
    return failures


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from tracer import Tracer

    failures = run_selftest(Tracer)
    for f in failures:
        print(f"FAIL {f}")
    print("tracer self-test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
