"""The benchmark's output check holds on the large-grid and exact-solutions
workloads and on the kk-decomposition suite at seed 0.

perfbench/checks.py compares every residual with the value recorded in
perfbench/reference.json and allows roundoff-level drift only (ten times
the recorded residual for checks that are zero in exact arithmetic).  The
suites' own tolerances are far looser (1e-9 for separation), so this catches
a roundoff regression in the separation and torsion-route kernels that the
suite verdicts would let through.  On exact-solutions the variational-gradient
residual is roundoff-dominated, so the check's allowance is the only guard on
the theorem1 oracle and the bundle kernels under it.  These tests only read
perfbench/.
"""

import importlib
import sys
from pathlib import Path

from spinframe import SuiteConfig, run_suite

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_large_grid_outputs_match_reference(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("workloads", "checks"):
        sys.modules.pop(name, None)
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    workload = workloads.WORKLOADS["large-grid"]
    result = workloads.run_pass(workload, SuiteConfig(seed=0))
    assert checks.check_reports(result["reports"], workload.checks,
                                checks.load_reference(), 0) == []


def test_exact_solutions_outputs_match_reference(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("workloads", "checks"):
        sys.modules.pop(name, None)
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    workload = workloads.WORKLOADS["exact-solutions"]
    result = workloads.run_pass(workload, SuiteConfig(seed=0))
    assert checks.check_reports(result["reports"], workload.checks,
                                checks.load_reference(), 0) == []


def test_kk_decomposition_outputs_match_reference(monkeypatch):
    # both routes of the Kaluza-Klein split (the coframe wedge over the
    # extended frame, the spinor contractions) against the recorded residual
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sys.modules.pop("checks", None)
    checks = importlib.import_module("checks")
    reports = run_suite("kk-decomposition", SuiteConfig(seed=0))
    assert checks.check_reports(reports, ["kk-decomposition-analytic"],
                                checks.load_reference(), 0) == []
