"""Every suite is benchmarked exactly once, or is listed as unbenchmarked.

perfbench/workloads.py names the suites each benchmark workload runs.  A
suite added to ``suites.TABLE`` runs under ``spinframe run all`` and in
tier-1 whatever the workloads say, so this test makes the choice explicit:
each suite is in exactly one workload, or in ``UNBENCHMARKED`` below, and
never in both.  The time of an unbenchmarked suite shows in
``run_suite("all")`` and in tier-1, in no BENCH file.  This test only reads
perfbench/.
"""

import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

from spinframe.suites import TABLE

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# suites that no benchmark workload runs
UNBENCHMARKED: frozenset[str] = frozenset()


@pytest.fixture
def workloads(monkeypatch) -> dict:
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sys.modules.pop("workloads", None)
    return importlib.import_module("workloads").WORKLOADS


def coverage_faults(suites, workloads, unbenchmarked) -> list[str]:
    """What breaks the rule, one line per suite; empty when it holds."""
    runs = Counter(name for w in workloads.values() for name in w.suites)
    faults = [f"{name}: in {runs[name]} workloads and "
              f"{'' if name in unbenchmarked else 'not '}unbenchmarked"
              for name in suites if runs[name] + (name in unbenchmarked) != 1]
    faults += [f"{name}: not a suite" for name in sorted(set(runs) | unbenchmarked)
               if name not in suites]
    return faults


def test_every_suite_is_in_one_workload_or_unbenchmarked(workloads):
    assert coverage_faults(TABLE, workloads, UNBENCHMARKED) == []


def test_a_suite_in_neither_or_in_both_is_a_fault(workloads):
    first = next(iter(workloads.values())).suites[0]
    assert coverage_faults([*TABLE, "dummy"], workloads, UNBENCHMARKED) \
        == ["dummy: in 0 workloads and not unbenchmarked"]
    assert coverage_faults(TABLE, workloads, UNBENCHMARKED | {first}) \
        == [f"{first}: in 1 workloads and unbenchmarked"]
