"""The benchmark's tracer contract holds on the current code.

perfbench/selftest.py predicts, from reading the code, exactly how often a
traced factorization run and one variational probe cross each layer
boundary (TrigPoly evaluations per bundle, SpinorBundle.rho reads, torsion
entries such as one torsion.dirac_term per alpha, ...), and requires
byte-identical reports with tracing on and off.  A change that moves a
traced boundary fails here, before it reaches the benchmark.  This test only
reads perfbench/.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_selftest_passes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracer", "selftest"):
        sys.modules.pop(name, None)
    tracer = importlib.import_module("tracer")
    selftest = importlib.import_module("selftest")
    assert selftest.run_selftest(tracer.Tracer) == []
