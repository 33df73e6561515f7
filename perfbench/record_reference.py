"""Record the reference residuals that the benchmark's output check uses.

Runs every suite of ``spinframe run all`` at its default configuration for
each seed 0..31 and writes ``reference.json`` next to this file:
the ``max_abs_residual`` of every check, by seed.  It was run once on the
commit the benchmark was introduced at; re-running it on a later commit
would defeat the check, which is there to catch residuals that drift.

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from spinframe import suites  # noqa: E402
from workloads import ALL_CHECKS, WORKLOADS  # noqa: E402

SEEDS = range(32)


def main() -> int:
    by_check = {name: {} for name in ALL_CHECKS}
    for seed in SEEDS:
        cfg = suites.SuiteConfig(seed=seed)
        for w in WORKLOADS.values():
            for suite in w.suites:
                for rep in suites.run_suite(suite, cfg):
                    by_check[rep.check_name][str(seed)] = rep.max_abs_residual
        print(f"seed {seed} recorded", file=sys.stderr, flush=True)
    doc = {
        "recorded_with": {"python": platform.python_version(),
                          "numpy": np.__version__},
        "residuals": by_check,
    }
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
