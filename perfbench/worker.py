"""One untraced pass of a workload in a fresh interpreter.

``run.py --trace 0`` starts one of these per pass, so that each pass pays
what a ``spinframe run`` process pays and process-to-process differences
(memory layout, placement on the shared cores) are averaged over passes
rather than fixed for a whole run.  ``hostspeed.SpeedProbe`` samples the
host's speed during the pass.  Prints one JSON line: the pass's wall, CPU
and per-suite times as measured, the mean probe time over the pass and
over each suite, the process's peak RSS, and the output-check failures.

    python3 perfbench/worker.py --workload large-grid --seed 3
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    from checks import check_reports, load_reference
    from hostspeed import SpeedProbe
    from spinframe import SuiteConfig
    from workloads import WORKLOADS, run_pass

    workload = WORKLOADS[args.workload]
    with SpeedProbe() as speed:
        p = run_pass(workload, SuiteConfig(seed=args.seed))
    failures = check_reports(p["reports"], workload.checks, load_reference(), args.seed)
    print(json.dumps({
        "wall_s": p["wall_s"], "cpu_s": p["cpu_s"], "suite_s": p["suite_s"],
        "probe_s": speed.mean_s(), "probes": len(speed.samples),
        "suite_probe_s": {name: speed.mean_s(start, start + p["suite_s"][name])
                          for name, start in p["suite_start"].items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failures": failures,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
