"""Print every end-to-end and per-layer metric of every workload.

Runs ``run.py`` once per workload with ``--trace 0`` (end-to-end metrics)
and once with ``--trace 1`` (per-layer metrics), on seed 0 (the suites'
default seed) for ``run_seconds`` of ``BENCHMARK.json``, prints one line
per metric with its unit, and exits non-zero if any run fails its output
check.

    python3 perfbench/show.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900
SEED = 0


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    """The result line of one ``run.py`` run, with its provenance added
    under ``"provenance"``; None if the run failed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S)
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        return None
    return json.loads(lines[-1]) | json.loads(lines[-2])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in bench["workloads"]:
        for trace in (0, 1):
            res = run_once(w["name"], SEED, bench["run_seconds"], trace)
            if res is None:
                print(f"{w['name']:16s} trace={trace} run failed")
                ok = False
                continue
            ok = ok and res["correct"] and res["failed"] == 0
            print(f"{w['name']:16s} trace={trace} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"{w['name']:16s} {name:40s} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
