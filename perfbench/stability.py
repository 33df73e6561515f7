"""Run every workload on seeds 1-10, twice, and report the spread and drift.

Runs ``run.py --trace 0`` once per seed and workload, in two sets one after
the other, as the benchmark's acceptance check does.  For every end-to-end
metric it gives, per set, the median of the per-run values, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to the metric's bound from ``BENCHMARK.json``, and the drift, set 2
median / set 1 median - 1.  With ``--out`` it writes all of it, with the
machine's provenance, as JSON (``baseline.json`` was written so).

    python3 perfbench/stability.py [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from show import ROOT, run_once

SEEDS = range(1, 11)
SETS = ("set1", "set2")
MACHINE_KEYS = ("git_commit", "source_sha256", "python", "numpy", "scipy", "nproc",
                "affinity", "cpu_model", "caches", "thread_env")


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the summary as JSON")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    values = {s: {name: {} for name in names} for s in SETS}
    machine, ok = {}, True
    for s in SETS:
        for name in names:
            for seed in SEEDS:
                res = run_once(name, seed, bench["run_seconds"], 0)
                if res is None or not res["correct"]:
                    print(f"{s} {name} seed {seed}: run failed or incorrect", file=sys.stderr)
                    ok = False
                    continue
                machine = machine or {k: res["provenance"][k] for k in MACHINE_KEYS}
                for metric, m in res["metrics"].items():
                    values[s][name].setdefault(metric, []).append(m["value"])
                print(f"{s} {name} seed {seed}: " + " ".join(
                    f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()), flush=True)
    summary = {"about": f"run.py --trace 0, run_seconds {bench['run_seconds']}, seeds "
                        f"{SEEDS.start}-{SEEDS.stop - 1}, two sets run one after the other; "
                        "spread = (q3 - q1) / median, drift = set2 median / set1 median - 1",
               "machine": machine, "workloads": {}}
    for name in names:
        per_metric = summary["workloads"][name] = {}
        for metric in values["set1"][name]:
            sets = {s: summarize(values[s][name][metric]) | {"values": values[s][name][metric]}
                    for s in SETS if values[s][name].get(metric)}
            drift = (sets["set2"]["median"] / sets["set1"]["median"] - 1
                     if len(sets) == 2 and sets["set1"]["median"] else 0.0)
            per_metric[metric] = sets | {"drift": drift}
            flag = "" if all(v["spread"] <= bounds[metric] / 3 for v in sets.values()) \
                else "  <-- above bound/3"
            print(f"{name:16s} {metric:18s} " + " ".join(
                f"{s}: median {v['median']:.5g} spread {v['spread']:.4f}" for s, v in sets.items())
                + f" drift {drift:+.4f} bound {bounds[metric]}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
