"""A/B benchmark of the working tree against HEAD; writes BENCH_<label>.json.

    python3 tools/ab.py --label my-change --seed 201 \
        --pairs property-sweep=10 exact-solutions=5 large-grid=5 \
        --traced property-sweep

Both sides run from copies side by side under one temporary directory, so
that the checkout's location does not enter the comparison: ``base/`` is
``git archive`` of HEAD, ``change/`` is every file of the working tree that
git tracks or would track.  Each run is one ``perfbench/run.py --trace 0``
of the copy, with the benchmark's ``run_seconds``.  A workload named in
``--traced`` also gets one ``--trace 1`` run per side after its pairs, at
the seed after the last pair; the output puts each per-layer metric of
the two runs side by side.

Per workload it first runs one A/A pair: the base tree from both
directories (``change/`` holds a second copy of the base until the pair is
done).  It then runs the requested number of base/change pairs,
alternating which side runs first; pair i uses seed ``--seed + i`` on both
sides.  For every end-to-end metric of ``BENCHMARK.json`` the output gives
each side's median and quartiles (``statistics.quantiles(n=4)``), the
change's wins, losses and ties over the pairs in which both runs
succeeded (ties count for neither),
whether the gap between the medians exceeds the base's quartile spread, the
A/A spread |b/a - 1| next to the A/B median ratio, and every run's
provenance line.  A difference inside the A/A spread means no difference.
It also states two verdicts per metric: ``claim_met``, a claimed gain
holds (at least 10 pairs, the change better in at least 9 of each 10 pairs
run, where a pair with a failed run is no win, and
its median better than the base's by more than the base's quartile
spread), and ``within_bound``, the change's median is no worse than the
base's by more than the metric's bound (``base * (1 + bound)`` for a
lower-is-better metric, ``base * (1 - bound)`` for a higher-is-better one).

Nothing outside the temporary directory and the output file, at the top
of the repository, is written.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_base(rev: str, dest: Path) -> None:
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def export_working_tree(dest: Path) -> None:
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir()
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        src = ROOT / name.decode()
        if name and src.is_file():
            target = dest / name.decode()
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, target)


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One ``run.py --trace {0,1}`` of the tree: its result and provenance
    lines, or ``{"error": ...}`` when the run exited without them."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        return {"error": f"exit {out.returncode}: {out.stderr.strip()[-500:]}"}
    return json.loads(lines[-1]) | json.loads(lines[-2])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


CLAIM_MIN_PAIRS = 10


def compare(pairs: list[tuple[dict | None, dict | None]], aa: tuple[dict, dict],
            metrics: list[dict]) -> dict:
    """Per metric: both sides' summaries, the change's win count, the A/A
    spread and the two verdicts, over every pair of (base run, change run)
    that was run, a failed run being None.  Summaries, wins and losses come
    from the pairs in which both runs succeeded; the claim counts its wins
    against every pair run, so a pair with a failed run is no win."""
    ok = [(b, c) for b, c in pairs if b and c]
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [b["metrics"][name]["value"] for b, _ in ok]
        change = [c["metrics"][name]["value"] for _, c in ok]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        losses = sum((c > b) if lower else (c < b) for b, c in zip(base, change))
        sb, sc = summarize(base), summarize(change)
        gain = (sb["median"] - sc["median"]) if lower else (sc["median"] - sb["median"])
        limit = sb["median"] * (1 + m["bound"] if lower else 1 - m["bound"])
        a, b = (r["metrics"][name]["value"] for r in aa)
        out[name] = {
            "better": m["better"], "bound": m["bound"], "base": sb, "change": sc,
            "change_wins": wins, "change_losses": losses, "ties": len(base) - wins - losses,
            "median_ratio": sc["median"] / sb["median"] if sb["median"] else None,
            "gap_exceeds_base_iqr": abs(sc["median"] - sb["median"]) > sb["q3"] - sb["q1"],
            "claim_met": (len(pairs) >= CLAIM_MIN_PAIRS and 10 * wins >= 9 * len(pairs)
                          and gain > sb["q3"] - sb["q1"]),
            "within_bound": sc["median"] <= limit if lower else sc["median"] >= limit,
            "aa": {"first": a, "second": b, "spread": abs(b / a - 1) if a else None},
        }
    return out


def parse_pairs(items: list[str], workloads: list[str]) -> dict[str, int]:
    out = {}
    for item in items:
        name, _, n = item.partition("=")
        if name not in workloads or not n.isdigit() or int(n) < 2:
            raise SystemExit(f"--pairs takes WORKLOAD=N with N >= 2 and WORKLOAD one of "
                             f"{', '.join(workloads)}; got {item!r}")
        out[name] = int(n)
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="output is BENCH_<label>.json")
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=N")
    ap.add_argument("--traced", nargs="+", default=[], choices=workloads, metavar="WORKLOAD",
                    help="workloads that also get one --trace 1 run per side")
    ap.add_argument("--tmp", default=None, help="parent of the temporary directory")
    args = ap.parse_args(argv)
    pairs_wanted = parse_pairs(args.pairs, workloads)
    if set(args.traced) - set(pairs_wanted):
        ap.error("--traced names a workload without --pairs")
    seconds = bench["run_seconds"]
    base_commit = git("rev-parse", "HEAD").decode().strip()

    runs, result = [], {}
    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        base, change = Path(tmp) / "base", Path(tmp) / "change"
        export_base(base_commit, base)

        def record(workload, side, tree, seed, pair, trace=0):
            res = run_once(tree, workload, seed, seconds, trace)
            runs.append({"workload": workload, "side": side, "pair": pair, "seed": seed, **res})
            ok = "error" not in res and res["correct"]
            print(f"{workload} pair {pair} {side} seed {seed}: " + (
                " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                if ok else f"FAILED {res.get('error', 'output check')}"), flush=True)
            return res if ok else None

        for workload, n in pairs_wanted.items():
            export_base(base_commit, change)
            aa = (record(workload, "aa-base", base, args.seed, -1),
                  record(workload, "aa-copy", change, args.seed, -1))
            export_working_tree(change)
            pairs = []
            for i in range(n):
                seed = args.seed + i
                order = [("base", base), ("change", change)]
                if i % 2:
                    order.reverse()
                got = {side: record(workload, side, tree, seed, i) for side, tree in order}
                pairs.append((got["base"], got["change"]))
            done = sum(1 for b, c in pairs if b and c)
            result[workload] = {"pairs": n, "pairs_ok": done,
                                "seeds": [args.seed + i for i in range(n)]}
            if done >= 2 and all(aa):
                result[workload]["metrics"] = compare(pairs, aa, bench["end_to_end"])
            if workload in args.traced:
                seed = args.seed + n
                traced = {side: record(workload, f"{side}-traced", tree, seed, n, trace=1)
                          for side, tree in (("base", base), ("change", change))}
                if all(traced.values()):
                    result[workload]["traced"] = {"seed": seed, "metrics": {
                        name: {side: traced[side]["metrics"][name]["value"] for side in traced}
                        for name in traced["base"]["metrics"]}}

    doc = {
        "label": args.label,
        "about": ("tools/ab.py: base and change copied side by side, one A/A pair "
                  "(the base from both directories) per workload, then alternated "
                  f"pairs of perfbench/run.py --trace 0 --seconds {seconds}; times at "
                  "reference speed; quartiles by statistics.quantiles(n=4, inclusive); "
                  "per-layer metrics of --trace 1 runs as measured"),
        "base_commit": base_commit,
        "change": "working tree",
        "workloads": result,
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for workload, r in result.items():
        for name, m in r.get("metrics", {}).items():
            print(f"{workload:16s} {name:18s} base {m['base']['median']:.4g} "
                  f"change {m['change']['median']:.4g} ratio {m['median_ratio']:.3f} "
                  f"wins {m['change_wins']}/{r['pairs_ok']} A/A {m['aa']['spread']:.3f} "
                  f"gap>IQR {m['gap_exceeds_base_iqr']} claim_met {m['claim_met']} "
                  f"within_bound {m['within_bound']}")
        for name, v in r.get("traced", {}).get("metrics", {}).items():
            print(f"{workload:16s} traced {name:38s} base {v['base']:.4g} "
                  f"change {v['change']:.4g}")
    print(f"wrote {path}")
    failed = sum(1 for r in runs if "error" in r or not r["correct"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
