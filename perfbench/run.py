"""spinframe benchmark: run one workload's verification suites end to end.

    python3 perfbench/run.py --workload property-sweep --seed 1 --seconds 36 --trace 0

A pass calls ``spinframe.suites.run_suite`` for every suite of the workload
at its default configuration, with ``SuiteConfig.seed`` set to ``--seed``,
then ``spinframe.reports.render`` on all reports: the same public calls
``spinframe run`` makes.  Passes run back to back (a closed loop, one
client, one thread) while another pass still fits in ``--seconds``; at
least one runs.  The output check of ``checks.py`` follows every pass.

``--trace 0`` runs each pass in a fresh interpreter (``worker.py``) and
reports the end-to-end metrics: medians over the passes of wall and CPU
time, of the two named suites' wall times and of peak RSS, the median
set-up time of several more interpreters that only import spinframe, and
the share of checks that passed.  Every time is given at the host's
reference speed (``hostspeed.py``): scaled by the host-speed probes taken
during that pass or suite, or right after that import.  The medians as
measured are in the provenance line.

``--trace 1`` runs the tracer self-test, then alternates untraced and
traced passes in this process and reports per-layer self times, entry
counts and work counters, and the tracing overhead.  The spans of the
last traced pass are written to ``.perfbench_out/``.

The last line of standard output is the JSON result; the line before it
holds the provenance and the sample count behind each median.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 11
SETUP_PROBES = 10
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150

_SETUP_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import spinframe\n"
    "cfg = spinframe.SuiteConfig(seed=int(sys.argv[1]))\n"
    "setup_s = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import statistics, hostspeed\n"
    "probe_s = statistics.fmean(hostspeed.probe() for _ in range(int(sys.argv[3])))\n"
    "print(repr(setup_s), repr(probe_s))\n"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description="spinframe suite benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def measure_setup(seed: int) -> list[tuple[float, float]]:
    """Import time of spinframe in fresh interpreters, one sample each,
    with the mean host-speed probe time taken right after the import."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(seed), str(HERE),
                              str(SETUP_PROBES)],
                             env=env, cwd=ROOT, capture_output=True, text=True,
                             timeout=SETUP_TIMEOUT_S, check=True)
        setup_s, probe_s = map(float, out.stdout.split())
        samples.append((setup_s, probe_s))
    return samples


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced_totals: list, counts, overhead_s: float) -> dict:
    """Per-layer metrics: medians of the traced passes' times, and counts
    (identical in every traced pass of one seed)."""
    def med(kind, layer):
        return statistics.median(t[kind][layer] for t in traced_totals)

    calls = traced_totals[-1]["calls"]
    m = {
        "sampling.self_s": (med("self_s", "sampling"), "s"),
        "sampling.calls": (calls["sampling"], "count"),
        "sampling.mode_points": (counts["sampling.mode_points"], "count"),
        "sampling.evals_per_bundle": (
            _ratio(counts["sampling.bundle_evals"], counts["sampling.bundles"]), "evals/bundle"),
        "torsion.self_s": (med("self_s", "torsion"), "s"),
        "torsion.calls": (calls["torsion"], "count"),
        "lagrangians.self_s": (med("self_s", "lagrangians"), "s"),
        "lagrangians.calls": (calls["lagrangians"], "count"),
        "grids.rho_evals": (counts["grids.rho_evals"], "count"),
        "grids.rho_evals_per_field": (
            _ratio(counts["grids.rho_evals"], counts["grids.bundles"]), "reads/bundle"),
        "suites.self_s": (med("self_s", "suites"), "s"),
        "field_equations.self_s": (med("self_s", "field_equations"), "s"),
        "field_equations.calls": (calls["field_equations"], "count"),
        "field_equations.inclusive_s": (med("inclusive_s", "field_equations"), "s"),
        "field_equations.action_evals": (counts["field_equations.action_evals"], "count"),
        "field_equations.action_evals_per_probe": (
            _ratio(counts["field_equations.action_evals"], counts["field_equations.probes"]),
            "evals/probe"),
        "grids.fft_calls": (counts["grids.fft_calls"], "count"),
        "grids.self_s": (med("self_s", "grids"), "s"),
        "grids.calls": (calls["grids"], "count"),
        "grids.bytes_computed": (counts["grids.bytes_computed"], "bytes"),
        "algebra.self_s": (med("self_s", "algebra"), "s"),
        "algebra.calls": (calls["algebra"], "count"),
        "plane_waves.self_s": (med("self_s", "plane_waves"), "s"),
        "plane_waves.calls": (calls["plane_waves"], "count"),
        "variational.self_s": (med("self_s", "variational"), "s"),
        "variational.calls": (calls["variational"], "count"),
        "reports.self_s": (med("self_s", "reports"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return m


def write_spans(tracer, workload: str, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.csv.gz"
    with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("index", "name", "start_s", "end_s", "parent", "run_id"))
        for i, (name, start, end, parent, run_id) in enumerate(tracer.spans):
            w.writerow((i, name, repr(start), repr(end), parent, run_id))
    return path


def _cpu_info() -> dict:
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": platform.processor() or None, "caches": {}}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        info["caches"][f"L{level} {kind}"] = size
    return info


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(args, workload, samples: dict) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "spinframe").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, **_cpu_info(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "suite_s.primary": workload.primary, "suite_s.secondary": workload.secondary,
        "samples": samples,
    }


class Outcome:
    """Output-check tally of one benchmark run."""

    def __init__(self, workload, reference: dict, seed: int):
        self.workload, self.reference, self.seed = workload, reference, seed
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def verify(self, p) -> None:
        """Output check of a pass run in this process."""
        from checks import check_reports

        self.record(check_reports(p["reports"], self.workload.checks,
                                  self.reference, self.seed))

    def record(self, failures: list[str]) -> None:
        """Tally the output check of one pass."""
        self.attempted += len(self.workload.checks)
        self.failed += min(len(failures), len(self.workload.checks))
        self.problems.extend(failures)

    def require(self, ok: bool, problem: str) -> None:
        """One check of the tracer itself."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def repeat_within(seconds: float, body) -> None:
    """Call ``body`` once, then again while another call of the mean length
    so far still ends within ``seconds``; a run never overruns its budget
    by more than its first call."""
    start, n = time.perf_counter(), 0
    while True:
        body()
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / n > seconds:
            return


def run_worker(workload, seed: int) -> dict:
    """One pass in a fresh interpreter (``worker.py``)."""
    out = subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload",
                          workload.name, "--seed", str(seed)],
                         cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        raise RuntimeError(f"worker exited with code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def end_to_end(workload, cfg, seconds: float, outcome: Outcome) -> tuple:
    from hostspeed import at_reference

    setup = measure_setup(cfg.seed)
    passes = []

    def one_pass():
        passes.append(run_worker(workload, cfg.seed))
        outcome.record(passes[-1]["failures"])

    repeat_within(seconds, one_pass)
    med = statistics.median
    times = {
        "wall_s": [(p["wall_s"], p["probe_s"]) for p in passes],
        "cpu_s": [(p["cpu_s"], p["probe_s"]) for p in passes],
        "setup_s": setup,
        "suite_s.primary": [(p["suite_s"][workload.primary],
                             p["suite_probe_s"][workload.primary]) for p in passes],
        "suite_s.secondary": [(p["suite_s"][workload.secondary],
                               p["suite_probe_s"][workload.secondary]) for p in passes],
    }
    metrics = {name: (med(at_reference(t, probe) for t, probe in pairs), "s")
               for name, pairs in times.items()}
    metrics["peak_rss_mb"] = (med(p["peak_rss_mb"] for p in passes), "MB")
    metrics["check_pass_ratio"] = (1.0 - outcome.failed / outcome.attempted, "ratio")
    return metrics, {
        "passes": len(passes), "setup": len(setup),
        "probes": sum(p["probes"] for p in passes) + SETUP_PROBES * len(setup),
        "probe_s": med(probe for _, probe in times["wall_s"] + setup),
        "as_measured": {name: med(t for t, _ in pairs) for name, pairs in times.items()},
    }


def per_layer(workload, cfg, seconds: float, outcome: Outcome) -> tuple:
    from selftest import GAP_ALLOWED_S, run_selftest, self_time_gap
    from tracer import Tracer
    from workloads import run_pass

    problems = run_selftest(Tracer)
    outcome.require(not problems, "tracer self-test: " + "; ".join(problems))
    tracer = Tracer()
    plain, traced, totals = [], [], []
    counts = None

    def one_pair():
        nonlocal counts
        plain.append(run_pass(workload, cfg))
        outcome.verify(plain[-1])
        tracer.reset(run_id=len(traced))
        with tracer:
            traced.append(run_pass(workload, cfg))
        outcome.verify(traced[-1])
        totals.append(tracer.layer_totals())
        gap = self_time_gap(tracer, traced[-1]["wall_s"])
        outcome.require(gap <= GAP_ALLOWED_S,
                        f"layer self times miss the traced wall time by {gap:.6f} s")
        outcome.require(traced[-1]["text"] == plain[-1]["text"],
                        "rendered report differs with tracing on")
        seen = (dict(tracer.counts), totals[-1]["calls"])
        outcome.require(counts is None or seen == counts,
                        "traced counts differ between passes of one seed")
        counts = seen

    repeat_within(seconds, one_pair)
    overhead = (statistics.median(t["wall_s"] for t in traced)
                - statistics.median(p["wall_s"] for p in plain))
    metrics = layer_metrics(totals, tracer.counts, overhead)
    spans = write_spans(tracer, workload.name, cfg.seed)
    return metrics, {"passes": len(plain), "traced_passes": len(traced),
                     "spans_file": str(spans.relative_to(ROOT))}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinframe" / "__init__.py").is_file():
        print(f"error: no spinframe sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:           # one process, one thread
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))

    from checks import load_reference
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    outcome = Outcome(workload, load_reference(), args.seed)

    import spinframe

    cfg = spinframe.SuiteConfig(seed=args.seed)
    measure = per_layer if args.trace else end_to_end
    metrics, samples = measure(workload, cfg, args.seconds, outcome)
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(args, workload, samples)}))
    print(json.dumps({"correct": not outcome.problems, "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
