"""Command-line driver.

Usage:
    spinframe run <suite> [--m M] [--seed S] [--A0 V] [--seeds K]
                  [--format json|csv] [--out PATH] [--include-runtime]

Every suite runs on its own fixed grids with its own fixed bounds.  Exit
code is 0 iff every report passes and 1 if one fails.  A configuration that
cannot be honoured exits 2 and any other package error, such as a report
that cannot be written, exits 3; both print ``error: ...`` and no report.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigInvalid, SpinframeError, UnknownSuite
from .reports import emit, render
from .suites import OPTIONS, SUITES, SuiteConfig, readers, run_suite


def _read_by(field: str) -> str:
    """Help text naming the suites that read an optional field, and their default."""
    defaults = readers(field)
    shared = set(defaults.values())
    default = str(shared.pop()) if len(shared) == 1 else "each suite's own"
    return (f"{OPTIONS[field][0]} of {', '.join(defaults)} (also under all; "
            f"default {default}); other suites reject it")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spinframe",
                                 description="numerical verification suites")
    sub = ap.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a verification suite")
    run.add_argument("suite", choices=SUITES)
    run.add_argument("--m", type=float, default=None, help=_read_by("m"))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--A0", dest="a0", type=float, default=None,
                     help=_read_by("a0"))
    run.add_argument("--seeds", type=int, default=None,
                     help=_read_by("seeds"))
    run.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    run.add_argument("--out", default=None, help="write the report to a file")
    run.add_argument("--include-runtime", action="store_true",
                     help="include wall-clock timings (breaks byte determinism)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = SuiteConfig(m=args.m, seed=args.seed, a0=args.a0, seeds=args.seeds)
        reports = run_suite(args.suite, cfg)
        if args.out:
            emit(reports, args.fmt, args.out, include_runtime=args.include_runtime)
        else:
            sys.stdout.write(render(reports, args.fmt, include_runtime=args.include_runtime))
    except (UnknownSuite, ConfigInvalid) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SpinframeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    for r in sorted(reports, key=lambda r: r.check_name):
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.check_name} max={r.max_abs_residual:.3e} tol={r.tolerance:.3e}",
              file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
