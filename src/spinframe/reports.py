"""Machine-readable check reports.

JSON output is versioned ("schema": 1) and field order is fixed, so two
runs with the same configuration and seed produce byte-identical files.
Wall-clock timings are recorded on every report but excluded from emitted
files by default, since timings are the one field that cannot be
deterministic.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .errors import IoError, require_choice

SCHEMA_VERSION = 1

_PARAM_ORDER = ("m", "r", "s", "A", "seed")


@dataclass
class CheckReport:
    check_name: str
    params: dict
    max_abs_residual: float
    rms_residual: float
    tolerance: float
    passed: bool
    runtime_ms: int

    def to_dict(self, include_runtime: bool = False) -> dict:
        d = {
            "check_name": self.check_name,
            "params": {k: self.params.get(k) for k in _PARAM_ORDER},
            "max_abs_residual": self.max_abs_residual,
            "rms_residual": self.rms_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        if include_runtime:
            d["runtime_ms"] = self.runtime_ms
        return d


def make_report(check_name: str, params: dict, max_abs: float, rms: float,
                tolerance: float, runtime_ms: int) -> CheckReport:
    return CheckReport(check_name, params, float(max_abs), float(rms),
                       float(tolerance), bool(max_abs <= tolerance), runtime_ms)


def render(reports, fmt: str = "json", include_runtime: bool = False) -> str:
    require_choice("format", fmt, ("json", "csv"))
    reports = sorted(reports, key=lambda r: r.check_name)
    if fmt == "json":
        doc = {"schema": SCHEMA_VERSION,
               "reports": [r.to_dict(include_runtime) for r in reports]}
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"
    buf = io.StringIO()
    cols = ["check_name", *_PARAM_ORDER, "max_abs_residual", "rms_residual",
            "tolerance", "pass"]
    if include_runtime:
        cols.append("runtime_ms")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(cols)
    for r in reports:
        row = [r.check_name, *(r.params.get(k) for k in _PARAM_ORDER),
               repr(r.max_abs_residual), repr(r.rms_residual),
               repr(r.tolerance), r.passed]
        if include_runtime:
            row.append(r.runtime_ms)
        w.writerow(row)
    return buf.getvalue()


def emit(reports, fmt: str, path, include_runtime: bool = False) -> None:
    text = render(reports, fmt, include_runtime)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise IoError(f"cannot write report to {path}: {e}") from e

