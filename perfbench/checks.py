"""Output check: every check of a pass must be present, pass, be finite and
match the residual recorded in ``reference.json`` to within roundoff.

Allowances (``eps`` is the float64 machine epsilon, 2.22e-16):

* exact  - counts (``theorem1-never-inconsistent``,
  ``ode-example-lemma-branches``): the residual equals the reference.
* truncation - residuals that measure a discretisation error, not zero in
  exact arithmetic (``torsion-two-routes-refinement``,
  ``ode-example-stencil``): ``|res - ref| <= 1e-3 |ref| + 100 eps``.  The
  stencil residual's own roundoff floor is about eps / h^2 ~ 1e-3 of it.
* roundoff - every other check, zero in exact arithmetic:
  ``|res - ref| <= 9 |ref| + 10 eps``, i.e. the residual may grow to
  ``10 |ref| + 10 eps``: ten times the recorded roundoff level, or 10 eps
  where the reference itself is a few eps.

The reference holds seeds 0..31.  For another seed, a check whose residual
does not depend on the seed uses its single recorded value; a seed-dependent
check is held to the recorded range: ``res <= 10 max + 10 eps`` (roundoff)
or ``min / 2 <= res <= 2 max`` (truncation).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

EPS = 2.220446049250313e-16
EXACT = frozenset({"theorem1-never-inconsistent", "ode-example-lemma-branches"})
TRUNCATION = frozenset({"torsion-two-routes-refinement", "ode-example-stencil"})


def load_reference(path: Path | None = None) -> dict:
    path = path or Path(__file__).resolve().parent / "reference.json"
    return json.loads(path.read_text())["residuals"]


def _residual_ok(name: str, res: float, recorded: dict, seed: int) -> bool:
    values = list(recorded.values())
    if str(seed) in recorded or len(set(values)) == 1:
        ref = recorded.get(str(seed), values[0])
        if name in EXACT:
            return res == ref
        if name in TRUNCATION:
            return abs(res - ref) <= 1e-3 * abs(ref) + 100 * EPS
        return abs(res - ref) <= 9 * abs(ref) + 10 * EPS
    if name in EXACT:
        return False
    if name in TRUNCATION:
        return min(values) / 2 <= res <= 2 * max(values)
    return res <= 10 * max(values) + 10 * EPS


def check_reports(reports, expected_names, reference: dict, seed: int) -> list[str]:
    """Return one failure message per expected check that does not hold."""
    by_name = {}
    for rep in reports:
        by_name.setdefault(rep.check_name, []).append(rep)
    failures = []
    for name in expected_names:
        found = by_name.get(name, [])
        if len(found) != 1:
            failures.append(f"{name}: reported {len(found)} times, expected once")
            continue
        rep = found[0]
        res = rep.max_abs_residual
        if not math.isfinite(res):
            failures.append(f"{name}: non-finite residual {res!r}")
        elif not rep.passed:
            failures.append(f"{name}: FAIL, residual {res!r} > tol {rep.tolerance!r}")
        elif not _residual_ok(name, res, reference[name], seed):
            failures.append(f"{name}: residual {res!r} does not match the reference "
                            f"for seed {seed}")
    extra = sorted(set(by_name) - set(expected_names))
    if extra:
        failures.append(f"unexpected checks: {', '.join(extra)}")
    return failures
