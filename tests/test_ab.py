"""tools/ab.py's verdicts on synthetic runs: claim_met, within_bound and the
--pairs parser."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

WALL = {"name": "wall_s", "better": "lower", "bound": 0.2}
RATIO = {"name": "check_pass_ratio", "better": "higher", "bound": 0.01}


def _run(**values):
    return {"metrics": {name: {"value": v} for name, v in values.items()}}


def _pairs(base, change, name="wall_s"):
    return [(_run(**{name: b}), _run(**{name: c})) for b, c in zip(base, change)]


def _wall(base, change):
    aa = (_run(wall_s=base[0]), _run(wall_s=base[0]))
    return ab.compare(_pairs(base, change), aa, [WALL])["wall_s"]


BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_a_clear_gain_meets_the_claim_and_the_bound():
    m = _wall(BASE, [0.8 * b for b in BASE])
    assert m["change_wins"] == 10
    assert m["claim_met"] and m["within_bound"]


def test_eight_wins_of_ten_do_not_meet_the_claim():
    change = [0.8 * b for b in BASE]
    change[0], change[1] = 1.1, 1.1
    m = _wall(BASE, change)
    assert m["change_wins"] == 8
    assert not m["claim_met"]
    assert m["within_bound"]


def test_nine_wins_inside_the_base_quartile_spread_do_not_meet_the_claim():
    change = [b - 0.001 for b in BASE]
    change[0] = 1.5
    m = _wall(BASE, change)
    assert m["change_wins"] == 9
    assert not m["gap_exceeds_base_iqr"]
    assert not m["claim_met"]


def test_pairs_with_a_failed_run_count_against_the_claim():
    # 12 pairs run, two change runs failed: 9 wins of the 10 left are 9 of 12
    base = BASE + [1.0, 1.0]
    pairs = _pairs(base, [0.8 * b for b in base])
    pairs[0] = (pairs[0][0], None)
    pairs[1] = (pairs[1][0], None)
    pairs[2] = (pairs[2][0], _run(wall_s=1.5))
    aa = (_run(wall_s=1.0), _run(wall_s=1.0))
    m = ab.compare(pairs, aa, [WALL])["wall_s"]
    assert m["change_wins"] == 9 and m["change_losses"] == 1 and m["ties"] == 0
    assert m["gap_exceeds_base_iqr"]
    assert not m["claim_met"]
    # the same ten pairs without the failed ones meet it
    assert ab.compare(pairs[2:], aa, [WALL])["wall_s"]["claim_met"]


def test_fewer_than_ten_pairs_meet_no_claim():
    m = _wall(BASE[:9], [0.5 * b for b in BASE[:9]])
    assert m["change_wins"] == 9
    assert not m["claim_met"]


@pytest.mark.parametrize("factor,within", [(1.19, True), (1.21, False)])
def test_within_bound_of_a_lower_is_better_metric(factor, within):
    base = [1.0] * 5
    assert _wall(base, [factor] * 5)["within_bound"] is within


@pytest.mark.parametrize("change,within", [(0.995, True), (0.98, False), (1.0, True)])
def test_within_bound_of_a_higher_is_better_metric(change, within):
    pairs = _pairs([1.0] * 5, [change] * 5, "check_pass_ratio")
    aa = (_run(check_pass_ratio=1.0), _run(check_pass_ratio=1.0))
    m = ab.compare(pairs, aa, [RATIO])["check_pass_ratio"]
    assert m["within_bound"] is within
    assert not m["claim_met"]


def test_parse_pairs():
    workloads = ["property-sweep", "exact-solutions", "large-grid"]
    assert ab.parse_pairs(["exact-solutions=10", "large-grid=5"], workloads) == {
        "exact-solutions": 10, "large-grid": 5}
    for bad in ("exact-solutions=1", "exact-solutions=x", "exact-solutions", "other=5"):
        with pytest.raises(SystemExit):
            ab.parse_pairs([bad], workloads)
