import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from spinframe.cli import build_parser, main
from spinframe.errors import (
    ConfigInvalid,
    SpinframeError,
    UnknownOption,
    UnknownSuite,
    require_mass,
)
from spinframe.grids import ModelParams
from spinframe.plane_waves import PlaneWaveLabel, boosted_amplitude
from spinframe.reports import render
from spinframe.suites import SuiteConfig, readers, run_suite


def test_run_table1_exit_zero(capsys):
    assert main(["run", "table1", "--A0", "0.25"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert all(r["pass"] for r in doc["reports"])


def test_invalid_a0_exit_two(capsys):
    assert main(["run", "table1", "--A0", "0.0"]) == 2


def test_unknown_suite_rejected():
    with pytest.raises(UnknownSuite):
        run_suite("no-such-suite")


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        SuiteConfig(m=-1.0)


@pytest.mark.parametrize("argv", [
    ["factorization", "--seeds", "-1"],
    ["separation", "--seeds", "-2"],
    ["kk-decomposition", "--seeds", "0"],
    ["coframe", "--seeds", "-3"],
    ["coframe", "--seed", "-1"],
    ["coframe", "--m", "inf"],
    ["plane-waves", "--m", "nan"],
    ["plane-waves", "--A0", "5"],
    ["plane-waves", "--A0", "-0.25"],
    ["table1", "--A0", "nan"],
], ids=" ".join)
def test_unhonourable_config_exit_two(capsys, argv):
    # each of these used to pass having checked nothing, run another
    # configuration, or end in a raw traceback
    assert main(["run", *argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("suite", ["theorem1", "plane-waves", "table1", "appendix-b",
                                   "torsion-routes"])
def test_seed_count_rejected_by_suites_that_read_none(capsys, suite):
    assert main(["run", suite, "--seeds", "5"]) == 2
    assert "reads no seed count" in capsys.readouterr().err
    with pytest.raises(ConfigInvalid):
        run_suite(suite, SuiteConfig(seeds=5))


@pytest.mark.parametrize("suite", ["coframe", "torsion-routes", "kk-decomposition",
                                   "factorization", "separation", "theorem1", "appendix-b"])
def test_a0_rejected_by_suites_that_read_none(capsys, suite):
    assert main(["run", suite, "--A0", "0.25"]) == 2
    assert "reads no A0" in capsys.readouterr().err
    with pytest.raises(ConfigInvalid):
        run_suite(suite, SuiteConfig(a0=0.25))


@pytest.mark.parametrize("suite", ["coframe", "kk-decomposition", "appendix-b"])
def test_mass_rejected_by_suites_that_read_none(capsys, suite):
    assert main(["run", suite, "--m", "1.3"]) == 2
    assert "reads no mass" in capsys.readouterr().err
    with pytest.raises(ConfigInvalid):
        run_suite(suite, SuiteConfig(m=1.3))


# The checks of each suite; test_report_params_are_null_where_the_suite_reads_none
# keeps this list equal to what run all reports.
_CHECKS = {
    "coframe": ("coframe-correspondence",),
    "torsion-routes": ("torsion-two-routes-analytic", "torsion-two-routes-refinement"),
    "kk-decomposition": ("kk-decomposition-analytic",),
    "factorization": ("factorization-identity",),
    "separation": ("separation-of-variables",),
    "theorem1": ("theorem1-field-equation", "theorem1-variational-gradient",
                 "theorem1-never-inconsistent"),
    "plane-waves": ("plane-wave-dirac-solutions",),
    "table1": ("state-table-classification",),
    "appendix-b": ("ode-example-analytic", "ode-example-stencil", "ode-example-lemma-branches"),
}
_SUITE_OF = {check: suite for suite, checks in _CHECKS.items() for check in checks}


def test_mass_is_handed_to_its_readers_under_all(capsys):
    assert main(["run", "all", "--m", "1.3", "--seeds", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for r in doc["reports"]:
        read = _SUITE_OF[r["check_name"]] in readers("m")
        assert r["params"]["m"] == (1.3 if read else None)


def test_report_params_are_null_where_the_suite_reads_none(capsys):
    assert main(["run", "table1", "--seed", "3"]) == 0
    (rep,) = json.loads(capsys.readouterr().out)["reports"]
    assert rep["params"]["seed"] is None and rep["params"]["m"] == 1.0
    assert main(["run", "all", "--seed", "3", "--seeds", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(_SUITE_OF) == [r["check_name"] for r in doc["reports"]]
    no_seed = {"plane-waves", "table1", "appendix-b"}
    no_mass = {"coframe", "kk-decomposition", "appendix-b"}
    for r in doc["reports"]:
        suite = _SUITE_OF[r["check_name"]]
        assert r["params"]["seed"] == (None if suite in no_seed else 3)
        assert r["params"]["m"] == (None if suite in no_mass else 1.0)


def test_mass_defaults_to_one_where_it_is_read():
    assert SuiteConfig().m is None
    for suite in ("coframe", "appendix-b"):
        doc = json.loads(render(run_suite(suite, SuiteConfig()), "json"))
        assert all(r["params"]["m"] is None for r in doc["reports"])
    for suite in ("plane-waves", "table1"):
        doc = json.loads(render(run_suite(suite, SuiteConfig()), "json"))
        assert all(r["params"]["m"] == 1.0 for r in doc["reports"])
        assert render(run_suite(suite, SuiteConfig()), "json") \
            == render(run_suite(suite, SuiteConfig(m=1.0)), "json")


def test_a0_defaults_to_a_quarter_where_it_is_read():
    for suite in ("plane-waves", "table1"):
        assert render(run_suite(suite, SuiteConfig()), "json") \
            == render(run_suite(suite, SuiteConfig(a0=0.25)), "json")
    assert SuiteConfig().a0 is None


@pytest.mark.parametrize("m", [float("nan"), float("inf"), 0.0])
def test_model_params_reject_non_finite_or_non_positive_mass(m):
    with pytest.raises(ValueError):
        ModelParams(m=m)


@pytest.mark.parametrize("make,error", [
    (lambda: ModelParams(m=-1.0), ConfigInvalid),
    (lambda: PlaneWaveLabel(2, 1, 1.0, 0.0), UnknownOption),
    (lambda: PlaneWaveLabel(1, 1, 1.0, 1.5), ConfigInvalid),
    (lambda: boosted_amplitude(np.array([2.0, 0.0, 0.0]), 1, 1.0), ConfigInvalid),
    (lambda: PlaneWaveLabel(1, 1, float("inf"), 0.0), ConfigInvalid),
    (lambda: PlaneWaveLabel(1, 1, 1.0, "0.25"), ConfigInvalid),
    (lambda: SuiteConfig(m="1.0"), ConfigInvalid),
    (lambda: SuiteConfig(a0="0.25"), ConfigInvalid),
    (lambda: SuiteConfig(m=1 + 0j), ConfigInvalid),
    (lambda: ModelParams(m="1"), ConfigInvalid),
], ids=["mass", "plane-wave-sign", "plane-wave-A0", "off-shell-momentum",
        "plane-wave-infinite-mass", "plane-wave-string-A0", "string-mass", "string-A0",
        "complex-mass", "model-string-mass"])
def test_unhonourable_values_raise_a_package_value_error(make, error):
    with pytest.raises(error) as info:
        make()
    assert isinstance(info.value, SpinframeError)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("value", (True, False))
@pytest.mark.parametrize("make", [
    lambda v: SuiteConfig(m=v),
    lambda v: SuiteConfig(a0=v),
    lambda v: SuiteConfig(seed=v),
    lambda v: SuiteConfig(seeds=v),
    require_mass,
], ids=["m", "a0", "seed", "seeds", "require_mass"])
def test_a_bool_is_rejected_where_a_number_is_read(make, value):
    # Python counts a bool as an int: SuiteConfig(m=True) would run and
    # report "m": true, and seeds=True would reach numpy as a shape
    with pytest.raises(ConfigInvalid):
        make(value)


@pytest.mark.parametrize("flag", [["--grid", "8"], ["--mode", "stencil"], ["--order", "4"],
                                  ["--tol", "1e-3"]], ids=" ".join)
def test_removed_flags_are_rejected(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["run", "plane-waves", *flag])
    assert exc.value.code == 2


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_invalid_tol_exit_two(capsys, tol):
    # --tol is deleted, so every value it is given, bad ones included, exits 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "plane-waves", "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_json_determinism(tmp_path):
    cfg = SuiteConfig(seed=3)
    a = render(run_suite("coframe", cfg), "json")
    b = render(run_suite("coframe", cfg), "json")
    assert a == b  # byte-identical, runtimes excluded by default


def test_runtime_breaks_out_of_deterministic_output():
    cfg = SuiteConfig(seed=3)
    r = run_suite("plane-waves", cfg)
    with_rt = render(r, "json", include_runtime=True)
    without = render(r, "json")
    assert "runtime_ms" in with_rt
    assert "runtime_ms" not in without


def test_json_round_trip():
    reports = run_suite("plane-waves", SuiteConfig(seed=1))
    back = json.loads(render(reports, "json"))["reports"]
    assert len(back) == len(reports)
    assert back[0]["check_name"] == sorted(reports, key=lambda r: r.check_name)[0].check_name
    assert back[0]["max_abs_residual"] == reports[0].max_abs_residual


def test_csv_header_and_emit(tmp_path):
    reports = run_suite("plane-waves", SuiteConfig(seed=1))
    path = tmp_path / "report.csv"
    assert main(["run", "plane-waves", "--format", "csv", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == ("check_name,m,r,s,A,seed,"
                       "max_abs_residual,rms_residual,tolerance,pass")
    assert len(lines) == 1 + len(reports)


def test_unwritable_out_path_exits_three_without_a_traceback(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    assert main(["run", "coframe", "--out", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report to ")
    assert "Traceback" not in err
    assert not path.parent.exists()


def _readme_cli_section() -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def test_readme_names_exactly_the_run_options():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {o for a in sub.choices["run"]._actions for o in a.option_strings
               if o.startswith("--") and o != "--help"}
    named = set(re.findall(r"--[A-Za-z][\w-]*", _readme_cli_section()))
    assert options - named == set(), "run options missing from README's CLI section"
    assert named - options == set(), "README's CLI section names options run rejects"
