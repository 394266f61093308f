"""Command-line behaviour: exit codes, output formats, determinism."""

import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rkhs_lab
from rkhs_lab import annulus as an
from rkhs_lab import cli
from rkhs_lab import kernels as kc
from rkhs_lab.cli import MAX_GRID_STEPS, main
from rkhs_lab.errors import ConfigError
from rkhs_lab.extremality import FK_RTOL, classify_shift
from rkhs_lab.positivity import contraction_check
from rkhs_lab.specio import load_kernel
from tests.conftest import counting, curvature_mp, dual_sums_mp


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def geo_spec(tmp_path):
    p = tmp_path / "geo.json"
    p.write_text(json.dumps({"kind": "disc_diagonal", "coeff_rule": "1"}))
    return str(p)


@pytest.fixture()
def berg_spec(tmp_path):
    p = tmp_path / "berg.json"
    p.write_text(json.dumps({"kind": "disc_diagonal", "coeff_rule": "n+1"}))
    return str(p)


def per_cell_csv(header, rows):
    """CSV text formatted one cell at a time: a number by repr of its float
    (of itself when complex), anything else by str."""
    def cell(c):
        if isinstance(c, complex):
            return repr(c)
        return repr(float(c)) if isinstance(c, (int, float)) else str(c)

    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])


def test_csv_columns_format_as_the_per_cell_rule():
    # a real column is formatted a column at a time, as float64 values; the
    # text is the per-cell rule's, byte for byte
    tiny = [5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308]
    columns = {
        "ints": [0, 1, -3, 7, 2 ** 53 + 1, -(2 ** 63), 12],
        "mixed": [0, -0.0, 1, 0.1, -2, 1e300, 2 ** 63 + 5],
        "array": np.array([-0.0, 0.0, *tiny, np.pi]),
        "subnormals": [*tiny, -0.0, 1.0 / 3.0, float("inf")],
        "big-ints": [10 ** 20, 0, 1, 2, 3, 4, 5],
        "complex": [1 + 2j, -0.0j, complex(5e-324, -0.0), complex(-1.5, 1e-320), 0j, 2j, 1j],
        "labels": ["with4pi2", "1/(2pi)", "", "x", "rho^2", "-0.0", "a b"],
        "bools": [True, False, True, False, True, False, True],
    }
    header = list(columns)
    rows = list(zip(*columns.values()))
    # the first four are read as real numbers, the rest cell by cell
    kinds = [np.asarray(c).dtype.kind for c in columns.values()]
    assert [kind in "iuf" for kind in kinds] == [True] * 4 + [False] * 4
    assert cli._csv(header, columns.values()) == per_cell_csv(header, rows)
    assert cli._csv(header, [c[:0] for c in columns.values()]) == per_cell_csv(header, [])
    radii = np.linspace(0.0, 0.9, 1001)
    values = -(1.0 - radii * radii) ** -2
    labels = ["with4pi2"] * radii.size
    assert (cli._csv(["abs_w", "curvature", "n"], [radii, values, labels])
            == per_cell_csv(["abs_w", "curvature", "n"], zip(radii, values, labels)))


def test_curvature_csv_matches_closed_form(runner, geo_spec):
    res = runner.invoke(main, ["curvature", "--kernel", geo_spec,
                               "--grid", "0:0.9:10"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "abs_w,curvature"
    for line in lines[1:]:
        w, curv = map(float, line.split(","))
        assert curv == pytest.approx(-(1.0 - w * w) ** -2, rel=1e-10)


def test_extremal_bergman_not_extremal(runner, berg_spec):
    res = runner.invoke(main, ["extremal", "--kernel", berg_spec, "--at", "0"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["classification"] == "NotExtremal"


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-310])
def test_extremal_classification_does_not_depend_on_scale(runner, scale):
    # F_K = 0 for constant coefficients at any scale; neither an overflowing
    # nor a subnormal K(w, w) enters the trichotomy
    spec = json.dumps({"kind": "disc_diagonal", "coeff_rule": "custom-list",
                       "coeffs": [scale] * 3})
    res = runner.invoke(main, ["extremal", "--kernel", spec, "--at", "0.3"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["classification"] == "ExtremalEverywhere"


def test_malformed_spec_names_field(runner, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"kind": "disc_diagonal", "coeff_rule": "noise"}))
    res = runner.invoke(main, ["curvature", "--kernel", str(p)])
    assert res.exit_code == 1
    assert "coeff_rule" in res.output


def test_curvature_outside_disc_is_refused(runner, geo_spec):
    res = runner.invoke(main, ["curvature", "--kernel", geo_spec,
                               "--grid", "1.2:1.2:1"])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert json.loads(res.stderr)["error"] == "PointOutsideDomain"


@pytest.mark.parametrize("command", ["check", "extremal"])
def test_shift_commands_refuse_annulus_spec(runner, command):
    spec = json.dumps({"kind": "annulus_laurent", "r": 0.5, "weight_b": 0})
    res = runner.invoke(main, [command, "--kernel", spec])
    assert res.exit_code == 1
    diag = json.loads(res.stderr)
    assert diag["error"] == "ConfigError"
    assert "'kind'" in diag["message"]
    # the CLI refuses the spec by its kind, with the library's diagnostic for its kernel
    library = contraction_check if command == "check" else lambda k: classify_shift(k, 0j)
    with pytest.raises(ConfigError) as exc:
        library(load_kernel(spec))
    assert diag["message"] == str(exc.value)


def test_local_op_json_payload(runner, geo_spec):
    res = runner.invoke(main, ["local-op", "--kernel", geo_spec, "--at", "0.3"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert set(payload) == {"t", "R", "curvature", "residual"}
    assert payload["residual"] < 1e-10


def test_check_verdicts_and_violation_exit(runner, tmp_path):
    p = tmp_path / "bad_shift.json"
    p.write_text(json.dumps({"kind": "disc_diagonal", "coeff_rule": "custom-list",
                             "coeffs": [1.0, 1.0, 2.0, 4.0, 8.0, 16.0]}))
    res = runner.invoke(main, ["check", "--kernel", str(p),
                               "--tests", "contraction,hyponormal"])
    assert res.exit_code == 2  # hyponormality fails: mathematical violation
    payload = json.loads(res.output)
    assert payload["verdicts"]["contraction"]["passed"]
    assert not payload["verdicts"]["hyponormal"]["passed"]
    assert set(payload) == {"verdicts"}


@pytest.mark.parametrize("tests", [None, "2hyper"], ids=["default", "2hyper"])
def test_check_on_a_non_contraction_is_a_violation(runner, tests):
    # 2-hypercontraction is defined on contractions only: on any other
    # shift its verdict fails with the contraction's witness, exit 2
    spec = json.dumps({"kind": "disc_diagonal", "coeff_rule": "custom-list",
                       "coeffs": [1, 0.5, 0.25]})
    res = runner.invoke(main, ["check", "--kernel", spec] + (["--tests", tests] if tests else []))
    assert res.exit_code == 2
    assert res.stderr == ""
    verdicts = json.loads(res.stdout)["verdicts"]
    assert set(verdicts) == ({"2hyper"} if tests else {"contraction", "hyponormal", "2hyper"})
    assert verdicts["2hyper"] == {"passed": False, "min_tilde_coeff": -0.5}


def test_check_seed_has_no_effect(runner, berg_spec):
    outputs = [runner.invoke(main, ["check", "--kernel", berg_spec, "--seed", seed])
               for seed in ("1", "99")]
    assert [res.exit_code for res in outputs] == [0, 0]
    assert outputs[0].stdout_bytes == outputs[1].stdout_bytes
    assert outputs[0].stderr_bytes == outputs[1].stderr_bytes == b""
    kernel = load_kernel(berg_spec)
    assert contraction_check(kernel, seed=1) == contraction_check(kernel, seed=2)
    res = runner.invoke(main, ["check", "--kernel", berg_spec, "--seed", "-1"])
    assert res.exit_code == 1
    assert "option --seed " in json.loads(res.stderr)["message"]


def test_ci_check_rows_carry_normalization_tag(runner, berg_spec):
    res = runner.invoke(main, ["ci-check", "--kernel", berg_spec,
                               "--grid", "0:0.5:3"])
    assert res.exit_code == 0
    for line in res.output.strip().splitlines()[1:]:
        assert line.endswith(",with4pi2")


def test_cli_defaults_are_the_library_constants():
    def default(command, option):
        return next(p.default for p in main.commands[command].params if p.name == option)

    assert default("extremal", "tol") == FK_RTOL


def test_annulus_character(runner):
    res = runner.invoke(main, ["annulus", "--task", "character",
                               "--weight", "rho^2", "--r", "0.5"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    gamma = complex(payload["gamma"].strip("()"))
    assert abs(gamma - 1.0) < 1e-10


def test_output_file_atomic_and_deterministic(runner, geo_spec, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["curvature", "--kernel", geo_spec, "--grid", "0:0.8:20"]
    assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert not list(tmp_path.glob(".rkhs-lab-*"))  # no temp litter


@pytest.mark.parametrize("where", ["directory", "missing-directory"])
def test_unwritable_out_is_named_in_the_diagnostic(runner, geo_spec, tmp_path, where):
    out = str(tmp_path if where == "directory" else tmp_path / "missing" / "x.csv")
    res = runner.invoke(main, ["curvature", "--kernel", geo_spec, "--grid", "0:0.5:2",
                               "--out", out])
    assert res.exit_code == 1
    assert res.stdout == ""
    diag = json.loads(res.stderr)
    assert diag["error"] == ("IsADirectoryError" if where == "directory" else "FileNotFoundError")
    assert diag["message"].endswith(f": {out!r}")


def test_grid_parse_errors(runner, geo_spec):
    res = runner.invoke(main, ["curvature", "--kernel", geo_spec,
                               "--grid", "oops"])
    assert res.exit_code != 0


@pytest.mark.parametrize("argv, names", [
    (["curvature", "--kernel", "GEO", "--grid", "oops"], "option --grid "),
    (["curvature", "--kernel", "GEO", "--grid", "0:0.5:0"], "option --grid "),
    (["ci-check", "--kernel", "GEO", "--grid", "0:0.5"], "option --grid "),
    (["extremal", "--kernel", "GEO", "--at", "0.1+"], "option --at "),
    (["local-op", "--kernel", "GEO", "--at", "zero"], "option --at "),
    (["annulus", "--task", "bergman", "--weight", "rho^x"], "option --weight "),
    (["annulus", "--task", "character", "--weight", "rho^nan"], "option --weight "),
    (["annulus", "--task", "strict-ci", "--weight", "rho^inf"], "option --weight "),
    (["check", "--kernel", "GEO", "--tests", "contraction,bogus"], "option --tests "),
    (["annulus", "--task", "szego", "--r", "1.5"], "field 'r' "),
    (["check", "--kernel", "GEO", "--seed", "-1"], "option --seed "),
    (["ci-check", "--kernel", "GEO", "--tol", "nan"], "option --tol "),
    (["extremal", "--kernel", "GEO", "--at", "0.3", "--tol", "nan"], "option --tol "),
    (["local-op", "--kernel", "GEO", "--tol", "nan"], "option --tol "),
    (["ci-check", "--kernel", "GEO", "--tol", "inf"], "option --tol "),
    (["extremal", "--kernel", "GEO", "--tol", "-1e-9"], "option --tol "),
    (["local-op", "--kernel", "GEO", "--tol", "-1"], "option --tol "),
], ids=["grid-text", "grid-steps", "grid-parts", "extremal-at", "local-op-at",
        "annulus-weight", "annulus-weight-nan", "annulus-weight-inf", "tests",
        "annulus-r", "seed-negative", "ci-check-tol-nan", "extremal-tol-nan",
        "local-op-tol-nan", "ci-check-tol-inf", "extremal-tol-negative",
        "local-op-tol-negative"])
def test_usage_errors_exit_1_with_json(runner, geo_spec, argv, names):
    res = runner.invoke(main, [geo_spec if a == "GEO" else a for a in argv])
    assert res.exit_code == 1
    assert res.stdout == ""
    diag = json.loads(res.stderr)
    assert diag["error"] == "ConfigError"
    assert names in diag["message"]


@pytest.mark.parametrize("argv", [["curvature", "--grid", "0:0.5:3"],
                                  ["annulus", "--task", "szego", "--r", "half"]],
                         ids=["missing-kernel", "non-float-r"])
def test_click_parser_errors_keep_exit_2(runner, argv):
    res = runner.invoke(main, argv)
    assert res.exit_code == 2
    assert "Usage:" in res.stderr


# ---------------------------------------------------------------------------
# refusals and the spec as the single description of a kernel

ONE_COEFFICIENT = json.dumps({"kind": "disc_diagonal", "coeff_rule": "custom-list",
                              "coeffs": [1.0]})
README_ANNULUS = json.dumps({"kind": "annulus_laurent", "r": 0.5, "weight_b": 0})


@pytest.mark.parametrize("command, extra", [("check", ["--tests", "contraction"]),
                                            ("check", ["--tests", "hyponormal"]),
                                            ("check", ["--tests", "2hyper"]),
                                            ("extremal", [])])
def test_shift_commands_refuse_one_coefficient_spec(runner, command, extra):
    res = runner.invoke(main, [command, "--kernel", ONE_COEFFICIENT] + extra)
    assert res.exit_code == 1
    assert res.stdout == ""
    diag = json.loads(res.stderr)
    assert diag["error"] == "ConfigError"
    assert "'coeffs'" in diag["message"]


@pytest.mark.parametrize("command, extra", [("check", ["--tests", "hyponormal"]),
                                            ("extremal", []),
                                            ("check", ["--tests", "contraction"])])
def test_shift_commands_refuse_unrepresentable_weights(runner, command, extra):
    # a_0 / a_1 = 1e600 overflows, so the weight sqrt(a_0 / a_1) has no double
    spec = json.dumps({"kind": "disc_diagonal", "coeff_rule": "custom-list",
                       "coeffs": [1e300, 1e-300, 1.0]})
    res = runner.invoke(main, [command, "--kernel", spec] + extra)
    assert res.exit_code == 1
    diag = json.loads(res.stderr)
    assert diag["error"] == "ConfigError"
    assert "'coeffs'" in diag["message"]


OVERFLOWING_ANNULUS = json.dumps({"kind": "annulus_laurent", "r": 0.05, "weight_b": 1e300})


@pytest.mark.parametrize("argv, message", [
    # rho^-(2 + 1e300) overflows the dual form of the diagonal at the first
    # point, where the window's sums overflowed: the same diagnostic
    (["annulus", "--task", "strict-ci", "--r", "0.5", "--weight", "rho^1e300"],
     "moment sum d^0 d^0bar K(w, w) is not finite at w = (0.55+0j)"),
    (["annulus", "--task", "bergman", "--r", "0.5", "--weight", "rho^1e300"],
     "moment sum d^0 d^0bar K(z, w) is not finite at z = (0.55+0j), w = (0.55+0j)"),
    (["annulus", "--task", "character", "--r", "0.5", "--weight", "rho^1.7e308"],
     "period of rho^1.7e+308 is not finite on the annulus r = 0.5"),
    (["curvature", "--kernel", OVERFLOWING_ANNULUS, "--grid", "0.5:0.9:3"],
     "moment sum d^0 d^0bar K(w, w) is not finite at w = (0.5+0j)"),
    (["ci-check", "--kernel", OVERFLOWING_ANNULUS, "--grid", "0.5:0.9:3"],
     "moment sum d^0 d^0bar K(w, w) is not finite at w = (0.5+0j)"),
    # S11 / S00 = 1 / 1e-310 at w = 0
    (["curvature", "--kernel", json.dumps({"kind": "disc_diagonal", "coeff_rule": "custom-list",
                                           "coeffs": [1e-310, 1, 1]}),
      "--grid", "0:0.5:2"], "curvature is not finite at w = 0j (K(w, w) = 1.000e-310)"),
    (["extremal", "--kernel", json.dumps({"kind": "disc_diagonal", "coeff_rule": "custom-list",
                                          "coeffs": [1e-310, 1, 1]}),
      "--at", "0"], "curvature is not finite at w = 0j (K(w, w) = 1.000e-310)"),
    (["check", "--kernel", json.dumps({"kind": "disc_diagonal", "coeff_rule": "custom-list",
                                       "coeffs": [1e-310, 1, 1]}),
      "--tests", "2hyper"], "2-hypercontraction expression 1/a_n - 2/a_(n+1) + 1/a_(n+2) "
                            "is not finite at n = 0"),
], ids=["strict-ci", "bergman", "character", "curvature", "ci-check", "curvature-quotient",
        "tilde-minor", "2hyper-subnormal"])
def test_non_finite_values_are_refused(runner, argv, message):
    with warnings.catch_warnings():
        # an overflow warning would be printed ahead of the diagnostic
        warnings.simplefilter("error")
        res = runner.invoke(main, argv)
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == json.dumps({"error": "NonFiniteValue", "message": message}) + "\n"


def test_the_annulus_curvature_at_the_outer_edge_is_exact(runner):
    # the 401-term window printed -1190.869 here, 6.9% off; the dual form has no truncation
    spec = json.dumps({"kind": "annulus_laurent", "r": 0.5, "weight_b": 0})
    res = runner.invoke(main, ["curvature", "--kernel", spec, "--grid", "0.98:0.98:1"])
    assert res.exit_code == 0
    value = float(res.stdout.splitlines()[1].split(",")[1])
    assert f"{value:.3f}" == "-1279.124"
    exact = float(curvature_mp(dual_sums_mp(0.5, 0.0, 0.98, 1)))
    assert value == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("argv", [
    ["curvature", "--kernel", json.dumps({"kind": "disc_diagonal", "coeff_rule": "n+1"})],
    ["curvature", "--kernel", json.dumps({"kind": "annulus_laurent", "r": 0.5, "weight_b": 1})],
    ["ci-check", "--kernel", json.dumps({"kind": "disc_diagonal", "coeff_rule": "n+1"})],
    ["ci-check", "--kernel", json.dumps({"kind": "annulus_laurent", "r": 0.5, "weight_b": 1})],
    ["annulus", "--task", "bergman", "--weight", "rho"],
    ["annulus", "--task", "strict-ci", "--weight", "rho"],
], ids=["curvature-disc", "curvature-annulus", "ci-check-disc", "ci-check-annulus",
        "annulus-bergman", "annulus-strict-ci"])
def test_a_grid_command_is_one_blocked_curvature_product(runner, monkeypatch, argv):
    products = counting(monkeypatch, kc, "_grid_sums")
    sums = counting(monkeypatch, kc, "_diagonal_sums")
    res = runner.invoke(main, argv + ["--grid", "0.6:0.9:7"])
    assert res.exit_code == 0, res.output
    assert [radii.tolist() for _, radii, _ in products] == [np.linspace(0.6, 0.9, 7).tolist()]
    # kernel values stay per point, through eval_kernel's order-0 sums
    assert all(order == 0 for *_, order in sums)
    assert len(res.stdout.splitlines()) == 8


def test_curvature_of_coefficients_near_the_double_limit(runner):
    # the quotient reads only ratios of the sums, so [1e300] * 3 has the
    # curvature of [1] * 3, although S00 S11 overflows
    def curvatures(c):
        spec = {"kind": "disc_diagonal", "coeff_rule": "custom-list", "coeffs": [c] * 3}
        res = runner.invoke(main, ["curvature", "--kernel", json.dumps(spec),
                                   "--grid", "0.5:0.9:3"])
        assert res.exit_code == 0, res.stderr
        return [float(row["curvature"]) for row in csv.DictReader(io.StringIO(res.stdout))]

    assert curvatures(1e300) == pytest.approx(curvatures(1.0), rel=1e-14)


@pytest.mark.parametrize("scale, fk_value", [(1e200, None), (1e-196, 0.0)],
                         ids=["overflow", "underflow"])
def test_extremal_reports_the_scale_free_fk(runner, scale, fk_value):
    # the verdict reads F_K / Ktilde^2, which is finite where F_K itself
    # leaves the double range; fk_value is printed as null past overflow
    def run(coeffs):
        spec = {"kind": "disc_diagonal", "coeff_rule": "custom-list", "coeffs": coeffs}
        res = runner.invoke(main, ["extremal", "--kernel", json.dumps(spec), "--at", "0.3"])
        assert res.exit_code == 0, res.stderr
        return json.loads(res.stdout)

    base = run([1.0, 2.0, 3.0])
    scaled = run([scale, 2.0 * scale, 3.0 * scale])
    # F_K is the Gram determinant of the order-1 tilde jet at zeta
    jet = kc.jet(kc.tilde_kernel(kc.SeriesKernel.disc(np.array([1.0, 2.0, 3.0]))), 0.3, 1)
    det = (jet[0, 0] * jet[1, 1] - abs(jet[0, 1]) ** 2).real
    assert base["fk_value"] == pytest.approx(det, rel=1e-12)
    assert scaled["fk_value"] == fk_value
    assert scaled["fk_relative"] == pytest.approx(base["fk_relative"], rel=1e-12)
    assert scaled["classification"] == base["classification"] == "NotExtremal"


HUGE_WINDOW = '{"kind": "disc_diagonal", "coeff_rule": "1", "n_max": 1000000000000}'


@pytest.mark.parametrize("argv, names", [
    (["curvature", "--kernel", HUGE_WINDOW], "field 'n_max' "),
    (["curvature", "--kernel", '{"kind": "annulus_laurent", "r": 0.5, "n_max": 1000000000000}',
      "--grid", "0.6:0.9:3"], "field 'n_max' "),
    (["curvature", "--kernel", "GEO", "--grid", "0:0.5:1000000000000"], "option --grid "),
    # allocatable, but hours of work
    (["curvature", "--kernel", "GEO", "--grid", "0:0.5:100000000"], "option --grid "),
    (["ci-check", "--kernel", "GEO", "--grid", f"0:0.5:{MAX_GRID_STEPS + 1}"], "option --grid "),
    (["annulus", "--task", "szego", "--grid", f"0.6:0.9:{MAX_GRID_STEPS + 1}"],
     "option --grid "),
], ids=["n_max", "annulus-n_max", "grid-unallocatable", "grid-huge", "ci-check-grid",
        "annulus-grid"])
def test_oversized_requests_are_refused(runner, geo_spec, argv, names):
    res = runner.invoke(main, [geo_spec if a == "GEO" else a for a in argv])
    assert res.exit_code == 1
    assert res.stdout == ""
    diag = json.loads(res.stderr)
    assert diag["error"] == "ConfigError"
    assert names in diag["message"]


@pytest.mark.parametrize("text, error, message", [
    ('{"kind": "disc_diagonal", "coeff_rule": "custom-list", "coeffs": [1, 1%s]}' % ("0" * 400),
     "ConfigError", "field 'coeffs' must contain only numbers that fit a double"),
    ("[1, 2]", "ConfigError", "kernel spec must be a JSON object"),
    ('{"kind": "annulus_laurent", "r": 0.5, "weight_b": -1e6}',
     "QuadratureFailure", "no representable Laurent coefficients"),
], ids=["integer-beyond-double", "not-an-object", "no-laurent-coefficients"])
def test_a_spec_file_the_library_refuses_exits_1_with_json(runner, tmp_path, text, error,
                                                           message):
    p = tmp_path / "spec.json"
    p.write_text(text)
    res = runner.invoke(main, ["curvature", "--kernel", str(p), "--grid", "0.6:0.8:2"])
    assert res.exit_code == 1 and res.stdout == ""
    assert json.loads(res.stderr) == {"error": error, "message": message}


@pytest.mark.parametrize("argv", [
    ["curvature", "--kernel", "GEO", "--grid", "0:0.9:4"],
    ["ci-check", "--kernel", "GEO", "--grid", "0:0.9:4"],
    ["annulus", "--task", "bergman", "--grid", "0.6:0.9:4"],
], ids=["curvature", "ci-check", "annulus-bergman"])
def test_json_rows_are_the_csv_rows(runner, geo_spec, argv):
    argv = [geo_spec if a == "GEO" else a for a in argv]
    as_csv = runner.invoke(main, argv)
    as_json = runner.invoke(main, argv + ["--format", "json"])
    assert as_csv.exit_code == as_json.exit_code == 0
    csv_rows = list(csv.DictReader(io.StringIO(as_csv.stdout)))
    json_rows = json.loads(as_json.stdout)["rows"]
    assert len(json_rows) == len(csv_rows) == 4
    for csv_row, json_row in zip(csv_rows, json_rows):
        assert set(json_row) == set(csv_row)
        for name, value in json_row.items():
            assert (csv_row[name] == value if isinstance(value, str)
                    else float(csv_row[name]) == value), name


@pytest.mark.parametrize("coeffs, min_tilde", [
    # tilde coefficients (1, 3, 12, 0, 0, 0): growing at the end of a short window
    ([1, 4, 16, 16, 16, 16], 0.0),
    # tilde coefficients from 1.48e-3 to 20.7
    ([1.48e-3, 2.73e-2, 0.133, 0.144, 0.254, 1.28, 1.44, 12.1, 14.6, 30.8, 52.0, 70.1],
     1.48e-3),
], ids=["growing-tail", "near-cancelling"])
def test_contraction_verdict_of_a_short_list(runner, coeffs, min_tilde):
    spec = json.dumps({"kind": "disc_diagonal", "coeff_rule": "custom-list", "coeffs": coeffs})
    res = runner.invoke(main, ["check", "--kernel", spec, "--tests", "contraction"])
    assert res.exit_code == 0, res.stderr
    verdict = json.loads(res.stdout)["verdicts"]["contraction"]
    assert verdict == {"passed": True, "min_tilde_coeff": pytest.approx(min_tilde, rel=1e-12)}


def test_ci_check_reads_the_kernel_file(runner, tmp_path):
    res = runner.invoke(main, ["ci-check", "--kernel", str(tmp_path / "missing.json"),
                               "--domain", "annulus", "--grid", "0.6:0.8:2"])
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"] == "FileNotFoundError"


def test_ci_check_annulus_spec_uses_annulus_bound(runner):
    res = runner.invoke(main, ["ci-check", "--kernel", README_ANNULUS,
                               "--grid", "0.55:0.9:4", "--out", "-"])
    assert res.exit_code == 0
    szego = an.szego_kernel(an.AnnulusSpec(r=0.5))
    for line in res.stdout.strip().splitlines()[1:]:
        x, curv, bound, slack, tag = line.split(",")
        s = kc.eval_kernel(szego, float(x), float(x)).real
        assert float(bound) == pytest.approx(-4.0 * np.pi ** 2 * s ** 2, rel=1e-14)
        assert float(slack) == float(bound) - float(curv) > 0.0
        assert tag == "with4pi2"


def test_ci_check_accepts_flags_that_agree_with_spec(runner):
    spec = json.dumps({"kind": "annulus_laurent", "r": 0.4, "weight_b": 2})
    args = ["ci-check", "--kernel", spec, "--grid", "0.45:0.9:3"]
    plain = runner.invoke(main, args)
    flagged = runner.invoke(main, args + ["--domain", "annulus", "--r", "0.4",
                                          "--weight", "rho^2"])
    assert plain.exit_code == flagged.exit_code == 0
    assert plain.stdout == flagged.stdout


@pytest.mark.parametrize("weight_b", ["1e400", "NaN"])
def test_a_spec_weight_exponent_off_the_doubles_is_a_config_error(runner, weight_b):
    spec = f'{{"kind": "annulus_laurent", "r": 0.5, "weight_b": {weight_b}}}'
    res = runner.invoke(main, ["curvature", "--kernel", spec])
    assert res.exit_code == 1 and res.stdout == ""
    diag = json.loads(res.stderr)
    assert diag["error"] == "ConfigError"
    assert "'weight_b'" in diag["message"]


DISC_SPEC = json.dumps({"kind": "disc_diagonal", "coeff_rule": "1"})


@pytest.mark.parametrize("spec, flags, message", [
    (README_ANNULUS, ["--domain", "disc"], "--domain disc contradicts field 'kind' = "
                                           "'annulus_laurent'"),
    (README_ANNULUS, ["--r", "0.6"], "--r 0.6 contradicts field 'r' = 0.5"),
    (README_ANNULUS, ["--weight", "rho"], "--weight rho contradicts field 'weight_b' = 0.0"),
    (DISC_SPEC, ["--domain", "annulus"], "--domain annulus contradicts field 'kind' = "
                                         "'disc_diagonal'"),
    (DISC_SPEC, ["--r", "0.5"], "--r 0.5 contradicts field 'kind' = 'disc_diagonal'"),
    (DISC_SPEC, ["--weight", "rho"], "--weight rho contradicts field 'kind' = 'disc_diagonal'"),
], ids=["annulus-domain", "annulus-r", "annulus-weight", "disc-domain", "disc-r",
        "disc-weight"])
def test_ci_check_refuses_flags_that_contradict_spec(runner, spec, flags, message):
    res = runner.invoke(main, ["ci-check", "--kernel", spec, "--grid", "0.6:0.8:2"] + flags)
    assert res.exit_code == 1 and res.stdout == ""
    assert json.loads(res.stderr) == {"error": "ConfigError",
                                      "message": f"option {message} of the kernel spec"}


def test_annulus_szego_task_matches_mpmath(runner):
    # S(w, w) = sum_n |w|^(2n) / (2 pi (1 + r^(2n+1))) on r = 0.5, from its exact
    # 40-digit dual sum, out to 0.02 of either circle
    res = runner.invoke(main, ["annulus", "--task", "szego", "--grid", "0.52:0.98:5"])
    assert res.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(res.stdout)))
    assert [row["normalization"] for row in rows] == ["1/(2pi)"] * 5
    for row in rows:
        exact = dual_sums_mp(0.5, -1, float(row["abs_w"]), 0, szego=True)[0]
        assert float(row["szego_diag"]) == pytest.approx(float(exact), rel=1e-14)


# ---------------------------------------------------------------------------
# import cost: src/ imports no scipy at all, and the profile rule loads
# numpy.polynomial only when a profile kernel is built

IMPORT_PROBE = """
import json, sys
import numpy as np
import rkhs_lab.cli
polynomial_at_import = "numpy.polynomial" in sys.modules
from rkhs_lab import annulus as an, caratheodory as ca, curvature as cv, kernels as kc
from rkhs_lab import localop as lo
k = kc.SeriesKernel.disc(np.arange(1.0, 202.0))
lo.canonical_form(lo.jet_gram(k, 0.3))
lo.verify_tt_identity(k, 0.3)
G = np.eye(6) + 0.1 * np.ones((6, 6))
lo.canonical_form(cv.JetGram(G, 2, 2))
spec = an.AnnulusSpec(r=0.5, N=50)
profile = an.weighted_bergman_kernel(spec, an.RadialWeight.from_profile(lambda rho: rho ** 2))
closed = an.weighted_bergman_kernel(spec, an.RadialWeight.power_law(2.0))
verdict = ca.generalized_ci_check(np.array([[-2.0]]), "ball", [0.0])
print(json.dumps({"polynomial_at_import": polynomial_at_import,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "profile_rel_diff": float(np.abs(profile.coeffs / closed.coeffs - 1.0).max()),
                  "ci_passed": bool(verdict.passed), "ci_margin": verdict.worst_margin}))
"""


def test_cli_import_defers_heavy_scipy_modules():
    src = str(Path(rkhs_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert not out["polynomial_at_import"]
    assert out["scipy"] == []
    assert out["profile_rel_diff"] <= 1e-12
    assert out["ci_passed"]
    assert out["ci_margin"] == pytest.approx(-1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the CLI contract on generated input: exit 0/1/2, never a traceback, and a
# JSON diagnostic on stderr for exit 1

numbers = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(),
                    st.sampled_from([1e-300, 1e-310, 1e300, 10 ** 400, -10 ** 400]))


@st.composite
def specs(draw):
    if draw(st.booleans()):
        spec = {"kind": "annulus_laurent",
                "r": draw(st.one_of(st.floats(0.05, 0.95), numbers)),
                "weight_b": draw(st.one_of(st.integers(-2, 3), numbers))}
    else:
        rule = draw(st.sampled_from(["1", "n+1", "(n+1)^s", "custom-list", "n^2"]))
        spec = {"kind": "disc_diagonal", "coeff_rule": rule}
        if rule == "(n+1)^s":
            spec["s"] = draw(st.one_of(st.floats(-2.0, 2.0), numbers))
        if rule == "custom-list":
            spec["coeffs"] = draw(st.lists(st.one_of(st.floats(0.1, 10.0), numbers),
                                           max_size=6))
    if draw(st.booleans()):
        spec["n_max"] = draw(st.integers(-1, 300))
    if draw(st.integers(0, 5)) == 0:
        del spec[draw(st.sampled_from(sorted(spec)))]
    return spec


#: a non-finite number as Python, numpy or JSON print it, e.g. nan, -inf, (1+infj), NaN
NON_FINITE = re.compile(r"(?<!\w)(nan|inf|infinity)j?(?!\w)", re.IGNORECASE)

#: option text one character or one part away from well-formed
NEAR_MISSES = ["0:0.5", "0:0.5:3:1", "0:0.5:x", "0:0.5:-2", "0:0.5:0", "0:0.5:1.5",
               "a:0.5:3", "", " ", "0.3+", "1j+1j", "(0.3", "--1", "nan:", "0.2 0.3"]


def grid_steps(text):
    start, stop, steps = text.split(":")
    float(start), float(stop)
    if not 1 <= int(steps) <= MAX_GRID_STEPS:
        raise ValueError(steps)


def parses(parse, text) -> bool:
    try:
        parse(text)
    except ValueError:
        return False
    return True


@st.composite
def invocations(draw):
    """(argv with a KERNEL placeholder and an --out placeholder, how to pass
    the spec, the spec text, whether the --grid, --at, --seed, --tol or --out
    value is malformed)."""
    out = draw(st.sampled_from(["-", "OUT-file", "OUT-missing-dir", "OUT-dir"]))
    unwritable = out in ("OUT-missing-dir", "OUT-dir")
    text = json.dumps(draw(specs()))
    how = draw(st.sampled_from(["inline", "file", "truncated", "truncated-file",
                                "missing"]))
    if how.startswith("truncated"):
        text = text[:draw(st.integers(0, len(text) - 1))]
    command = draw(st.sampled_from(["curvature", "check", "extremal", "local-op",
                                    "ci-check", "annulus"]))
    if command == "annulus":
        task = draw(st.sampled_from(["szego", "bergman", "strict-ci", "character"]))
        r = draw(st.one_of(st.floats(0.05, 0.95), numbers))
        b = draw(st.one_of(st.integers(-2, 3), numbers))
        return (["annulus", "--task", task, f"--r={r}", f"--weight=rho^{b}", "--out", out],
                how, text, unwritable)
    malformed = command != "check" and draw(st.integers(0, 3)) == 0
    option_text = st.one_of(st.text(max_size=12), st.sampled_from(NEAR_MISSES))
    if command == "check":
        extra = ["--tests", draw(st.sampled_from(["contraction", "hyponormal", "2hyper",
                                                  "contraction,hyponormal,2hyper"]))]
        if draw(st.booleans()):
            seed = draw(st.integers(-2 ** 31, 2 ** 31))
            extra.append(f"--seed={seed}")
            malformed = seed < 0
    elif command in ("extremal", "local-op"):
        if malformed:
            at = draw(option_text.filter(lambda t: not parses(complex, t)))
        else:
            at = repr(complex(draw(st.floats(-1.2, 1.2)), draw(st.floats(-1.2, 1.2))))
        extra = [f"--at={at}"]
    else:
        if malformed:
            grid = draw(option_text.filter(lambda t: not parses(grid_steps, t)))
        else:
            lo, hi = sorted(draw(st.floats(-1.2, 1.2)) for _ in range(2))
            grid = f"{lo}:{hi}:{draw(st.integers(1, 4))}"
        extra = [f"--grid={grid}"]
    if command in ("ci-check", "extremal", "local-op") and draw(st.booleans()):
        tol = draw(st.one_of(st.floats(0.0, 1e-3),
                             st.sampled_from([np.nan, np.inf, -np.inf, -1e-9, -1.0])))
        extra.append(f"--tol={tol!r}")
        malformed = malformed or not (np.isfinite(tol) and tol >= 0.0)
    if command == "ci-check":
        if draw(st.booleans()):
            extra += ["--domain", draw(st.sampled_from(["disc", "annulus"]))]
        if draw(st.booleans()):
            extra += ["--r", repr(draw(st.floats(0.05, 0.95)))]
        if draw(st.booleans()):
            extra += ["--weight", draw(st.sampled_from(["1", "rho", "rho^2", "rho^-1"]))]
    return [command, "--kernel", "KERNEL"] + extra + ["--out", out], how, text, \
        malformed or unwritable


@settings(max_examples=150, deadline=None)
@given(invocations())
# weight_b near the double limit overflowed a norm exponent check with a
# RuntimeWarning printed ahead of the diagnostic
@example((["check", "--kernel", "KERNEL", "--tests", "contraction"], "inline",
          '{"kind": "annulus_laurent", "r": 0.05, "weight_b": 6.000847107507442e+307}',
          False))
def test_cli_contract_on_generated_specs(case):
    argv, how, text, malformed = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        if how in ("file", "truncated-file"):
            with open(path, "w") as fh:
                fh.write(text)
        source = path if how in ("file", "truncated-file", "missing") else text
        out_file = os.path.join(tmp, "out.txt")
        fill = {"KERNEL": source, "OUT-file": out_file,
                "OUT-missing-dir": os.path.join(tmp, "missing", "out.txt"), "OUT-dir": tmp}
        with warnings.catch_warnings(record=True) as caught:
            # record every warning, repeats included
            warnings.simplefilter("always")
            res = CliRunner().invoke(main, [fill.get(a, a) for a in argv])
        written = Path(out_file).read_text() if os.path.exists(out_file) else ""
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime, runtime
    assert res.exit_code in (0, 1, 2), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        repr(res.exception)
    assert "Traceback" not in res.output
    if res.exit_code == 1 or malformed:
        assert res.exit_code == 1
        diag = json.loads(res.stderr)
        if diag["error"] in ("IsADirectoryError", "FileNotFoundError"):
            # an IO error names the spec path or the --out value as given,
            # never a temporary file beside --out
            given = [p for p in (source, fill.get(argv[-1])) if p is not None]
            assert any(repr(p) in diag["message"] for p in given), diag["message"]
            assert ".rkhs-lab-" not in diag["message"]
    else:
        assert not NON_FINITE.search(res.stdout + written), res.stdout + written
        assert (written if "OUT-file" in argv else res.stdout).strip()


#: spec files json cannot read, with the diagnostic's words: bytes that are
#: not UTF-8, and nesting deeper than the parser's recursion limit (inline
#: too, as text that starts with "{")
UNREADABLE = {"not-utf-8": (b"\xff\xfe{bad", "not UTF-8"),
              "nested-too-deep": (b'{"a":' + b"[" * 100_000, "nested too deeply")}


@pytest.mark.parametrize("name, how", [("not-utf-8", "file"), ("nested-too-deep", "file"),
                                       ("nested-too-deep", "inline")])
@pytest.mark.parametrize("command", ["curvature", "check", "extremal", "local-op", "ci-check"])
def test_an_unreadable_spec_exits_1_with_json(runner, tmp_path, command, name, how):
    text, words = UNREADABLE[name]
    p = tmp_path / "spec.json"
    p.write_bytes(text)
    res = runner.invoke(main, [command, "--kernel", text.decode() if how == "inline" else str(p)])
    assert res.exit_code == 1
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        repr(res.exception)
    assert res.stdout == ""
    diag = json.loads(res.stderr)
    assert diag["error"] == "ConfigError"
    assert words in diag["message"]


# ---------------------------------------------------------------------------
# README's CLI block, run as written

def readme_cli_examples():
    """(spec text, [(argv, format, exit code)]) of the sh block in README's CLI
    section; the comment lines above each command name its format and end
    with its exit code."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    spec, examples, comment = None, [], ""
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("#"):
            comment += line
            continue
        words = shlex.split(line)
        if words[:1] == ["echo"]:
            assert words[2:] == [">", "spec.json"], line
            spec = words[1]
        elif words:
            assert words[0] == "rkhs-lab", line
            fmt = re.search(r"\((CSV|JSON)\)", comment).group(1)
            code = int(re.search(r"exit (\d)$", comment).group(1))
            examples.append((words[1:], fmt, code))
        comment = ""  # a comment belongs to the line right below it
    return spec, examples


def test_readme_cli_examples_run_as_documented(runner):
    spec, examples = readme_cli_examples()
    assert len(examples) >= 6
    with runner.isolated_filesystem():
        Path("spec.json").write_text(spec)
        for argv, fmt, code in examples:
            res = runner.invoke(main, argv)
            assert res.exit_code == code, (argv, res.output)
            if fmt == "JSON":
                assert isinstance(json.loads(res.stdout), dict)
            else:
                header, *rows = csv.reader(io.StringIO(res.stdout))
                assert rows and all(len(row) == len(header) for row in rows)
                assert all(np.isfinite(float(row[0])) for row in rows)


def test_readme_local_op_example_prints_the_quoted_values(runner):
    # README quotes the R that its local-op example prints; t's diagonal is exactly real
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quoted = re.search(r"at `--at 0\.3` on `n\+1` it prints\s+(\S+)", readme).group(1)
    _, examples = readme_cli_examples()
    (argv,) = [argv for argv, _, _ in examples if argv[0] == "local-op"]
    assert argv[argv.index("--at") + 1] == "0.3" and '"n+1"' in argv[argv.index("--kernel") + 1]
    res = runner.invoke(main, argv)
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert quoted == "0.41405000000000014"
    assert payload["R"] == [[f"({quoted}+0j)"]]
    assert payload["t"][0][0].endswith("+0j)")
