"""Command-line behaviour: exit codes, output formats, determinism."""

import json

import pytest
from click.testing import CliRunner

from rkhs_lab.cli import main


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
    assert payload["seed"] == 2024


def test_ci_check_rows_carry_normalization_tag(runner, berg_spec):
    res = runner.invoke(main, ["ci-check", "--kernel", berg_spec,
                               "--grid", "0:0.5:3"])
    assert res.exit_code == 0
    for line in res.output.strip().splitlines()[1:]:
        assert line.endswith(",with4pi2")


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


def test_grid_parse_errors(runner, geo_spec):
    res = runner.invoke(main, ["curvature", "--kernel", geo_spec,
                               "--grid", "oops"])
    assert res.exit_code != 0
