"""Command-line behaviour: exit codes, output formats, determinism."""

import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rkhs_lab
from rkhs_lab import annulus as an
from rkhs_lab import kernels as kc
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
    (["local-op", "--kernel", "GEO", "--m", "2"], "option --m "),
    (["annulus", "--task", "szego", "--r", "1.5"], "field 'r' "),
    (["check", "--kernel", "GEO", "--seed", "-1"], "option --seed "),
    (["ci-check", "--kernel", "GEO", "--tol", "nan"], "option --tol "),
    (["extremal", "--kernel", "GEO", "--at", "0.3", "--tol", "nan"], "option --tol "),
    (["local-op", "--kernel", "GEO", "--tol", "nan"], "option --tol "),
    (["ci-check", "--kernel", "GEO", "--tol", "inf"], "option --tol "),
    (["extremal", "--kernel", "GEO", "--tol", "-1e-9"], "option --tol "),
    (["local-op", "--kernel", "GEO", "--tol", "-1"], "option --tol "),
], ids=["grid-text", "grid-steps", "grid-parts", "extremal-at", "local-op-at",
        "annulus-weight", "annulus-weight-nan", "annulus-weight-inf", "tests", "m",
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


@pytest.mark.parametrize("argv, quantity", [
    (["annulus", "--task", "strict-ci", "--r", "0.5", "--weight", "rho^1e300"],
     "K(w, w) is not finite at w = "),
    (["annulus", "--task", "bergman", "--r", "0.5", "--weight", "rho^1e300"],
     "K(z, w) is not finite at z = "),
    (["annulus", "--task", "character", "--r", "0.5", "--weight", "rho^1.7e308"],
     "period of rho^1.7e+308 is not finite"),
    (["curvature", "--kernel", OVERFLOWING_ANNULUS, "--grid", "0.5:0.9:3"],
     "K(w, w) is not finite at w = "),
    (["ci-check", "--kernel", OVERFLOWING_ANNULUS, "--grid", "0.5:0.9:3"],
     "K(w, w) is not finite at w = "),
    (["curvature", "--kernel", json.dumps({"kind": "disc_diagonal", "coeff_rule": "custom-list",
                                           "coeffs": [1e300, 1e300, 1e300]}),
      "--grid", "0.5:0.9:3"], "curvature is not finite at w = "),
    (["extremal", "--kernel", json.dumps({"kind": "disc_diagonal", "coeff_rule": "custom-list",
                                          "coeffs": [1e200, 1e300, 1e300]}),
      "--at", "0.5"], "tilde Gram minor is not finite at zeta = (0.5+0j)"),
    (["check", "--kernel", json.dumps({"kind": "disc_diagonal", "coeff_rule": "custom-list",
                                       "coeffs": [1e-310, 1, 1]}),
      "--tests", "2hyper"], "is not finite at n = 0"),
], ids=["strict-ci", "bergman", "character", "curvature", "ci-check", "curvature-quotient",
        "tilde-minor", "2hyper-subnormal"])
def test_non_finite_values_are_refused(runner, argv, quantity):
    with warnings.catch_warnings():
        # an overflow warning would be printed ahead of the diagnostic
        warnings.simplefilter("error")
        res = runner.invoke(main, argv)
    assert res.exit_code == 1
    assert res.stdout == ""
    diag = json.loads(res.stderr)
    assert diag["error"] == "NonFiniteValue"
    assert quantity in diag["message"]


def test_contraction_default_cloud_resolves_a_growing_short_list(runner):
    # the tilde coefficients (1, 3, 12, 0, 0, 0) grow at the end of a short
    # window; the default cloud must sit where that tail is resolved
    spec = json.dumps({"kind": "disc_diagonal", "coeff_rule": "custom-list",
                       "coeffs": [1, 4, 16, 16, 16, 16]})
    res = runner.invoke(main, ["check", "--kernel", spec, "--tests", "contraction"])
    assert res.exit_code == 0, res.stderr
    verdict = json.loads(res.stdout)["verdicts"]["contraction"]
    assert verdict["passed"]
    assert abs(verdict["min_eigenvalue"]) < 1e-10


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


@pytest.mark.parametrize("spec, flags, field", [
    (README_ANNULUS, ["--domain", "disc"], "'kind'"),
    (README_ANNULUS, ["--r", "0.6"], "'r'"),
    (README_ANNULUS, ["--weight", "rho"], "'weight_b'"),
    (json.dumps({"kind": "disc_diagonal", "coeff_rule": "1"}), ["--domain", "annulus"],
     "'kind'"),
    (json.dumps({"kind": "disc_diagonal", "coeff_rule": "1"}), ["--r", "0.5"], "'kind'"),
], ids=["annulus-domain", "annulus-r", "annulus-weight", "disc-domain", "disc-r"])
def test_ci_check_refuses_flags_that_contradict_spec(runner, spec, flags, field):
    res = runner.invoke(main, ["ci-check", "--kernel", spec, "--grid", "0.6:0.8:2"]
                        + flags)
    assert res.exit_code == 1
    diag = json.loads(res.stderr)
    assert diag["error"] == "ConfigError"
    assert field in diag["message"]


# ---------------------------------------------------------------------------
# import cost: scipy's heavy subpackages load only where they are used

IMPORT_PROBE = """
import json, sys
import numpy as np
import rkhs_lab.cli
heavy = ("scipy.integrate", "scipy.stats", "scipy.linalg")
loaded = [m for m in heavy if m in sys.modules]
from rkhs_lab import annulus as an, caratheodory as ca
spec = an.AnnulusSpec(r=0.5, N=50)
quad = an.weighted_bergman_kernel(spec, an.RadialWeight.from_profile(lambda rho: rho ** 2))
closed = an.weighted_bergman_kernel(spec, an.RadialWeight.power_law(2.0))
verdict = ca.generalized_ci_check(np.array([[-2.0]]), "ball", [0.0])
print(json.dumps({"loaded": loaded,
                  "quad_rel_diff": float(np.abs(quad.coeffs / closed.coeffs - 1.0).max()),
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
    assert out["loaded"] == []
    # the deferred imports still serve the quad profile; the Caratheodory check
    # needs none of them
    assert out["quad_rel_diff"] < 1e-10
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
    if int(steps) < 1:
        raise ValueError(steps)


def parses(parse, text) -> bool:
    try:
        parse(text)
    except ValueError:
        return False
    return True


@st.composite
def invocations(draw):
    """(argv with a KERNEL placeholder, how to pass the spec, the spec text,
    whether the --grid, --at, --seed or --tol value is malformed)."""
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
        return ["annulus", "--task", task, f"--r={r}", f"--weight=rho^{b}"], how, text, False
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
    return [command, "--kernel", "KERNEL"] + extra, how, text, malformed


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
        with warnings.catch_warnings(record=True) as caught:
            # record every warning, repeats included
            warnings.simplefilter("always")
            res = CliRunner().invoke(main, [source if a == "KERNEL" else a for a in argv])
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime, runtime
    assert res.exit_code in (0, 1, 2), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        repr(res.exception)
    assert "Traceback" not in res.output
    if res.exit_code == 1 or malformed:
        assert res.exit_code == 1
        assert "error" in json.loads(res.stderr)
    else:
        assert not NON_FINITE.search(res.stdout), res.stdout
