"""What a CLI call and ``import rkhs_lab`` load: the package resolves its
names on first use, and a command imports only the modules it runs, after
it has read its spec, so a spec error is refused before numpy loads.  Each
case runs in a fresh interpreter, which loads nothing in advance."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rkhs_lab

SRC = str(Path(rkhs_lab.__file__).resolve().parents[1])
GEOMETRIC = json.dumps({"kind": "disc_diagonal", "coeff_rule": "1"})
ANNULUS = json.dumps({"kind": "annulus_laurent", "r": 0.5, "weight_b": 1})

#: runs a CLI call, then prints numpy and the rkhs_lab modules loaded as the
#: last line of stdout; sys.exit runs the atexit hook
CLI_PROBE = """
import atexit, json, sys
atexit.register(lambda: print(json.dumps(sorted(
    m for m in sys.modules if m == "numpy" or m.split(".")[0] == "rkhs_lab"))))
from rkhs_lab.cli import main
main(sys.argv[1:], prog_name="rkhs-lab")
"""


def run_python(code, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def loaded_after(statement):
    proc = run_python(f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def cli_call(*argv):
    """(exit code, stdout without the probe line, stderr, modules loaded)."""
    proc = run_python(CLI_PROBE, *argv)
    *out, modules = proc.stdout.splitlines()
    return proc.returncode, "\n".join(out), proc.stderr, set(json.loads(modules))


@pytest.mark.parametrize("statement", ["import rkhs_lab", "import rkhs_lab.cli"])
def test_importing_the_package_or_the_cli_loads_no_numpy(statement):
    loaded = loaded_after(statement)
    assert "numpy" not in loaded
    assert {"rkhs_lab.kernels", "rkhs_lab.annulus"}.isdisjoint(loaded)


@pytest.mark.parametrize("case, error", [("bad-json", "ConfigError"),
                                         ("missing-file", "FileNotFoundError")])
def test_a_spec_error_exits_1_with_json_before_numpy_loads(case, error, tmp_path):
    kernel = GEOMETRIC[:15] if case == "bad-json" else str(tmp_path / "missing.json")
    code, out, err, loaded = cli_call("curvature", "--kernel", kernel)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == error
    assert "numpy" not in loaded


@pytest.mark.parametrize("command", ["check", "extremal"])
def test_a_shift_command_refuses_an_annulus_spec_before_numpy_loads(command):
    code, out, err, loaded = cli_call(command, "--kernel", ANNULUS)
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "ConfigError",
                               "message": "field 'kind' must be 'disc_diagonal' for shift "
                                          "weights, got 'annulus_laurent'"}
    assert "numpy" not in loaded


def test_a_disc_curvature_loads_only_the_modules_it_runs():
    code, out, err, loaded = cli_call("curvature", "--kernel", GEOMETRIC, "--grid", "0:0.5:3")
    assert code == 0, err
    assert out.startswith("abs_w,curvature\n")
    assert {m for m in loaded if m.startswith("rkhs_lab")} == {
        "rkhs_lab", "rkhs_lab.cli", "rkhs_lab.errors", "rkhs_lab.specio",
        "rkhs_lab.kernels", "rkhs_lab.curvature"}


@pytest.mark.parametrize("name", rkhs_lab.__all__)
def test_every_exported_name_is_its_home_modules_object(name):
    value = getattr(rkhs_lab, name)
    home = sys.modules[value.__module__]
    assert home.__name__.startswith("rkhs_lab.")
    assert getattr(home, name) is value


SUBMODULES = ["annulus", "caratheodory", "curvature", "errors", "extremality", "kernels",
              "localop", "positivity", "specio"]


def test_every_submodule_resolves_as_an_attribute_in_a_fresh_interpreter():
    # the eager package imported these, so rkhs_lab.<module> resolved after import rkhs_lab
    proc = run_python("import rkhs_lab\n"
                      f"for m in {SUBMODULES!r}: print(getattr(rkhs_lab, m).__name__)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [f"rkhs_lab.{m}" for m in SUBMODULES]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rkhs_lab.no_such_name
    assert isinstance(rkhs_lab.__version__, str)
