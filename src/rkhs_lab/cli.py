"""Command-line entry point.

Exit codes: 0 = all verdicts pass, 2 = a mathematical inequality or
classification check failed, 1 = operational error (bad config or option
text, IO, domain).  Click's own parser errors (a missing required option, a
value of the wrong type) keep click's exit code 2.
Outputs are written atomically and are bit-identical for identical configs.
A command imports the library modules it runs, and numpy with them, only
after it has read its kernel spec (``specio`` loads no numpy), so a spec
that is not JSON, or an annulus spec given to a shift command, is refused
before numpy loads.
"""

from __future__ import annotations

import errno
import functools
import json
import math
import os
import sys
import tempfile

import click

from .errors import ConfigError, KernelLabError, NotAContraction
from .specio import annulus_from_spec, kernel_from_spec, load_kernel, load_spec

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2
#: most points a --grid may ask for; each costs a kernel evaluation or more
MAX_GRID_STEPS = 100_000
LOCAL_OP_TOL = 1e-8  # default local-op --tol: the tt* residual passes while at most this
CI_CHECK_TOL = 1e-8  # default ci-check --tol: a slack below -tol violates the inequality
EXTREMAL_TOL = 1e-9  # default extremal --tol: extremality.FK_RTOL, stated here to load no numpy


def _fmt(x) -> str:
    # repr round-trips IEEE-754 doubles exactly
    if isinstance(x, complex):
        return repr(x)
    return repr(float(x))


def _write_out(text: str, out: str) -> None:
    """Write ``text`` to stdout for '-', else atomically to the path ``out``
    through a temporary file beside it.  An IO error names ``out``, not the
    temporary file; a directory is refused before one is made."""
    if not out or out == "-":
        sys.stdout.write(text)
        return
    tmp = None
    try:
        if os.path.isdir(out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out)),
                                   prefix=".rkhs-lab-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, out) from None
        raise


def _cells(column) -> list:
    """The CSV text of a column's cells.  A column that numpy reads as real
    numbers is formatted as float64 values, a column at a time; any other one
    cell by cell, a number by :func:`_fmt` and anything else by ``str``."""
    import numpy as np

    values = np.asarray(column)
    if values.dtype.kind in "iuf":
        return list(map(repr, values.astype(float).tolist()))
    return [_fmt(c) if isinstance(c, (int, float, complex)) else str(c) for c in column]


def _csv(header, columns) -> str:
    lines = map(",".join, zip(*map(_cells, columns)))
    return "\n".join([",".join(header), *lines]) + "\n"


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _rows(header, columns, fmt: str) -> str:
    """The table of equal-length columns under ``header``, as CSV or JSON rows."""
    return (_csv(header, columns) if fmt == "csv" else
            _json({"rows": [dict(zip(header, row)) for row in zip(*columns)]}))


def _parse_grid(grid: str):
    try:
        start, stop, steps = grid.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError:
        raise ConfigError(f"option --grid must be start:stop:steps, got '{grid}'")
    if not 1 <= steps <= MAX_GRID_STEPS:
        raise ConfigError(f"option --grid steps must be between 1 and {MAX_GRID_STEPS}, "
                          f"got '{grid}'")
    import numpy as np

    return np.linspace(start, stop, steps)


def _parse_at(at: str) -> complex:
    try:
        return complex(at)
    except ValueError:
        raise ConfigError(f"option --at must be a complex number, got '{at}'")


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"option --tol must be a finite number >= 0, got {tol}")


def _parse_weight(weight: str):
    """The power-law weight rho^b that ``weight`` names."""
    from .annulus import RadialWeight

    w = weight.strip()
    b = {"1": 0.0, "": 0.0, "rho": 1.0}.get(w)
    if b is None and w.startswith("rho^"):
        try:
            b = float(w[4:])
        except ValueError:
            pass
    if b is None or not math.isfinite(b):
        raise ConfigError(f"option --weight must be '1', 'rho' or 'rho^<b>' with a "
                          f"finite b, got '{weight}'")
    return RadialWeight.power_law(b)


def _command(compute):
    """Run a command body that returns (output text, exit code) and write the
    text to --out.  Computing and writing share one error boundary: a library
    or IO error, an unwritable --out included, exits 1 with a JSON diagnostic
    on stderr."""

    @functools.wraps(compute)
    def run(out, **options):
        try:
            text, code = compute(**options)
            _write_out(text, out)
        except (KernelLabError, OSError) as exc:
            click.echo(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
                       err=True)
            sys.exit(EXIT_ERROR)
        sys.exit(code)

    return run


@click.group()
def main():
    """Curvature invariants and inequality checks for diagonal kernels."""


@main.command()
@click.option("--kernel", required=True, help="kernel spec JSON file")
@click.option("--grid", default="0:0.9:10", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", default="-", show_default=True)
@_command
def curvature(kernel, grid, fmt):
    """Curvature along a radial grid."""
    kern = load_kernel(kernel)
    radii = _parse_grid(grid)
    from .curvature import curvature_scalar

    return _rows(["abs_w", "curvature"], [radii, curvature_scalar(kern, radii)], fmt), EXIT_PASS


@main.command("local-op")
@click.option("--kernel", required=True)
@click.option("--at", default="0", show_default=True)
@click.option("--tol", default=LOCAL_OP_TOL, show_default=True)
@click.option("--out", default="-", show_default=True)
@_command
def local_op(kernel, at, tol):
    """Canonical local-operator form at a point."""
    _check_tol(tol)
    kern = load_kernel(kernel)
    w = _parse_at(at)
    from .curvature import curvature_scalar
    from .localop import canonical_form, jet_gram, verify_tt_identity_gram

    gram = jet_gram(kern, w)
    form = canonical_form(gram)
    residual = verify_tt_identity_gram(gram, form)
    payload = {
        "t": [[_fmt(x) for x in row] for row in form.t.tolist()],
        "R": [[_fmt(x) for x in row] for row in form.R.tolist()],
        "curvature": curvature_scalar(kern, w),
        "residual": residual,
    }
    return _json(payload), EXIT_PASS if residual <= tol else EXIT_VIOLATION


def _shift_kernel(source):
    """The kernel of a spec for the shift commands, ``check`` and ``extremal``.
    An annulus spec is refused by its kind, with the diagnostic of
    ``kernels.require_disc`` for shift weights, before its window is built."""
    spec = load_spec(source)
    if spec.get("kind") == "annulus_laurent":
        raise ConfigError("field 'kind' must be 'disc_diagonal' for shift weights, "
                          "got 'annulus_laurent'")
    return kernel_from_spec(spec)


def _two_hyper_verdict(kern):
    """The 2-hypercontraction verdict; a non-contraction, which the test
    refuses, fails it with the contraction verdict and its min_tilde_coeff."""
    from .positivity import contraction_check, two_hypercontraction_check

    try:
        return two_hypercontraction_check(kern)
    except NotAContraction:
        return contraction_check(kern)


@main.command()
@click.option("--kernel", required=True)
@click.option("--tests", default="contraction,hyponormal,2hyper", show_default=True)
@click.option("--seed", default=0, show_default=True, help="Ignored.")
@click.option("--out", default="-", show_default=True)
@_command
def check(kernel, tests, seed):
    """Positivity / contractivity verdicts."""
    if seed < 0:
        raise ConfigError(f"option --seed must be >= 0, got {seed}")
    kern = _shift_kernel(kernel)
    from .positivity import contraction_check, hyponormal_check

    runners = {
        "contraction": contraction_check,
        "hyponormal": hyponormal_check,
        "2hyper": _two_hyper_verdict,
    }
    verdicts = {}
    for name in tests.split(","):
        name = name.strip()
        if name not in runners:
            raise ConfigError(f"option --tests names unknown test '{name}'; "
                              f"choose from {', '.join(runners)}")
        res = runners[name](kern)
        verdicts[name] = {"passed": res.passed, **res.info}
    passed = all(v["passed"] for v in verdicts.values())
    return _json({"verdicts": verdicts}), EXIT_PASS if passed else EXIT_VIOLATION


@main.command()
@click.option("--kernel", required=True)
@click.option("--at", default="0", show_default=True)
@click.option("--tol", default=EXTREMAL_TOL, show_default=True)
@click.option("--out", default="-", show_default=True)
@_command
def extremal(kernel, at, tol):
    """Extremality classification of the shift at a point."""
    _check_tol(tol)
    kern = _shift_kernel(kernel)
    zeta = _parse_at(at)
    from .extremality import classify_shift

    report = classify_shift(kern, zeta, rtol=tol)
    payload = {
        "classification": report.classification,
        "equivalent_to_backward_shift": report.equivalent_to_backward_shift,
        "fk_value": report.fk_value if math.isfinite(report.fk_value) else None,
        "fk_relative": report.fk_relative,
        "at": _fmt(zeta),
    }
    return _json(payload), EXIT_PASS


def _contradiction(option: str, value, field: str, spec_value) -> ConfigError:
    return ConfigError(f"option {option} {value} contradicts field '{field}' = "
                       f"{spec_value!r} of the kernel spec")


@main.command("ci-check")
@click.option("--kernel", required=True)
@click.option("--domain", type=click.Choice(["disc", "annulus"]), default=None,
              help="must match the spec's kind")
@click.option("--r", type=float, default=None, help="must match the spec's r")
@click.option("--weight", default=None, help="must match the spec's weight_b")
@click.option("--grid", default="0:0.9:20", show_default=True)
@click.option("--tol", default=CI_CHECK_TOL, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", default="-", show_default=True)
@_command
def ci_check(kernel, domain, r, weight, grid, tol, fmt):
    """Curvature-inequality slack along a grid.

    The spec decides the domain: -(1 - |w|^2)^-2 on the disc,
    -4 pi^2 S(w, w)^2 with the Szego kernel S of the spec's annulus.
    """
    radii = _parse_grid(grid)
    _check_tol(tol)
    spec = load_spec(kernel)
    kern = kernel_from_spec(spec)
    annulus, kind = kern.inner_radius is not None, spec["kind"]
    if domain is not None and domain != ("annulus" if annulus else "disc"):
        raise _contradiction("--domain", domain, "kind", kind)
    if annulus:
        aspec, wobj = annulus_from_spec(spec)
        if r is not None and r != aspec.r:
            raise _contradiction("--r", r, "r", aspec.r)
        if weight is not None and _parse_weight(weight).b != wobj.b:
            raise _contradiction("--weight", weight, "weight_b", wobj.b)
    elif r is not None:
        raise _contradiction("--r", r, "kind", kind)
    elif weight is not None:
        raise _contradiction("--weight", weight, "kind", kind)
    szego = None
    if annulus:
        from .annulus import szego_kernel
        from .kernels import diagonal_values

        szego = diagonal_values(szego_kernel(aspec), radii)
    from .curvature import ci_slack

    curv, bound, slack = ci_slack(kern, radii, szego)
    columns = [radii, curv, bound, slack, ["with4pi2"] * radii.size]
    return (_rows(["abs_w", "curvature", "bound", "slack", "normalization"], columns, fmt),
            EXIT_VIOLATION if (slack < -tol).any() else EXIT_PASS)


@main.command()
@click.option("--r", default=0.5, show_default=True)
@click.option("--weight", default="1", show_default=True)
@click.option("--task", type=click.Choice(["szego", "bergman", "strict-ci",
                                           "character"]), required=True)
@click.option("--grid", default="0.55:0.9:20", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", default="-", show_default=True)
@_command
def annulus(r, weight, task, grid, fmt):
    """Annulus kernels, strict inequality slack, and weight characters."""
    from . import annulus as an
    from .curvature import curvature_scalar
    from .kernels import diagonal_values

    spec = an.AnnulusSpec(r=r)
    wobj = _parse_weight(weight)
    if task == "character":
        char = an.character_of_weight(spec, wobj)
        payload = {
            "gamma": _fmt(char.gamma),
            "period": char.period,
            "period_alternate": -char.period,
            "r": r,
        }
        return _json(payload), EXIT_PASS
    radii = _parse_grid(grid)
    violated = False
    if task == "szego":
        columns = [radii, diagonal_values(an.szego_kernel(spec), radii),
                   ["1/(2pi)"] * radii.size]
        header = ["abs_w", "szego_diag", "normalization"]
    elif task == "bergman":
        kern = an.weighted_bergman_kernel(spec, wobj)
        columns = [radii, diagonal_values(kern, radii), curvature_scalar(kern, radii)]
        header = ["abs_w", "kernel_diag", "curvature"]
    else:
        kern = an.weighted_bergman_kernel(spec, wobj)
        slack = an.strict_ci_check(spec, wobj, radii, kernel=kern)
        columns = [radii, slack, ["with4pi2"] * radii.size]
        header = ["abs_w", "slack", "normalization"]
        violated = any(s <= 0.0 for s in slack)
    return _rows(header, columns, fmt), EXIT_VIOLATION if violated else EXIT_PASS


if __name__ == "__main__":
    main()
