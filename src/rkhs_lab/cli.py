"""Command-line entry point.

Exit codes: 0 = all verdicts pass, 2 = a mathematical inequality or
classification check failed, 1 = operational error (bad config or option
text, IO, domain).  Click's own parser errors (a missing required option, a
value of the wrong type) keep click's exit code 2.
Outputs are written atomically and are bit-identical for identical configs.
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile

import click
import numpy as np

from . import annulus as an
from . import kernels as kc
from .curvature import ci_slack, curvature_scalar
from .errors import ConfigError, KernelLabError
from .extremality import classify_shift
from .localop import canonical_form, jet_gram, verify_tt_identity_gram
from .positivity import (contraction_check, hyponormal_check,
                         two_hypercontraction_check)
from .specio import annulus_from_spec, kernel_from_spec, load_kernel, load_spec

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2


def _fmt(x) -> str:
    # repr round-trips IEEE-754 doubles exactly
    if isinstance(x, complex):
        return repr(x)
    return repr(float(x))


def _write_out(text: str, out: str) -> None:
    if not out or out == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rkhs-lab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header, rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(c) if isinstance(c, (int, float, complex))
                           else str(c) for c in row) + "\n")
    return buf.getvalue()


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_rows(header, rows, fmt: str, out: str) -> None:
    _write_out(_csv(header, rows) if fmt == "csv" else
               _json({"rows": [dict(zip(header, row)) for row in rows]}), out)


def _parse_grid(grid: str):
    try:
        start, stop, steps = grid.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError:
        raise ConfigError(f"option --grid must be start:stop:steps, got '{grid}'")
    if steps < 1:
        raise ConfigError(f"option --grid steps must be >= 1, got '{grid}'")
    return np.linspace(start, stop, steps)


def _parse_at(at: str) -> complex:
    try:
        return complex(at)
    except ValueError:
        raise ConfigError(f"option --at must be a complex number, got '{at}'")


def _check_tol(tol: float) -> None:
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"option --tol must be a finite number >= 0, got {tol}")


def _parse_weight(weight: str) -> an.RadialWeight:
    w = weight.strip()
    b = {"1": 0.0, "": 0.0, "rho": 1.0}.get(w)
    if b is None and w.startswith("rho^"):
        try:
            b = float(w[4:])
        except ValueError:
            pass
    if b is None or not np.isfinite(b):
        raise ConfigError(f"option --weight must be '1', 'rho' or 'rho^<b>' with a "
                          f"finite b, got '{weight}'")
    return an.RadialWeight.power_law(b)


def _fail(exc: Exception) -> None:
    diag = {"error": type(exc).__name__, "message": str(exc)}
    click.echo(json.dumps(diag), err=True)
    sys.exit(EXIT_ERROR)


@click.group()
def main():
    """Curvature invariants and inequality checks for diagonal kernels."""


@main.command()
@click.option("--kernel", required=True, help="kernel spec JSON file")
@click.option("--grid", default="0:0.9:10", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", default="-", show_default=True)
def curvature(kernel, grid, fmt, out):
    """Curvature along a radial grid."""
    try:
        kern = load_kernel(kernel)
        radii = _parse_grid(grid)
        rows = [(r, curvature_scalar(kern, complex(r))) for r in radii]
    except (KernelLabError, OSError) as exc:
        _fail(exc)
    _write_rows(["abs_w", "curvature"], rows, fmt, out)
    sys.exit(EXIT_PASS)


@main.command("local-op")
@click.option("--kernel", required=True)
@click.option("--at", default="0", show_default=True)
@click.option("--tol", default=1e-8, show_default=True)
@click.option("--out", default="-", show_default=True)
def local_op(kernel, at, tol, out):
    """Canonical local-operator form at a point."""
    try:
        _check_tol(tol)
        kern = load_kernel(kernel)
        w = _parse_at(at)
        gram = jet_gram(kern, w)
        form = canonical_form(gram)
        residual = verify_tt_identity_gram(gram, form)
        curv = curvature_scalar(kern, w)
    except (KernelLabError, OSError) as exc:
        _fail(exc)
    payload = {
        "t": [[_fmt(x) for x in row] for row in form.t.tolist()],
        "R": [[_fmt(x) for x in row] for row in form.R.tolist()],
        "curvature": curv,
        "residual": residual,
    }
    _write_out(_json(payload), out)
    sys.exit(EXIT_PASS if residual <= tol else EXIT_VIOLATION)


@main.command()
@click.option("--kernel", required=True)
@click.option("--tests", default="contraction,hyponormal,2hyper", show_default=True)
@click.option("--seed", default=2024, show_default=True)
@click.option("--out", default="-", show_default=True)
def check(kernel, tests, seed, out):
    """Positivity / contractivity verdicts."""
    runners = {
        "contraction": lambda k: contraction_check(k, seed=seed),
        "hyponormal": hyponormal_check,
        "2hyper": two_hypercontraction_check,
    }
    try:
        if seed < 0:
            raise ConfigError(f"option --seed must be >= 0, got {seed}")
        kern = load_kernel(kernel)
        verdicts = {}
        for name in tests.split(","):
            name = name.strip()
            if name not in runners:
                raise ConfigError(f"option --tests names unknown test '{name}'; "
                                  f"choose from {', '.join(runners)}")
            res = runners[name](kern)
            verdicts[name] = {"passed": bool(res),
                              "min_eigenvalue": res.min_eigenvalue}
    except (KernelLabError, OSError) as exc:
        _fail(exc)
    _write_out(_json({"seed": seed, "verdicts": verdicts}), out)
    sys.exit(EXIT_PASS if all(v["passed"] for v in verdicts.values())
             else EXIT_VIOLATION)


@main.command()
@click.option("--kernel", required=True)
@click.option("--at", default="0", show_default=True)
@click.option("--tol", default=1e-9, show_default=True)
@click.option("--out", default="-", show_default=True)
def extremal(kernel, at, tol, out):
    """Extremality classification of the shift at a point."""
    try:
        _check_tol(tol)
        kern = load_kernel(kernel)
        zeta = _parse_at(at)
        report = classify_shift(kern, zeta, rtol=tol)
    except (KernelLabError, OSError) as exc:
        _fail(exc)
    payload = {
        "classification": report.classification,
        "equivalent_to_backward_shift": report.equivalent_to_backward_shift,
        "fk_value": report.fk_value,
        "at": _fmt(zeta),
    }
    _write_out(_json(payload), out)
    sys.exit(EXIT_PASS)


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
@click.option("--tol", default=1e-8, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", default="-", show_default=True)
def ci_check(kernel, domain, r, weight, grid, tol, fmt, out):
    """Curvature-inequality slack along a grid.

    The spec decides the domain: -(1 - |w|^2)^-2 on the disc,
    -4 pi^2 S(w, w)^2 with the Szego kernel S of the spec's annulus.
    """
    try:
        radii = _parse_grid(grid)
        _check_tol(tol)
        spec = load_spec(kernel)
        kern = kernel_from_spec(spec)
        annulus = kern.kind == kc.ANNULUS_LAURENT
        if domain is not None and domain != ("annulus" if annulus else "disc"):
            raise _contradiction("--domain", domain, "kind", kern.kind)
        if annulus:
            aspec, wobj = annulus_from_spec(spec)
            if r is not None and r != aspec.r:
                raise _contradiction("--r", r, "r", aspec.r)
            if weight is not None and _parse_weight(weight).b != wobj.b:
                raise _contradiction("--weight", weight, "weight_b", wobj.b)
        elif r is not None:
            raise _contradiction("--r", r, "kind", kern.kind)
        elif weight is not None:
            raise _contradiction("--weight", weight, "kind", kern.kind)
        rows = []
        for x in radii:
            s = an.szego_annulus(aspec, complex(x), complex(x)).real if annulus else None
            rows.append((x, *ci_slack(kern, complex(x), s), "with4pi2"))
    except (KernelLabError, OSError) as exc:
        _fail(exc)
    violated = any(slack < -tol for _, _, _, slack, _ in rows)
    _write_rows(["abs_w", "curvature", "bound", "slack", "normalization"], rows, fmt, out)
    sys.exit(EXIT_VIOLATION if violated else EXIT_PASS)


@main.command()
@click.option("--r", default=0.5, show_default=True)
@click.option("--weight", default="1", show_default=True)
@click.option("--task", type=click.Choice(["szego", "bergman", "strict-ci",
                                           "character"]), required=True)
@click.option("--grid", default="0.55:0.9:20", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", default="-", show_default=True)
def annulus(r, weight, task, grid, fmt, out):
    """Annulus kernels, strict inequality slack, and weight characters."""
    try:
        spec = an.AnnulusSpec(r=r)
        wobj = _parse_weight(weight)
        if task == "character":
            char = an.character_of_weight(spec, wobj)
            payload = {
                "gamma": _fmt(char.gammas[0]),
                "period": char.periods[0],
                "period_alternate": char.periods_alternate[0],
                "r": r,
            }
            _write_out(_json(payload), out)
            sys.exit(EXIT_PASS)
        radii = _parse_grid(grid)
        rows = []
        if task == "szego":
            kern = an.szego_kernel(spec)
            for x in radii:
                rows.append((x, kc.eval_kernel(kern, complex(x), complex(x)).real,
                             "1/(2pi)"))
            header = ["abs_w", "szego_diag", "normalization"]
        elif task == "bergman":
            kern = an.weighted_bergman_kernel(spec, wobj)
            for x in radii:
                rows.append((x, kc.eval_kernel(kern, complex(x), complex(x)).real,
                             curvature_scalar(kern, complex(x))))
            header = ["abs_w", "kernel_diag", "curvature"]
        else:
            kern = an.weighted_bergman_kernel(spec, wobj)
            for x in radii:
                rows.append((x, an.strict_ci_check(spec, wobj, complex(x), kernel=kern),
                             "with4pi2"))
            header = ["abs_w", "slack", "normalization"]
    except (KernelLabError, OSError) as exc:
        _fail(exc)
    violated = task == "strict-ci" and any(slack <= 0.0 for _, slack, _ in rows)
    _write_rows(header, rows, fmt, out)
    sys.exit(EXIT_VIOLATION if violated else EXIT_PASS)


if __name__ == "__main__":
    main()
