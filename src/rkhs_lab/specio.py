"""JSON kernel descriptions -> SeriesKernel.

Schema:
    {"kind": "disc_diagonal" | "annulus_laurent",
     "coeff_rule": "1" | "n+1" | "(n+1)^s" | "custom-list",
     "s": <float, only for "(n+1)^s">,
     "coeffs": [<floats>, ...]        (only for "custom-list"),
     "n_max": <int, optional, default 200>,
     "r": <float, required for annulus_laurent>,
     "weight_b": <float, annulus power-law exponent, default 0>}
"""

from __future__ import annotations

import json
from typing import Union

import numpy as np

from . import annulus as an
from . import kernels as kc
from .errors import ConfigError

KINDS = ("disc_diagonal", "annulus_laurent")
RULES = ("1", "n+1", "(n+1)^s", "custom-list")


def _require(spec: dict, field: str, types):
    if field not in spec:
        raise ConfigError(f"missing field '{field}'")
    value = spec[field]
    if not isinstance(value, types):
        raise ConfigError(f"field '{field}' has wrong type: {type(value).__name__}")
    return value


def _float(field: str, value) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"field '{field}' does not fit a double, got {value}")


def _n_max(spec: dict) -> int:
    n_max = spec.get("n_max", kc.DEFAULT_N_MAX)
    if not isinstance(n_max, int) or n_max < 1:
        raise ConfigError(f"field 'n_max' must be a positive integer, got {n_max!r}")
    return n_max


def annulus_from_spec(spec: dict) -> tuple[an.AnnulusSpec, an.RadialWeight]:
    """Annulus (r and truncation N = n_max) and power-law weight of an
    annulus_laurent spec."""
    n_max = _n_max(spec)
    if n_max < an.MIN_N:
        raise ConfigError(f"field 'n_max' must be at least {an.MIN_N} for "
                          f"annulus_laurent, got {n_max}")
    annulus = an.AnnulusSpec(r=_float("r", _require(spec, "r", (int, float))), N=n_max)
    b = spec.get("weight_b", 0.0)
    if not isinstance(b, (int, float)):
        raise ConfigError(f"field 'weight_b' must be a number, got {b!r}")
    return annulus, an.RadialWeight.power_law(_float("weight_b", b))


def kernel_from_spec(spec: dict) -> kc.SeriesKernel:
    kind = _require(spec, "kind", str)
    if kind not in KINDS:
        raise ConfigError(f"field 'kind' must be one of {KINDS}, got '{kind}'")

    n_max = _n_max(spec)
    if kind == "annulus_laurent":
        return an.weighted_bergman_kernel(*annulus_from_spec(spec))

    rule = _require(spec, "coeff_rule", str)
    if rule not in RULES:
        raise ConfigError(f"field 'coeff_rule' must be one of {RULES}, got '{rule}'")

    n = np.arange(n_max + 1, dtype=float)
    if rule == "1":
        coeffs = np.ones(n_max + 1)
    elif rule == "n+1":
        coeffs = n + 1.0
    elif rule == "(n+1)^s":
        s = _require(spec, "s", (int, float))
        with np.errstate(over="ignore"):
            coeffs = (n + 1.0) ** _float("s", s)
        if not np.all(np.isfinite(coeffs) & (coeffs > 0.0)):
            raise ConfigError(f"field 's' = {s} gives coefficients that are not "
                              "finite and positive")
    else:
        raw = _require(spec, "coeffs", list)
        if not raw:
            raise ConfigError("field 'coeffs' must be a non-empty list")
        try:
            coeffs = np.array([float(c) for c in raw])
        except (TypeError, ValueError, OverflowError):
            raise ConfigError("field 'coeffs' must contain only numbers that fit a double")
        if not np.all(np.isfinite(coeffs) & (coeffs > 0.0)):
            raise ConfigError("field 'coeffs' must be finite and strictly positive")
    return kc.SeriesKernel.disc(coeffs)


def load_spec(source: Union[str, dict]) -> dict:
    """Read a spec from a dict, a JSON string, or a path to a JSON file."""
    if isinstance(source, dict):
        return source
    text = source
    if not text.lstrip().startswith("{"):
        with open(source, "r") as fh:
            text = fh.read()
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}")
    if not isinstance(spec, dict):
        raise ConfigError("kernel spec must be a JSON object")
    return spec


def load_kernel(source: Union[str, dict]) -> kc.SeriesKernel:
    """Load a kernel from a dict, a JSON string, or a path to a JSON file."""
    return kernel_from_spec(load_spec(source))
