"""JSON kernel descriptions -> SeriesKernel.

Schema:
    {"kind": "disc_diagonal" | "annulus_laurent",
     "coeff_rule": "1" | "n+1" | "(n+1)^s" | "custom-list",
     "s": <float, only for "(n+1)^s">,
     "coeffs": [<floats>, ...]        (only for "custom-list"),
     "n_max": <int, optional, default 200, at most MAX_N_MAX>,
     "r": <float, required for annulus_laurent>,
     "weight_b": <float, annulus power-law exponent, default 0>}
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Union

from .errors import ConfigError

if TYPE_CHECKING:
    from . import annulus as an
    from . import kernels as kc

KINDS = ("disc_diagonal", "annulus_laurent")
#: longest truncation window a spec may ask for (n_max, or the number of coeffs
#: minus 1).  At |w| <= 0.98 the term n = 10,000 carries |w|^(2n) < 1e-175 of its
#: coefficient; a longer window costs memory and time in proportion.
MAX_N_MAX = 10_000
RULES = ("1", "n+1", "(n+1)^s", "custom-list")


def _is_number(value) -> bool:
    # JSON true and false arrive as bool, which Python counts as an int
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require(spec: dict, field: str, types):
    if field not in spec:
        raise ConfigError(f"missing field '{field}'")
    value = spec[field]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(f"field '{field}' has wrong type: {type(value).__name__}")
    return value


def _float(field: str, value) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"field '{field}' does not fit a double, got {value}")


def _n_max(spec: dict) -> int:
    from .kernels import DEFAULT_N_MAX

    n_max = spec.get("n_max", DEFAULT_N_MAX)
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1:
        raise ConfigError(f"field 'n_max' must be a positive integer, got {n_max!r}")
    if n_max > MAX_N_MAX:
        raise ConfigError(f"field 'n_max' must be at most {MAX_N_MAX}, got {n_max}")
    return n_max


def annulus_from_spec(spec: dict) -> tuple[an.AnnulusSpec, an.RadialWeight]:
    """Annulus (r and truncation N = n_max) and power-law weight of an
    annulus_laurent spec."""
    from . import annulus as an

    n_max = _n_max(spec)
    if n_max < an.MIN_N:
        raise ConfigError(f"field 'n_max' must be at least {an.MIN_N} for "
                          f"annulus_laurent, got {n_max}")
    annulus = an.AnnulusSpec(r=_float("r", _require(spec, "r", (int, float))), N=n_max)
    b = spec.get("weight_b", 0.0)
    if not _is_number(b) or not math.isfinite(_float("weight_b", b)):
        raise ConfigError(f"field 'weight_b' must be a finite number, got {b!r}")
    return annulus, an.RadialWeight.power_law(float(b))


def kernel_from_spec(spec: dict) -> kc.SeriesKernel:
    kind = _require(spec, "kind", str)
    if kind not in KINDS:
        raise ConfigError(f"field 'kind' must be one of {KINDS}, got '{kind}'")

    n_max = _n_max(spec)
    if kind == "annulus_laurent":
        from .annulus import weighted_bergman_kernel

        return weighted_bergman_kernel(*annulus_from_spec(spec))

    rule = _require(spec, "coeff_rule", str)
    if rule not in RULES:
        raise ConfigError(f"field 'coeff_rule' must be one of {RULES}, got '{rule}'")

    import numpy as np

    from . import kernels as kc

    if rule != "custom-list":
        # "1" and "n+1" are the powers s = 0 and s = 1 of (n+1)^s, bit for bit
        s = {"1": 0, "n+1": 1}.get(rule)
        if s is None:
            s = _require(spec, "s", (int, float))
        with np.errstate(over="ignore"):
            coeffs = np.arange(1.0, n_max + 2.0) ** _float("s", s)
        if not np.all(np.isfinite(coeffs) & (coeffs > 0.0)):
            raise ConfigError(f"field 's' = {s} gives coefficients that are not "
                              "finite and positive")
    else:
        raw = _require(spec, "coeffs", list)
        if not 1 <= len(raw) <= MAX_N_MAX + 1:
            raise ConfigError(f"field 'coeffs' must be a list of 1 to {MAX_N_MAX + 1} "
                              f"numbers, got {len(raw)}")
        if not all(_is_number(c) for c in raw):
            raise ConfigError("field 'coeffs' must contain only numbers")
        try:
            coeffs = np.array([float(c) for c in raw])
        except OverflowError:
            raise ConfigError("field 'coeffs' must contain only numbers that fit a double")
        if not np.all(np.isfinite(coeffs) & (coeffs > 0.0)):
            raise ConfigError("field 'coeffs' must be finite and strictly positive")
    return kc.SeriesKernel.disc(coeffs)


def load_spec(source: Union[str, dict]) -> dict:
    """Read a spec from a dict, a JSON string, or a path to a UTF-8 JSON file.
    Loads no numpy, so a spec that is not JSON is refused before it loads."""
    if isinstance(source, dict):
        return source
    text = source
    if not text.lstrip().startswith("{"):
        with open(source, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"spec file is not UTF-8 text: {exc}")
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}")
    except RecursionError:
        raise ConfigError("invalid JSON: nested too deeply to parse")
    if not isinstance(spec, dict):
        raise ConfigError("kernel spec must be a JSON object")
    return spec


def load_kernel(source: Union[str, dict]) -> kc.SeriesKernel:
    """Load a kernel from a dict, a JSON string, or a path to a JSON file."""
    return kernel_from_spec(load_spec(source))
