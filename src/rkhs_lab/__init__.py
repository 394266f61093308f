"""Curvature invariants of reproducing-kernel operators and the machinery
to verify the inequalities and classifications built on them.

The package loads lazily: ``import rkhs_lab`` loads no submodule and no
numpy.  ``rkhs_lab.X`` (or ``from rkhs_lab import X``) imports X's home
module on first use, as ``rkhs_lab.kernels`` imports that submodule."""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "annulus": ("AnnulusSpec", "Character", "RadialWeight", "character_equivalence",
                "character_of_weight", "extremal_problem_ls", "extremal_problem_value",
                "strict_ci_check", "szego_kernel", "weighted_bergman_kernel"),
    "caratheodory": ("cara_norm", "generalized_ci_check"),
    "curvature": ("curvature_matrix", "curvature_scalar", "mobius_rule_check"),
    "extremality": ("classify_shift", "uniqueness_pipeline_check"),
    "kernels": ("ClosedFormKernel", "SeriesKernel", "eval_kernel", "jet", "mobius_map",
                "mobius_pullback", "normalize_at", "tilde_kernel"),
    "localop": ("canonical_form", "jet_gram", "verify_tt_identity",
                "verify_tt_identity_gram"),
    "positivity": ("contraction_check", "gram_decrease_check", "hyponormal_check",
                   "psd_check", "two_hypercontraction_check"),
    "specio": ("load_kernel",),
}
#: home module of every name the package exports
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOMES or name == "errors":
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
