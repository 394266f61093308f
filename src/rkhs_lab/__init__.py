"""Curvature invariants of reproducing-kernel operators and the machinery
to verify the inequalities and classifications built on them."""

from .annulus import (AnnulusSpec, Character, RadialWeight, character_equivalence,
                      character_of_weight, extremal_problem_ls,
                      extremal_problem_value, strict_ci_check, szego_kernel,
                      weighted_bergman_kernel)
from .caratheodory import cara_norm, generalized_ci_check, szego_disc
from .curvature import curvature_matrix, curvature_scalar, curvature_values, mobius_rule_check
from .extremality import classify_shift, uniqueness_pipeline_check
from .kernels import (ClosedFormKernel, SeriesKernel, eval_kernel, jet,
                      mobius_map, mobius_pullback, normalize_at, tilde_kernel)
from .localop import canonical_form, jet_gram, verify_tt_identity, verify_tt_identity_gram
from .positivity import (contraction_check, gram_decrease_check, hyponormal_check,
                         psd_check, two_hypercontraction_check)
from .specio import load_kernel

__version__ = "0.1.0"
