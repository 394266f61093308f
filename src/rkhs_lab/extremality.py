"""Extremality machinery: the F_K functional, shift classification, and the
numerical replay of the uniqueness argument for curvature-extremal contractions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import curvature as cv
from . import kernels as kc
from .errors import ConfigError, NonFiniteValue, NotAContraction, NotPositiveDefinite
from .positivity import (gram_decrease_check, hyponormal_check, inverse_factor,
                         is_contraction, shift_kernel, shift_weights,
                         two_hypercontraction_check)

FK_RTOL = 1e-9  # |fk| <= FK_RTOL * Ktilde(z, z)^2 counts as curvature equality
WEIGHT_TOL = 1e-8
# a pipeline step passes within STEP_TOL of its target: curvature -1 at 0,
# |V1|^2 = 1, and the unit norms and zero off-diagonal of the monomial Gram
STEP_TOL = 1e-8
NORMALIZATION_TOL = 1e-10  # |V0|^2 = L(0, 0) = 1 holds to roundoff
DEFAULT_TRUNCATION = 150

CLASS_EXTREMAL_EVERYWHERE = "ExtremalEverywhere"
CLASS_EXTREMAL_AT_ZERO = "ExtremalAtZeroOnly"
CLASS_NOT_EXTREMAL = "NotExtremal"


@dataclass(frozen=True)
class ExtremalityReport:
    fk_value: float  # may overflow to inf or underflow to 0; the verdict reads fk_relative
    fk_relative: float  # F_K / Ktilde(zeta, zeta)^2, the number compared with rtol
    classification: str
    equivalent_to_backward_shift: bool


@dataclass(frozen=True)
class StepResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class PipelineReport:
    steps: list
    truncation: int = DEFAULT_TRUNCATION
    assumptions = ("polynomial-density",)  # recorded, never verified; not a field

    @property
    def failed_step(self) -> Optional[str]:
        """Name of the first step that failed, None when every step passed."""
        return next((s.name for s in self.steps if not s.passed), None)

    @property
    def passed(self) -> bool:
        return self.failed_step is None


def _tilde_minor(kernel: kc.SeriesKernel, zeta: complex) -> tuple[float, float]:
    """Order-1 Gram determinant of the tilde jet at zeta, and that determinant
    over Ktilde(zeta, zeta)^2, which is minus the curvature of the tilde kernel
    (:func:`curvature.rank1_curvature` of its real diagonal sums): scale-free,
    where the determinant's own products underflow or overflow.

    Raises NotAContraction unless :func:`is_contraction` holds, and the
    refusals of :func:`curvature.rank1_curvature`, NonFiniteValue among them
    when the ratio, which decides every verdict, is not finite.
    """
    if not is_contraction(kernel):
        raise NotAContraction("kernel coefficients must be non-decreasing")
    j00, j01, j11 = cv.order1_sums(kc.tilde_kernel(kernel), zeta)
    return j00 * j11 - j01 * j01, -cv.rank1_curvature(j00, j01, j11, zeta)


def classify_shift(kernel: kc.SeriesKernel, zeta: complex,
                   rtol: float = FK_RTOL) -> ExtremalityReport:
    """Trichotomy for contractive diagonal shifts at a point.

    Equality at zeta != 0 forces the backward shift; equality only at 0 is
    possible for non-hyponormal weights (the negative answer to the
    uniqueness question at the origin).
    """
    kernel = shift_kernel(kernel)
    fk, relative = _tilde_minor(kernel, zeta)
    at_point = abs(relative) <= rtol  # |F_K| <= rtol Ktilde(zeta, zeta)^2
    weights_all_one = bool(np.all(np.abs(shift_weights(kernel) - 1.0) <= WEIGHT_TOL))
    if not at_point:
        classification, equivalent = CLASS_NOT_EXTREMAL, False
    elif zeta:
        # equality away from the origin propagates everywhere
        classification, equivalent = CLASS_EXTREMAL_EVERYWHERE, weights_all_one
    elif weights_all_one or hyponormal_check(kernel).passed:
        # equality at 0 alone; hyponormality (or directly w_n = 1) upgrades it
        classification, equivalent = CLASS_EXTREMAL_EVERYWHERE, True
    else:
        classification, equivalent = CLASS_EXTREMAL_AT_ZERO, False
    return ExtremalityReport(fk_value=fk, fk_relative=relative, classification=classification,
                             equivalent_to_backward_shift=equivalent)


# ---------------------------------------------------------------------------
# series plumbing for the conjugated pipeline

def _series_inverse(u: np.ndarray) -> np.ndarray:
    """Power-series inverse v with (u * v) = 1 + O(z^len)."""
    v = np.zeros_like(u)
    v[0] = 1.0 / u[0]
    for k in range(1, u.size):
        v[k] = -np.dot(u[1:k + 1], v[k - 1::-1]) / u[0]
    return v


def _toeplitz(row: np.ndarray) -> np.ndarray:
    """Lower triangular T[i, j] = row[i - j], so T x is the truncated product row * x:
    a read-only view, with strides (s, -s), of the row after row.size - 1 zeros."""
    size = row.size
    padded = np.concatenate([np.zeros(size - 1, dtype=row.dtype), row])
    step = padded.strides[0]
    return np.lib.stride_tricks.as_strided(padded[size - 1:], (size, size), (step, -step),
                                           writeable=False)


def _power_rows(psi: np.ndarray, count: int) -> np.ndarray:
    """Rows P[n] = psi^n (n < count, truncated): rows m+1..2m are rows 1..m psi^m."""
    P = np.zeros((count, psi.size), dtype=psi.dtype)
    P[0, 0] = 1.0
    P[1:2] = psi  # an empty slice when count = 1
    m = 1
    while m + 1 < count:
        P[m + 1:2 * m + 1] = P[1:m + 1][:count - 1 - m] @ _toeplitz(P[m]).T
        m *= 2
    return P


def _pullback_at_modulus(kernel: kc.SeriesKernel, zeta: complex, truncation: int) -> np.ndarray:
    """:func:`normalized_pullback_coeffs` at r = |zeta|, in float64; a refusal names zeta."""
    size = truncation + 1
    with np.errstate(over="ignore", invalid="ignore"):
        # C is normalized, so its sums take a / a_0, refused where that overflows
        a = _finite(kernel.coeffs / kernel.coeffs[0], zeta, "a_n / a_0")
        if not zeta:
            return np.diag(np.concatenate([a[:size], np.zeros(size - a[:size].size)]))
        # psi = inverse of the conjugated automorphism: psi(z) = (z + r) / (1 + r z), r = |zeta|
        psi = np.convolve([abs(zeta), 1.0], np.power(-abs(zeta), np.arange(size)))[:size]
        # rows P[n] = psi^n, so C = sum_n a_n P[n]^T P[n] is one product
        P = _power_rows(psi, a.size)
        C = _finite((P.T * a) @ P, zeta, "pullback")
        # normalize at 0: divide by f(z) = L(z, 0) on both slots, scale to 1 at 0
        F = _toeplitz(_series_inverse(C[:, 0]))
        return _finite(C[0, 0] * (F @ C @ F.T), zeta, "normalized pullback")


def _finite(C: np.ndarray, zeta: complex, stage: str) -> np.ndarray:
    """C, refused with NonFiniteValue naming the stage and zeta unless every entry is finite."""
    if not np.isfinite(C).all():
        raise NonFiniteValue(f"{stage} coefficients at zeta = {zeta} leave the double range")
    return C


def normalized_pullback_coeffs(kernel: kc.SeriesKernel, zeta: complex,
                               truncation: int = DEFAULT_TRUNCATION) -> np.ndarray:
    """Taylor coefficients C[i, j] of the kernel of phi_zeta(T), normalized at 0.

    L(z, w) = sum C[i, j] z^i conj(w)^j with L(z, 0) = 1; C is also the Gram
    matrix of the jet vectors V_j = dbar^j L(., 0) / j!.  The kernel is rotation
    invariant, so C at zeta = r e^(i theta) is the real C(r) rotated, d_i C[i, j]
    conj(d_j) with d_i = e^(i i theta): real when zeta is.  Raises
    NonFiniteValue, naming zeta, where the coefficients over a_0 or its sums
    leave the double range; a kernel on the annulus or a ``truncation`` that
    is not an integer >= 0 with ConfigError, a zeta off the disc with
    PointOutsideDomain.
    """
    kc.require_disc(kernel, "the normalized pullback")
    kc.check_point(kernel, zeta)
    if (isinstance(truncation, bool) or not isinstance(truncation, (int, np.integer))
            or truncation < 0):
        raise ConfigError(f"field 'truncation' must be an integer >= 0, got {truncation!r}")
    phase = complex(zeta) / abs(zeta) if zeta else 1.0
    d = np.power(phase if phase.imag else phase.real, np.arange(truncation + 1))
    return d[:, None] * _pullback_at_modulus(kernel, zeta, truncation) * d.conj()


def uniqueness_pipeline_check(kernel: kc.SeriesKernel, zeta: complex = 0.0) -> PipelineReport:
    """Replay the uniqueness argument step by step on a diagonal model.

    Conjugates the shift so the equality point moves to the origin, at |zeta|
    (every step reads a congruence invariant, which a rotation keeps), checks
    contractivity, the 2-hypercontraction inequality, curvature equality at
    0, the jet-vector norms, and the Gram-decrease chain that forces the
    monomials to be orthonormal, on the first DEFAULT_TRUNCATION + 1
    coefficients (fewer away from 0).  The curvature and norm steps read the
    corner C[:2, :2] alone, so the full C is built only once they pass.  At
    zeta = 0, C = diag(a_n / a_0), and the Gram steps replay on its diagonal
    in O(n): :func:`inverse_factor` and :func:`gram_decrease_check` take a
    vector for the diagonal matrix, with the same rules and reports.
    Polynomial density is recorded as an assumption, never verified.  A zeta
    off the disc is refused with PointOutsideDomain.
    """
    kernel = shift_kernel(kernel)
    kc.check_point(kernel, zeta)
    truncation = DEFAULT_TRUNCATION
    if zeta:
        # coefficients of psi^n spread over indices >= n (1-|zeta|)/(1+|zeta|);
        # beyond that fraction of the window the truncated sum is unreliable
        edge = (1.0 - abs(zeta)) / (1.0 + abs(zeta))
        truncation = min(truncation, max(10, int(0.7 * kernel.n_max * edge)))
    steps: list[StepResult] = []

    def run(name: str, passed, detail: str = "") -> bool:
        passed = bool(passed)  # a numpy comparison gives a numpy bool
        steps.append(StepResult(name=name, passed=passed, detail=detail))
        return passed

    ok = run("contraction", is_contraction(kernel), "tilde coefficients non-negative")
    if ok:
        hyper = two_hypercontraction_check(kernel)
        ok = run("two-hypercontraction", hyper.passed,
                 "min of 1/a_n - 2/a_(n+1) + 1/a_(n+2) = "
                 f"{hyper.info['min_expression']:.3e}")
    if ok:
        # F is lower triangular, so the corner C[:2, :2] that the next two
        # steps read is the pullback at truncation 1; the full C waits for them
        (c00, c01), (_, c11) = _pullback_at_modulus(kernel, zeta, 1).tolist()
        curv0 = cv.rank1_curvature(c00, c01, c11, 0.0)
        ok = run("curvature-equality-at-zero", abs(curv0 + 1.0) <= STEP_TOL,
                 f"curvature at 0 after conjugation = {curv0:.12f}")
    if ok:
        ok = run("jet-vector-norms", abs(c00 - 1.0) <= NORMALIZATION_TOL
                 and abs(c11 - 1.0) <= STEP_TOL,
                 f"|V0|^2 = {c00:.12f}, |V1|^2 = {c11:.12f}")
    if ok:
        C = _pullback_at_modulus(kernel, zeta, truncation)
        if not zeta:
            # C = diag(a_n / a_0) at the origin, and so are P and G = C^-1:
            # the Gram steps take the diagonal for the matrix it stands for
            C = np.diagonal(C)
        try:
            P = inverse_factor(C)
        except NotPositiveDefinite as exc:
            ok = run("monomial-gram", False, str(exc))
    if ok:
        if P.ndim == 2:
            G = P @ P.T  # C^-1
            g = np.diagonal(G)
            off = float(np.abs(G - np.diag(g)).max())
        else:
            G = g = P * P
            off = 0.0
        lead, trail = (np.s_[:truncation - 1],) * G.ndim, (np.s_[1:truncation],) * G.ndim
        dec = gram_decrease_check(G[lead], G[trail])
        ok = run("gram-decrease-chain", dec.passed,
                 f"min eig of G_v - G_Av = {dec.info['min_eigenvalue']:.3e}")
    if ok:
        norms = np.abs(g - 1.0).max()
        ok = run("monomial-orthonormality", norms <= STEP_TOL and off <= STEP_TOL,
                 f"max |norm-1| = {norms:.3e}, max off-diagonal = {off:.3e}")
    return PipelineReport(steps=steps, truncation=truncation)
