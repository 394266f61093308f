"""Extremality machinery: the F_K functional, shift classification, and the
numerical replay of the uniqueness argument for curvature-extremal contractions."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Optional

import numpy as np

from . import kernels as kc
from .curvature import ci_slack
from .errors import NonFiniteValue, NotAContraction
from .positivity import (hyponormal_check, is_contraction, shift_kernel, shift_weights,
                         two_hypercontraction_check)

FK_RTOL = 1e-9  # |fk| <= FK_RTOL * Ktilde(z, z)^2 counts as curvature equality
WEIGHT_TOL = 1e-8
DEFAULT_TRUNCATION = 150

CLASS_EXTREMAL_EVERYWHERE = "ExtremalEverywhere"
CLASS_EXTREMAL_AT_ZERO = "ExtremalAtZeroOnly"
CLASS_NOT_EXTREMAL = "NotExtremal"


@dataclass(frozen=True)
class ExtremalityReport:
    point: complex
    curvature: float
    extremal_bound: float
    fk_value: float
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
    failed_step: Optional[str]
    assumptions: list = field(default_factory=lambda: ["polynomial-density"])
    truncation: int = DEFAULT_TRUNCATION

    @property
    def passed(self) -> bool:
        return self.failed_step is None


def _tilde_minor(kernel: kc.SeriesKernel, zeta: complex) -> tuple[float, float, float]:
    """Order-1 Gram determinant of the tilde jet at zeta, with its diagonal.

    Raises NotAContraction unless :func:`is_contraction` holds.  The
    arithmetic is in Python floats, so an overflow gives inf, never a warning.
    """
    if not is_contraction(kernel):
        raise NotAContraction("kernel coefficients must be non-decreasing")
    J = kc.jet(kc.tilde_kernel(kernel), zeta, 1).tolist()
    j00, j11, j01 = J[0][0].real, J[1][1].real, abs(J[0][1])
    minor = j00 * j11 - j01 * j01
    if not isfinite(minor):
        raise NonFiniteValue(f"tilde Gram minor is not finite at zeta = {zeta}")
    return minor, j00, j11


def fk_value(kernel: kc.SeriesKernel, zeta: complex) -> float:
    """Ktilde(z, z)^2 * dd-bar log Ktilde at zeta; zero iff curvature equality.

    Equals the Gram determinant of (Ktilde_zeta, dbar Ktilde_zeta), hence
    non-negative for contractions.
    """
    return _tilde_minor(kernel, zeta)[0]


def dependence_test(kernel: kc.SeriesKernel, zeta: complex, tol: float = FK_RTOL) -> bool:
    """Cauchy-Schwarz equality on the tilde jet: the two jet vectors are dependent."""
    minor, j00, j11 = _tilde_minor(kernel, zeta)
    return minor <= tol * max(j00 * j11, j00 * j00)


def classify_shift(kernel: kc.SeriesKernel, zeta: complex,
                   rtol: float = FK_RTOL) -> ExtremalityReport:
    """Trichotomy for contractive diagonal shifts at a point.

    Equality at zeta != 0 forces the backward shift; equality only at 0 is
    possible for non-hyponormal weights (the negative answer to the
    uniqueness question at the origin).
    """
    kernel = shift_kernel(kernel)
    fk, j00, _ = _tilde_minor(kernel, zeta)
    at_point = abs(fk) <= rtol * max(j00 * j00, 1e-300)
    weights_all_one = bool(np.all(np.abs(shift_weights(kernel) - 1.0) <= WEIGHT_TOL))
    curv, bound, _ = ci_slack(kernel, zeta)
    if not at_point:
        classification = CLASS_NOT_EXTREMAL
        equivalent = False
    elif zeta != 0:
        # equality away from the origin propagates everywhere
        classification = CLASS_EXTREMAL_EVERYWHERE
        equivalent = weights_all_one
    else:
        # equality at 0 alone; hyponormality (or directly w_n = 1) upgrades it
        if weights_all_one or hyponormal_check(kernel).passed:
            classification = CLASS_EXTREMAL_EVERYWHERE
            equivalent = True
        else:
            classification = CLASS_EXTREMAL_AT_ZERO
            equivalent = False
    return ExtremalityReport(point=complex(zeta), curvature=curv, extremal_bound=bound,
                             fk_value=fk, classification=classification,
                             equivalent_to_backward_shift=equivalent)


# ---------------------------------------------------------------------------
# series plumbing for the conjugated pipeline

def _series_inverse(u: np.ndarray) -> np.ndarray:
    """Power-series inverse v with (u * v) = 1 + O(z^len)."""
    v = np.zeros_like(u, dtype=complex)
    v[0] = 1.0 / u[0]
    for k in range(1, u.size):
        v[k] = -np.dot(u[1:k + 1], v[k - 1::-1]) / u[0]
    return v


def normalized_pullback_coeffs(kernel: kc.SeriesKernel, zeta: complex,
                               truncation: int = DEFAULT_TRUNCATION) -> np.ndarray:
    """Taylor coefficients C[i, j] of the kernel of phi_zeta(T), normalized at 0.

    L(z, w) = sum C[i, j] z^i conj(w)^j with L(z, 0) = 1; C is also the Gram
    matrix of the jet vectors V_j = dbar^j L(., 0) / j!.
    """
    size = truncation + 1
    a = kernel.coeffs
    if zeta == 0:
        C = np.zeros((size, size), dtype=complex)
        k = min(size, a.size)
        C[np.arange(k), np.arange(k)] = a[:k] / a[0]
        return C
    c = np.conjugate(zeta)
    # psi = inverse of the conjugated automorphism: psi(z) = (z + c) / (1 + zeta z)
    geom = np.power(-zeta, np.arange(size))
    psi = np.convolve([c, 1.0], geom)[:size]
    # rows P[n] = psi^n, so C = sum_n a_n P[n]^T conj(P[n]) is one product
    P = np.zeros((a.size, size), dtype=complex)
    P[0, 0] = 1.0
    for n in range(1, a.size):
        P[n] = np.convolve(P[n - 1], psi)[:size]
    C = (P.T * a) @ P.conj()
    # normalize at 0: divide by f(z) = L(z, 0) on both slots, scale to 1 at 0
    u = C[:, 0].copy()
    v = _series_inverse(u)
    F = np.zeros((size, size), dtype=complex)
    for i in range(size):
        F[i, :i + 1] = v[i::-1]
    return u[0].real * (F @ C @ F.conj().T)


def uniqueness_pipeline_check(kernel: kc.SeriesKernel, zeta: complex = 0.0,
                              truncation: int = DEFAULT_TRUNCATION) -> PipelineReport:
    """Replay the uniqueness argument step by step on a diagonal model.

    Conjugates the shift so the equality point moves to the origin, checks
    contractivity, the 2-hypercontraction inequality, curvature equality at
    0, the jet-vector norms, and the Gram-decrease chain that forces the
    monomials to be orthonormal.  Polynomial density is recorded as an
    assumption, never verified.
    """
    kernel = shift_kernel(kernel)
    if zeta != 0:
        # coefficients of psi^n spread over indices >= n (1-|zeta|)/(1+|zeta|);
        # beyond that fraction of the window the truncated sum is unreliable
        edge = (1.0 - abs(zeta)) / (1.0 + abs(zeta))
        truncation = min(truncation, max(10, int(0.7 * kernel.n_max * edge)))
    steps: list[StepResult] = []

    def run(name: str, passed: bool, detail: str = "") -> bool:
        steps.append(StepResult(name=name, passed=passed, detail=detail))
        return passed

    ok = run("contraction", is_contraction(kernel), "tilde coefficients non-negative")
    if ok:
        hyper = two_hypercontraction_check(kernel)
        ok = run("two-hypercontraction", hyper.passed,
                 "min of 1/a_n - 2/a_(n+1) + 1/a_(n+2) = "
                 f"{hyper.info['min_expression']:.3e}")
    if ok:
        C = normalized_pullback_coeffs(kernel, zeta, truncation)
        curv0 = -(C[1, 1].real - abs(C[0, 1]) ** 2)
        ok = run("curvature-equality-at-zero", abs(curv0 + 1.0) <= 1e-8,
                 f"curvature at 0 after conjugation = {curv0:.12f}")
    if ok:
        ok = run("jet-vector-norms", abs(C[0, 0].real - 1.0) <= 1e-10
                 and abs(C[1, 1].real - 1.0) <= 1e-8,
                 f"|V0|^2 = {C[0, 0].real:.12f}, |V1|^2 = {C[1, 1].real:.12f}")
    if ok:
        cond = np.linalg.cond(C)
        if cond > 1e10:
            ok = run("monomial-gram", False,
                     f"coefficient matrix condition {cond:.2e} defeats inversion")
        else:
            G = np.linalg.inv(C)
            k = truncation - 1
            D = G[:k, :k] - G[1:k + 1, 1:k + 1]
            dec = float(np.linalg.eigvalsh((D + D.conj().T) / 2.0).min())
            ok = run("gram-decrease-chain", dec >= -1e-9,
                     f"min eig of G_v - G_Av = {dec:.3e}")
            if ok:
                norms = np.abs(np.diag(G).real - 1.0).max()
                off = float(np.abs(G - np.diag(np.diag(G))).max())
                ok = run("monomial-orthonormality", norms <= 1e-8 and off <= 1e-8,
                         f"max |norm-1| = {norms:.3e}, max off-diagonal = {off:.3e}")
    failed = next((s.name for s in steps if not s.passed), None)
    return PipelineReport(steps=steps, failed_step=failed, truncation=truncation)
