"""The semidefinite and the definite test of a Hermitian Gram, and shift
criteria: contractivity, hyponormality, hypercontractivity."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels as kc
from .errors import (ConfigError, DimensionMismatch, NonFiniteValue, NonHermitianInput,
                     NotAContraction, NotPositiveDefinite)

# psd_check scales it by max(1, the largest eigenvalue magnitude); the shift
# rules by the largest magnitude they compare, so c K is judged as K: the
# contraction rule by max |a_n - a_(n-1)|, the 2-hypercontraction rule by
# max 1 / a_n; hyponormality compares the scale-free weight steps with it as is
CHECK_TOL = 1e-10
COND_LIMIT = 1e10  # inverse_factor refuses a Gram whose bound ||G||_F tr(G^-1) exceeds it


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    info: dict  # the numbers behind the verdict, by name


def _float_or_complex(matrix) -> np.ndarray:
    """The matrix as float, or as complex if it has complex entries (real LAPACK)."""
    return np.asarray(matrix, dtype=complex if np.iscomplexobj(matrix) else float)


def psd_check(gram: np.ndarray) -> CheckResult:
    """Pass iff the smallest eigenvalue of a Hermitian matrix is >= -tol, with
    tol = CHECK_TOL * max(1, ||G||_2); the same ``eigvalsh`` gives the spectral
    norm.  ``info`` reports the smallest eigenvalue, tol and the norm as
    ``min_eigenvalue``, ``tol`` and ``norm``.  An empty, non-square or non-2-D
    input is refused with DimensionMismatch, an infinite or NaN entry with
    NonFiniteValue, and an entry of G - G^H above tol with NonHermitianInput."""
    G = _float_or_complex(gram)
    if G.ndim != 2 or G.shape[0] != G.shape[1] or G.size == 0:
        raise DimensionMismatch(f"expected a non-empty square matrix, got shape {G.shape}")
    return _semidefinite(G)


def _semidefinite(G: np.ndarray) -> CheckResult:
    """The semidefinite rule past :func:`psd_check`'s shape test, on a square
    G or on diag(G) for a vector G, whose eigenvalues are its real parts: the
    smallest is >= -tol, tol = CHECK_TOL * max(1, the largest magnitude)."""
    if not np.isfinite(G).all():
        raise NonFiniteValue("matrix has a non-finite entry")
    GH = G.conj().T
    eigs = np.linalg.eigvalsh((G + GH) / 2.0) if G.ndim == 2 else G.real
    norm = float(np.abs(eigs).max())
    tol = CHECK_TOL * max(1.0, norm)
    if np.abs(G - GH).max() > tol:
        raise NonHermitianInput("matrix is not Hermitian")
    min_eig = float(eigs.min())
    return CheckResult(passed=min_eig >= -tol,
                       info={"min_eigenvalue": min_eig, "tol": tol, "norm": norm})


def inverse_factor(gram: np.ndarray) -> np.ndarray:
    """The definite test: P = inv(conj(L)^t) from one Cholesky factor G = L conj(L)^t,
    so P conj(P)^t = G^-1; LU does not pivot on a triangular matrix, so P is
    exactly upper triangular with a real positive diagonal.  A 2 x 2 Gram,
    every kernel jet Gram's, takes both steps in closed form
    (:func:`_factor_2x2`), and a vector c, which stands for diag(c), in O(n):
    P = 1 / sqrt(c), bit for bit the diagonal of the LAPACK route's P, with
    the bound ||c||_2 ||P||_2^2.

    Raises DimensionMismatch unless G is a non-empty square matrix or a
    non-empty vector, and NotPositiveDefinite when the factorization fails (a
    pivot <= 0 or NaN) or unless the bound ||G||_F tr(G^-1) = ||G||_F ||P||_F^2,
    in Python floats (no overflow warning), is <= COND_LIMIT; it exceeds
    cond_2(G) by at most size^(3/2); inf and NaN fail it.
    """
    G = _float_or_complex(gram)
    if G.shape == (2, 2):
        P, bound = _factor_2x2(G)
    elif G.size == 0 or G.ndim not in (1, 2) or G.shape[0] != G.shape[-1]:
        raise DimensionMismatch("expected a non-empty square matrix or vector, "
                                f"got shape {G.shape}")
    elif G.ndim == 1:
        c = G.real  # the real diagonal, which the Cholesky factor reads
        if not (c > 0.0).all():
            raise NotPositiveDefinite("Gram is not positive definite")
        P = 1.0 / np.sqrt(c)
        bound = float(np.dot(c, c)) ** 0.5 * float(np.dot(P, P))
    else:
        try:
            L = np.linalg.cholesky(G)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite("Gram is not positive definite") from exc
        P = np.linalg.inv(L.conj().T)
        bound = float(np.vdot(G, G).real) ** 0.5 * float(np.vdot(P, P).real)
    if not bound <= COND_LIMIT:
        raise NotPositiveDefinite(f"Gram condition bound ||G||_F tr(G^-1) = {bound:.2e} "
                                  f"exceeds {COND_LIMIT:.0e}")
    return P


def _factor_2x2(G: np.ndarray) -> tuple:
    """(P, ||G||_F ||P||_F^2) of a 2 x 2 Gram in Python scalars.

    l00 = sqrt(G00), l10 = G10 (1 / l00) and l11 = sqrt(G11 - |l10|^2) read the
    lower triangle and the real diagonal, as the Cholesky factor does, and
    P = [[1 / l00, -(conj(l10) (1 / l11)) (1 / l00)], [0, 1 / l11]]: the order
    of operations of the LAPACK route, which multiplies by reciprocal pivots.
    A pivot <= 0 fails the factor, as it fails there; a NaN one passes on to
    the bound, which is then NaN and refused, as there.
    """
    (g00, g01), (g10, g11) = G.tolist()
    if g00.real <= 0.0:
        raise NotPositiveDefinite("Gram is not positive definite")
    # math.sqrt rounds correctly, as LAPACK's sqrt does; Python's ** 0.5 may not
    r0 = 1.0 / math.sqrt(g00.real)
    l10 = g10 * r0
    pivot = g11.real - (l10.real * l10.real + l10.imag * l10.imag)
    if pivot <= 0.0:
        raise NotPositiveDefinite("Gram is not positive definite")
    r1 = 1.0 / math.sqrt(pivot)
    p01 = -(l10.conjugate() * r1) * r0
    norm_sq = sum(x.real * x.real + x.imag * x.imag for x in (g00, g01, g10, g11))
    bound = norm_sq ** 0.5 * (r0 * r0 + (p01.real * p01.real + p01.imag * p01.imag) + r1 * r1)
    return np.array([[r0, p01], [0.0, r1]], dtype=G.dtype), bound


def shift_coeffs(kernel: kc.SeriesKernel) -> np.ndarray:
    """Coefficients of a kernel that defines a weighted shift with representable
    weights, else ConfigError."""
    kc.require_disc(kernel, "shift weights")
    a = kernel.coeffs
    if a.size < 2:
        raise ConfigError("field 'coeffs' must hold at least two coefficients for "
                          f"shift weights, got {a.size}")
    with np.errstate(over="ignore", under="ignore"):
        ratios = a[:-1] / a[1:]
    if not np.all((ratios > 0.0) & np.isfinite(ratios)):
        raise ConfigError("field 'coeffs' has a ratio a_n / a_(n+1) outside the "
                          "double range, so the shift weights are not representable")
    return a


def shift_weights(kernel: kc.SeriesKernel) -> np.ndarray:
    """Shift weights w_n = sqrt(a_n / a_(n+1))."""
    a = shift_coeffs(kernel)
    return np.sqrt(a[:-1] / a[1:])


def shift_kernel(kernel: kc.SeriesKernel) -> kc.SeriesKernel:
    """The shift of a kernel, its coefficients continued by the last one up to
    n = DEFAULT_N_MAX, so the weights beyond the list are 1; the kernel itself
    when it is that long.  The padded kernel is built once and kept on the
    kernel."""
    shift_coeffs(kernel)
    padded = kernel._shift
    return kernel if padded is None else padded


def is_contraction(kernel: kc.SeriesKernel) -> bool:
    """The contractivity rule: no tilde coefficient a_n - a_(n-1) is below
    -CHECK_TOL times the largest magnitude among them."""
    b = kc.tilde_kernel(kernel).coeffs
    return bool(np.all(b >= -CHECK_TOL * float(np.abs(b).max())))


def contraction_check(kernel: kc.SeriesKernel, seed: Optional[int] = None) -> CheckResult:
    """Contractivity of the adjoint multiplication operator: positivity of the
    tilde kernel (1 - z wbar) K, which for a diagonal kernel holds exactly when
    no tilde coefficient is negative (:func:`is_contraction`).  ``seed`` is
    unused."""
    shift_coeffs(kernel)
    return CheckResult(passed=is_contraction(kernel),
                       info={"min_tilde_coeff": float(kc.tilde_kernel(kernel).coeffs.min())})


def hyponormal_check(kernel: kc.SeriesKernel) -> CheckResult:
    """Pass iff the shift weights are non-decreasing: no step below -CHECK_TOL."""
    diffs = np.diff(shift_weights(kernel))
    worst = float(diffs.min()) if diffs.size else 0.0
    return CheckResult(passed=worst >= -CHECK_TOL, info={"min_weight_step": worst})


def two_hypercontraction_check(kernel: kc.SeriesKernel) -> CheckResult:
    """Three-term criterion 1/a_n - 2/a_{n+1} + 1/a_{n+2} >= -CHECK_TOL max 1/a_n
    on diagonal models."""
    a = shift_coeffs(kernel)
    if not is_contraction(kernel):
        raise NotAContraction("2-hypercontraction test requires a contraction")
    with np.errstate(over="ignore", invalid="ignore"):  # a subnormal a_n has no finite 1/a_n
        inv = 1.0 / a
        expr = inv[:-2] - 2.0 * inv[1:-1] + inv[2:]
    if not np.isfinite(expr).all():
        n = int(np.argmin(np.isfinite(expr)))
        raise NonFiniteValue(f"2-hypercontraction expression 1/a_n - 2/a_(n+1) + 1/a_(n+2) "
                             f"is not finite at n = {n}")
    worst = float(expr.min()) if expr.size else 0.0
    idx = int(expr.argmin()) if expr.size else -1
    return CheckResult(passed=worst >= -CHECK_TOL * float(inv.max()),
                       info={"min_expression": worst, "argmin": idx})


def gram_decrease_check(G_v: np.ndarray, G_Av: np.ndarray) -> CheckResult:
    """Contractivity of a linear map through its Gram matrices: G_Av <= G_v, by
    :func:`psd_check` of G_v - G_Av.  Two vectors stand for diagonal Grams and
    are checked in O(n), under psd_check's refusals: the eigenvalues of their
    difference are its entries."""
    G_v, G_Av = _float_or_complex(G_v), _float_or_complex(G_Av)
    if G_v.shape != G_Av.shape:
        raise DimensionMismatch(f"shapes {G_v.shape} and {G_Av.shape} differ")
    if G_v.ndim != 1:
        return psd_check(G_v - G_Av)
    if G_v.size == 0:
        raise DimensionMismatch("expected non-empty diagonals, got shape (0,)")
    return _semidefinite(G_v - G_Av)
