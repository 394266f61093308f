"""Curvature scalars of kernels and curvature matrices of jet Grams.

The local object is the jet Gram G, the Gram matrix of a frame and its first
derivatives d_1, ..., d_m at a point, in n x n blocks.  Its top-left block is
the metric h; after congruence of every block with h^-1/2 the curvature matrix
is minus the Schur complement of that block.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, nan

import numpy as np

from . import kernels as kc
from .errors import DegenerateKernel, NonFiniteValue, NotPositiveDefinite

FD_STEP = 1e-4  # finite-difference step; one Richardson level on top


@dataclass(frozen=True)
class JetGram:
    """(m+1)n x (m+1)n Gram matrix of (frame, d_1 frame, ..., d_m frame)."""

    G: np.ndarray
    m: int
    n: int


@dataclass(frozen=True)
class CurvatureMatrix:
    """The mn x mn curvature matrix, in n x n blocks indexed by derivative."""

    matrix: np.ndarray
    m: int
    n: int

    def as_scalar(self) -> float:
        if self.matrix.shape != (1, 1):
            raise ValueError("curvature matrix is not 1x1")
        return float(self.matrix[0, 0].real)


def curvature_scalar(kernel, w: complex) -> float:
    """-d d-bar log K(w, w) via the order-1 jet quotient formula."""
    J = kc.jet(kernel, w, 1)
    j00 = float(J[0, 0].real)
    if j00 <= 1e-300:
        raise DegenerateKernel(f"K(w, w) = {j00} at w = {w}")
    try:  # in Python floats an overflow gives inf or an exception, never a warning
        curv = -(j00 * float(J[1, 1].real) - float(abs(J[0, 1])) ** 2) / j00 ** 2
    except (OverflowError, ZeroDivisionError):
        curv = nan
    if not isfinite(curv):
        raise NonFiniteValue(f"curvature is not finite at w = {w} (K(w, w) = {j00:.3e})")
    return curv


def ci_slack(kernel, w: complex, szego_value=None) -> tuple:
    """(curvature, bound, slack = bound - curvature) of the curvature inequality at w;
    the bound is -(1 - |w|^2)^-2, or -4 pi^2 S(w, w)^2 given the Szego value S(w, w)."""
    curv = curvature_scalar(kernel, w)
    if szego_value is None:
        bound = -((1.0 - abs(w) * abs(w)) ** -2)
    else:
        bound = -4.0 * np.pi ** 2 * szego_value ** 2
    return curv, bound, bound - curv


def curvature_scalar_fd(kernel, w: complex, step: float = FD_STEP) -> float:
    """Finite-difference cross-check: -1/4 Laplacian of log K(z, z)."""

    def logk(z: complex) -> float:
        return float(np.log(kc.eval_kernel(kernel, z, z).real))

    def lap(h: float) -> float:
        return (logk(w + h) + logk(w - h) + logk(w + 1j * h) + logk(w - 1j * h)
                - 4.0 * logk(w)) / h ** 2

    # one Richardson extrapolation level
    d = (4.0 * lap(step / 2.0) - lap(step)) / 3.0
    return -0.25 * d


def _inv_sqrt_hermitian(h: np.ndarray) -> np.ndarray:
    """h^-1/2 of a Hermitian positive definite metric h."""
    vals, vecs = np.linalg.eigh(h)
    if vals.min() <= 0.0:
        raise NotPositiveDefinite(f"metric not positive definite (min eig {vals.min():.3e})")
    return vecs @ np.diag(vals ** -0.5) @ vecs.conj().T


def curvature_matrix(gram: JetGram) -> CurvatureMatrix:
    """-(G22 - G21 G12) of the jet Gram after congruence of every n x n block
    with s = h^-1/2, h the top-left block.

    Block (i, j) is -(dbar_i d_j h - (dbar_i h) h^-1 (d_j h)) for the frame
    normalized to be orthonormal at the sample point.
    """
    n = gram.n
    D = np.kron(np.eye(gram.m + 1), _inv_sqrt_hermitian(gram.G[:n, :n]))
    H = D @ np.asarray(gram.G, dtype=complex) @ D
    return CurvatureMatrix(matrix=-(H[n:, n:] - H[n:, :n] @ H[:n, n:]), m=gram.m, n=n)


def frame_from_jet(kernel, w: complex) -> JetGram:
    """Rank-1 jet Gram of the frame K(., w): the order-1 kernel jet at w."""
    return JetGram(G=kc.jet(kernel, w, 1), m=1, n=1)


def mobius_rule_check(kernel, a: complex, z: complex) -> float:
    """Residual of the curvature transformation rule under phi_a.

    Returns |K_curv(pullback, phi_a(z)) - K_curv(K, z) |phi_a'(z)|^-2|.
    """
    pulled = kc.mobius_pullback(kernel, a)
    lhs = curvature_scalar(pulled, kc.mobius_map(a, z))
    rhs = curvature_scalar(kernel, z) * abs(kc.mobius_deriv(a, z)) ** -2
    return abs(lhs - rhs)
