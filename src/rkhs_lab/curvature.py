"""Curvature scalars and matrices of Hermitian metrics from kernels or frames."""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, nan
from typing import Sequence

import numpy as np

from . import kernels as kc
from .errors import DegenerateKernel, NonFiniteValue, SingularMetric

FD_STEP = 1e-4  # finite-difference step; one Richardson level on top


@dataclass(frozen=True)
class MetricFrameSample:
    """Pointwise data of a Hermitian metric h and its derivatives.

    ``dh[i]`` is d_i h and ``ddh[i][j]`` is dbar_i d_j h, matching the block
    layout of the jet Gram matrix (top row d_j h, left column dbar_i h).
    """

    w: tuple
    h: np.ndarray
    dh: Sequence[np.ndarray]
    ddh: Sequence[Sequence[np.ndarray]]

    @property
    def m(self) -> int:
        return len(self.dh)

    @property
    def n(self) -> int:
        return self.h.shape[0]


@dataclass(frozen=True)
class CurvatureMatrix:
    """Curvature blocks and the assembled mn x mn matrix."""

    blocks: list
    matrix: np.ndarray
    m: int
    n: int

    def as_scalar(self) -> float:
        if self.matrix.shape != (1, 1):
            raise ValueError("curvature matrix is not 1x1")
        return float(self.matrix[0, 0].real)


def curvature_scalar(kernel, w: complex) -> float:
    """-d d-bar log K(w, w) via the order-1 jet quotient formula."""
    J = kc.jet(kernel, w, 1).values
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
    vals, vecs = np.linalg.eigh(h)
    if vals.min() <= 0.0:
        raise SingularMetric(f"metric not positive definite (min eig {vals.min():.3e})")
    return vecs @ np.diag(vals ** -0.5) @ vecs.conj().T


def curvature_matrix(frame: MetricFrameSample) -> CurvatureMatrix:
    """Curvature blocks -(dbar_i d_j h - (dbar_i h) h^-1 (d_j h)) at h = I.

    The frame is first normalized at the sample point by congruence with
    h^-1/2, so the returned blocks refer to a frame orthonormal at w.
    """
    m, n = frame.m, frame.n
    h = np.asarray(frame.h, dtype=complex)
    s = _inv_sqrt_hermitian(h)
    dh = [s @ np.asarray(d, dtype=complex) @ s for d in frame.dh]
    ddh = [[s @ np.asarray(frame.ddh[i][j], dtype=complex) @ s for j in range(m)]
           for i in range(m)]
    blocks = [[-(ddh[i][j] - dh[i].conj().T @ dh[j]) for j in range(m)] for i in range(m)]
    matrix = np.block(blocks) if m > 1 else np.asarray(blocks[0][0])
    return CurvatureMatrix(blocks=blocks, matrix=matrix.reshape(m * n, m * n), m=m, n=n)


def frame_from_jet(kernel, w: complex) -> MetricFrameSample:
    """Rank-1 metric sample built from the order-1 kernel jet."""
    J = kc.jet(kernel, w, 1).values
    return MetricFrameSample(
        w=(complex(w),),
        h=np.array([[J[0, 0]]]),
        dh=[np.array([[J[0, 1]]])],
        ddh=[[np.array([[J[1, 1]]])]],
    )


def mobius_rule_check(kernel, a: complex, z: complex) -> float:
    """Residual of the curvature transformation rule under phi_a.

    Returns |K_curv(pullback, phi_a(z)) - K_curv(K, z) |phi_a'(z)|^-2|.
    """
    pulled = kc.mobius_pullback(kernel, a)
    lhs = curvature_scalar(pulled, kc.mobius_map(a, z))
    rhs = curvature_scalar(kernel, z) * abs(kc.mobius_deriv(a, z)) ** -2
    return abs(lhs - rhs)
