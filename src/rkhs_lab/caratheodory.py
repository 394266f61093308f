"""Caratheodory norms of matricial tangent vectors and curvature-inequality checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, PointOutsideBall, PointOutsidePolydisc

SZEGO_DISC_FACTOR = 1.0 / (2.0 * np.pi)
QMC_SEED = 7


@dataclass(frozen=True)
class MatricialTangent:
    """m blocks of length n, stacked into a vector of C^(mn)."""

    blocks: list

    def __post_init__(self):
        blocks = [np.asarray(b, dtype=complex).ravel() for b in self.blocks]
        if not blocks:
            raise DimensionMismatch("tangent vector needs at least one block")
        n = blocks[0].size
        if any(b.size != n for b in blocks):
            raise DimensionMismatch("all blocks must have equal length")
        object.__setattr__(self, "blocks", blocks)

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def n(self) -> int:
        return self.blocks[0].size

    @classmethod
    def from_flat(cls, v, m: int, n: int) -> "MatricialTangent":
        v = np.asarray(v, dtype=complex).ravel()
        if v.size != m * n:
            raise DimensionMismatch(f"vector length {v.size} != m*n = {m * n}")
        return cls([v[i * n:(i + 1) * n] for i in range(m)])

    def flat(self) -> np.ndarray:
        return np.concatenate(self.blocks)


def cara_norm_ball(V: MatricialTangent, z) -> float:
    """Caratheodory norm on the Euclidean ball: HS norm at 0, transported
    by the involutive automorphism sending z to 0 elsewhere."""
    zv = np.asarray(z, dtype=complex).ravel()
    if zv.size != V.m:
        raise DimensionMismatch(f"point dimension {zv.size} != m = {V.m}")
    r2 = float(np.vdot(zv, zv).real)
    if r2 >= 1.0:
        raise PointOutsideBall(f"|z|^2 = {r2:.4f} >= 1")
    B = np.vstack(V.blocks)  # m x n
    if r2 > 0.0:
        P = np.outer(zv, zv.conj()) / r2
        Q = np.eye(V.m) - P
        A = P / (1.0 - r2) + Q / np.sqrt(1.0 - r2)
        B = A @ B
    return float(np.linalg.norm(B))


def cara_norm_polydisc(V: MatricialTangent, z) -> float:
    """Caratheodory norm on the polydisc: max_j |V_j| / (1 - |z_j|^2)."""
    zv = np.asarray(z, dtype=complex).ravel()
    if zv.size != V.m:
        raise DimensionMismatch(f"point dimension {zv.size} != m = {V.m}")
    if np.any(np.abs(zv) >= 1.0):
        raise PointOutsidePolydisc("some |z_j| >= 1")
    return max(float(np.linalg.norm(b)) / (1.0 - abs(zj) ** 2)
               for b, zj in zip(V.blocks, zv))


@dataclass(frozen=True)
class CIVerdict:
    passed: bool
    worst_margin: float
    worst_vector: Optional[np.ndarray] = None

    def __bool__(self) -> bool:
        return self.passed


def _unit_vectors(dim: int, samples: int) -> np.ndarray:
    """Deterministic low-discrepancy unit vectors in C^dim."""
    from scipy.stats import norm, qmc

    sob = qmc.Sobol(d=2 * dim, scramble=True, seed=QMC_SEED)
    u = sob.random(samples)
    g = norm.ppf(np.clip(u, 1e-12, 1.0 - 1e-12))
    vecs = g[:, :dim] + 1j * g[:, dim:]
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def generalized_ci_check(K: np.ndarray, domain: str, w, n: int = 1,
                         samples: int = 256, tol: float = 1e-10) -> CIVerdict:
    """Check <K V, V> <= -C(V)^2 over sampled unit tangent vectors.

    ``K`` is the assembled mn x mn curvature matrix; the Caratheodory norm
    is the ball or polydisc one at the point w.  Eigenvectors of the
    Hermitian part of K are added to the sample set.
    """
    K = np.asarray(K, dtype=complex)
    dim = K.shape[0]
    if K.shape != (dim, dim) or dim % n != 0:
        raise DimensionMismatch("curvature matrix must be mn x mn")
    m = dim // n
    cara = {"ball": cara_norm_ball, "polydisc": cara_norm_polydisc}[domain]
    vecs = _unit_vectors(dim, samples)
    _, eigvecs = np.linalg.eigh((K + K.conj().T) / 2.0)
    vecs = np.vstack([vecs, eigvecs.T])
    worst = -np.inf
    worst_vec = None
    for v in vecs:
        tangent = MatricialTangent.from_flat(v, m, n)
        margin = float(np.vdot(v, K @ v).real) + cara(tangent, w) ** 2
        if margin > worst:
            worst, worst_vec = margin, v
    return CIVerdict(passed=worst <= tol, worst_margin=worst, worst_vector=worst_vec)


@dataclass(frozen=True)
class PlanarCIVerdict:
    passed: bool
    slack_with4pi2: float
    slack_without4pi2: float
    curvature: float
    szego_value: float

    def __bool__(self) -> bool:
        return self.passed


def planar_ci_check(kernel, w: complex, szego_value: float,
                    tol: float = 1e-10) -> PlanarCIVerdict:
    """Planar curvature inequality dd-bar log K >= 4 pi^2 S^2 at a point.

    The Szego kernel carries its 1/(2 pi) normalization, so the bound with
    the explicit 4 pi^2 factor is authoritative; the slack without the
    factor is reported alongside since both normalizations occur in the
    literature.
    """
    from .curvature import curvature_scalar

    dd = -curvature_scalar(kernel, w)
    s2 = float(szego_value) ** 2
    slack4 = dd - 4.0 * np.pi ** 2 * s2
    slack1 = dd - s2
    return PlanarCIVerdict(passed=bool(slack4 >= -tol), slack_with4pi2=float(slack4),
                           slack_without4pi2=float(slack1), curvature=-dd,
                           szego_value=float(szego_value))


def szego_disc(z: complex, w: complex) -> complex:
    """Szego kernel of the unit disc, 1 / (2 pi (1 - z conj(w)))."""
    return SZEGO_DISC_FACTOR / (1.0 - z * np.conjugate(w))
