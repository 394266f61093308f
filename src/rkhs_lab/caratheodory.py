"""Caratheodory norms of matricial tangent vectors and curvature-inequality
checks; the generalized check takes its supremum over tangent vectors
exactly, as a Hermitian top eigenvalue."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curvature import ci_slack
from .errors import ConfigError, DimensionMismatch, PointOutsideBall, PointOutsidePolydisc

SZEGO_DISC_FACTOR = 1.0 / (2.0 * np.pi)


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


def _cara_forms(domain: str, z, m: int, n: int) -> list:
    """Hermitian D with C(V)^2 = max over D of v^H D v, v the stacked blocks of V:
    on the ball A^2 (x) I_n, A = P / (1 - |z|^2) + Q / sqrt(1 - |z|^2) (P the
    projector onto z, Q = I - P) the automorphism sending z to 0; on the
    polydisc one block-j projector scaled by (1 - |z_j|^2)^-2 per coordinate."""
    zv = np.asarray(z, dtype=complex).ravel()
    if zv.size != m:
        raise DimensionMismatch(f"point dimension {zv.size} != m = {m}")
    if domain == "ball":
        r2 = float(np.vdot(zv, zv).real)
        if r2 >= 1.0:
            raise PointOutsideBall(f"|z|^2 = {r2:.4f} >= 1")
        A = np.eye(m)
        if r2 > 0.0:
            P = np.outer(zv, zv.conj()) / r2
            A = P / (1.0 - r2) + (A - P) / np.sqrt(1.0 - r2)
        return [np.kron(A @ A, np.eye(n))]
    if domain == "polydisc":
        if np.any(np.abs(zv) >= 1.0):
            raise PointOutsidePolydisc("some |z_j| >= 1")
        gaps = 1.0 - np.abs(zv) ** 2
        return [np.diag(np.repeat(np.arange(m) == j, n) / gaps[j] ** 2) for j in range(m)]
    raise ConfigError(f"domain must be 'ball' or 'polydisc', got {domain!r}")


def _cara_norm(domain: str, V: MatricialTangent, z) -> float:
    v = np.concatenate(V.blocks)
    return float(np.sqrt(max(np.vdot(v, D @ v).real for D in _cara_forms(domain, z, V.m, V.n))))


def cara_norm_ball(V: MatricialTangent, z) -> float:
    """Caratheodory norm on the Euclidean ball: HS norm at 0, transported
    by the involutive automorphism sending z to 0 elsewhere."""
    return _cara_norm("ball", V, z)


def cara_norm_polydisc(V: MatricialTangent, z) -> float:
    """Caratheodory norm on the polydisc: max_j |V_j| / (1 - |z_j|^2)."""
    return _cara_norm("polydisc", V, z)


@dataclass(frozen=True)
class CIVerdict:
    passed: bool
    worst_margin: float
    worst_vector: Optional[np.ndarray] = None

    def __bool__(self) -> bool:
        return self.passed


def generalized_ci_check(K: np.ndarray, domain: str, w, n: int = 1,
                         tol: float = 1e-10) -> CIVerdict:
    """Check <K V, V> <= -C(V)^2 for every unit tangent vector V, exactly.

    ``K`` is the assembled mn x mn curvature matrix and C the ball or polydisc
    Caratheodory norm at w.  As C(V)^2 is the largest of the Hermitian forms
    v^H D v of :func:`_cara_forms`, the supremum of <K v, v> + C(v)^2 over
    unit v is the largest top eigenvalue of Herm(K) + D, at its eigenvector.
    """
    K = np.asarray(K, dtype=complex)
    dim = K.shape[0]
    if K.shape != (dim, dim) or dim % n != 0:
        raise DimensionMismatch("curvature matrix must be mn x mn")
    H = (K + K.conj().T) / 2.0
    tops = [np.linalg.eigh(H + D) for D in _cara_forms(domain, w, dim // n, n)]
    vals, vecs = max(tops, key=lambda t: t[0][-1])
    return CIVerdict(passed=bool(vals[-1] <= tol), worst_margin=float(vals[-1]),
                     worst_vector=vecs[:, -1])


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
    s = float(szego_value)
    curv, _, slack4 = ci_slack(kernel, w, s)
    return PlanarCIVerdict(passed=bool(slack4 >= -tol), slack_with4pi2=float(slack4),
                           slack_without4pi2=float(-curv - s ** 2), curvature=curv,
                           szego_value=s)


def szego_disc(z: complex, w: complex) -> complex:
    """Szego kernel of the unit disc, 1 / (2 pi (1 - z conj(w)))."""
    return SZEGO_DISC_FACTOR / (1.0 - z * np.conjugate(w))
