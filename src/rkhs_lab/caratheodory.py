"""Caratheodory norms of matricial tangent vectors, m x n arrays with one row
per coordinate, and curvature-inequality checks; the generalized check takes
its supremum over tangent vectors exactly, as a Hermitian top eigenvalue."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, NonFiniteValue, PointOutsideDomain

CI_TOL = 1e-10  # a verdict passes while its worst margin is at most CI_TOL


def _cara_forms(domain: str, z, m: int, n: int) -> list:
    """Hermitian D with C(V)^2 = max over D of v^H D v, v the stacked rows of V:
    on the ball A^2 (x) I_n, A = P / (1 - |z|^2) + Q / sqrt(1 - |z|^2) (P the
    projector onto z, Q = I - P) the automorphism sending z to 0; on the
    polydisc one block-j projector scaled by (1 - |z_j|^2)^-2 per coordinate."""
    zv = np.asarray(z, dtype=complex).ravel()
    if zv.size != m:
        raise DimensionMismatch(f"point dimension {zv.size} != m = {m}")
    if domain == "ball":
        r2 = float(np.vdot(zv, zv).real)
        if not r2 < 1.0:  # a NaN point is outside too
            raise PointOutsideDomain(f"point {zv.tolist()} is outside the ball: "
                                     f"|z|^2 = {r2:.4f} >= 1")
        A = np.eye(m)
        if r2 > 0.0:
            P = np.outer(zv, zv.conj()) / r2
            A = P / (1.0 - r2) + (A - P) / np.sqrt(1.0 - r2)
        return [np.kron(A @ A, np.eye(n))]
    if domain == "polydisc":
        if not np.all(np.abs(zv) < 1.0):
            raise PointOutsideDomain(f"point {zv.tolist()} is outside the polydisc: "
                                     "some |z_j| >= 1")
        gaps = 1.0 - np.abs(zv) ** 2
        return [np.diag(np.repeat(np.arange(m) == j, n) / gaps[j] ** 2) for j in range(m)]
    raise ConfigError(f"domain must be 'ball' or 'polydisc', got {domain!r}")


def cara_norm(domain: str, V, z) -> float:
    """Caratheodory norm at z of an m x n tangent vector V (row j the block of
    coordinate j) on the ``domain`` 'ball' or 'polydisc': on the ball the HS
    norm at 0, transported by the involutive automorphism sending z to 0; on
    the polydisc max_j |V_j| / (1 - |z_j|^2) over its rows V_j."""
    try:
        V = np.asarray(V, dtype=complex)
    except ValueError as exc:  # ragged rows
        raise DimensionMismatch(f"tangent vector is not an m x n array: {exc}") from exc
    if V.ndim != 2 or V.size == 0:
        raise DimensionMismatch(f"tangent vector must be a non-empty m x n array, "
                                f"got shape {V.shape}")
    if not np.isfinite(V).all():
        raise NonFiniteValue("tangent vector has a non-finite entry")
    v = V.ravel()
    return float(np.sqrt(max(np.vdot(v, D @ v).real for D in _cara_forms(domain, z, *V.shape))))


@dataclass(frozen=True, eq=False)
class CIVerdict:
    worst_margin: float
    worst_vector: np.ndarray

    @property
    def passed(self) -> bool:
        return self.worst_margin <= CI_TOL


def generalized_ci_check(K: np.ndarray, domain: str, w, n: int = 1) -> CIVerdict:
    """Check <K V, V> <= -C(V)^2 for every unit tangent vector V, exactly.

    ``K`` is the assembled mn x mn curvature matrix and C the ball or polydisc
    Caratheodory norm at w.  As C(V)^2 is the largest of the Hermitian forms
    v^H D v of :func:`_cara_forms`, the supremum of <K v, v> + C(v)^2 over
    unit v is the largest top eigenvalue of Herm(K) + D, at its eigenvector.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise DimensionMismatch(f"n must be an integer >= 1, got {n!r}")
    K = np.asarray(K, dtype=complex)
    if K.ndim != 2 or K.size == 0 or K.shape[0] != K.shape[1] or K.shape[0] % n != 0:
        raise DimensionMismatch(f"curvature matrix K must be a non-empty mn x mn matrix, "
                                f"got shape {K.shape}")
    dim = K.shape[0]
    if not np.isfinite(K).all():
        raise NonFiniteValue("curvature matrix has a non-finite entry")
    H = (K + K.conj().T) / 2.0
    tops = [np.linalg.eigh(H + D) for D in _cara_forms(domain, w, dim // n, n)]
    vals, vecs = max(tops, key=lambda t: t[0][-1])
    return CIVerdict(worst_margin=float(vals[-1]), worst_vector=vecs[:, -1])
