"""Canonical form of the local operator on the second-order joint kernel.

Builds the jet Gram matrix G in the block order (frame, d_1 frame, ...,
d_m frame), factors G^-1 = P conj(P)^t with P block upper triangular and
P_11 = I, and reads off the nilpotent blocks and the identity
t(w) conj(t(w))^t = (-curvature(w))^-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels as kc
from .curvature import CurvatureMatrix, MetricFrameSample, curvature_matrix
from .errors import DimensionMismatch, NormalizationMissing, NotPositiveDefinite, SingularGram

COND_LIMIT = 1e10


@dataclass(frozen=True)
class JetGram:
    """(m+1)n x (m+1)n Gram matrix of (frame, d_1 frame, ..., d_m frame)."""

    G: np.ndarray
    m: int
    n: int


@dataclass(frozen=True)
class LocalOperatorForm:
    """Blocks of the canonical local-operator representation."""

    t_blocks: list  # t_l, each n x mn
    t: np.ndarray  # stacked, mn x mn
    N: list  # nilpotent (m+1)n x (m+1)n matrices
    R: np.ndarray  # mn x mn, equals lower-right block of G^-1
    P: np.ndarray  # upper-triangular factor, P conj(P)^t = G^-1
    m: int
    n: int


def jet_gram(kernel, w: complex, m: int = 1) -> JetGram:
    """Jet Gram of a scalar kernel; rank n = 1 and m = 1 only.

    Higher rank or more variables enter through :func:`gram_from_matrix`.
    """
    if m != 1:
        raise DimensionMismatch("kernel route supports m = 1; supply a Gram matrix otherwise")
    J = kc.jet(kernel, w, 1).values
    if J[0, 0].real <= 0.0:
        raise SingularGram(f"K(w, w) = {J[0, 0].real} at w = {w}")
    G = J / J[0, 0].real  # frame normalization: top-left block becomes 1
    if np.linalg.det(G).real <= 0.0:
        raise SingularGram("jet Gram is singular; operator leaves the class locally")
    return JetGram(G=G, m=1, n=1)


def gram_from_matrix(G: np.ndarray, m: int, n: int) -> JetGram:
    """Wrap a caller-supplied Gram, normalizing so the top-left block is I."""
    import scipy.linalg

    G = np.asarray(G, dtype=complex)
    if G.shape != ((m + 1) * n, (m + 1) * n):
        raise DimensionMismatch(f"Gram must be {(m + 1) * n} x {(m + 1) * n}")
    h = G[:n, :n]
    vals, vecs = np.linalg.eigh(h)
    if vals.min() <= 0.0:
        raise NotPositiveDefinite("top-left block is not positive definite")
    s = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T
    D = scipy.linalg.block_diag(*([s] + [np.eye(n)] * m))
    return JetGram(G=D @ G @ D.conj().T, m=m, n=n)


def canonical_form(gram: JetGram) -> LocalOperatorForm:
    """Orthonormalize the jet basis and extract the canonical blocks."""
    import scipy.linalg

    G, m, n = gram.G, gram.m, gram.n
    if not np.allclose(G[:n, :n], np.eye(n), atol=1e-10):
        raise NormalizationMissing("top-left block of the Gram must be the identity")
    if np.linalg.cond(G) > COND_LIMIT:
        raise NotPositiveDefinite(f"Gram condition number exceeds {COND_LIMIT:.0e}")
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("Gram is not positive definite") from exc
    # P = inv(L)^H is upper triangular with positive diagonal, P P^H = G^-1,
    # and P_11 = I because the top-left block of G is the identity.
    P = scipy.linalg.solve_triangular(L, np.eye(L.shape[0]), lower=True).conj().T
    Ginv = np.linalg.inv(G)
    R = Ginv[n:, n:]
    t = P[n:, n:]
    tt = t @ t.conj().T
    if not np.allclose(tt, R, atol=1e-8 * max(1.0, np.linalg.norm(R))):
        raise NotPositiveDefinite("t conj(t)^t does not reproduce the Gram inverse block")
    size = (m + 1) * n
    t_blocks = []
    N = []
    for l in range(m):
        tl = P[(l + 1) * n:(l + 2) * n, n:]
        t_blocks.append(tl)
        Nl = np.zeros((size, size), dtype=complex)
        Nl[:n, n:] = tl
        N.append(Nl)
    return LocalOperatorForm(t_blocks=t_blocks, t=t, N=N, R=R, P=P, m=m, n=n)


def frame_from_gram(gram: JetGram) -> MetricFrameSample:
    """Read the metric sample (h, dh, ddh) off the Gram block layout."""
    G, m, n = gram.G, gram.m, gram.n
    h = G[:n, :n]
    dh = [G[:n, (j + 1) * n:(j + 2) * n] for j in range(m)]
    ddh = [[G[(i + 1) * n:(i + 2) * n, (j + 1) * n:(j + 2) * n] for j in range(m)]
           for i in range(m)]
    return MetricFrameSample(w=(), h=h, dh=dh, ddh=ddh)


def verify_tt_identity_gram(gram: JetGram) -> float:
    """Relative spectral-norm residual of t conj(t)^t = (-curvature)^-1."""
    form = canonical_form(gram)
    curv: CurvatureMatrix = curvature_matrix(frame_from_gram(gram))
    target = np.linalg.inv(-curv.matrix)
    resid = np.linalg.norm(form.t @ form.t.conj().T - target, ord=2)
    return resid / np.linalg.norm(target, ord=2)


def verify_tt_identity(kernel, w: complex, m: int = 1) -> float:
    """Kernel route of the identity check (rank 1, m = 1)."""
    return verify_tt_identity_gram(jet_gram(kernel, w, m))


def function_of_local(form: LocalOperatorForm, w, f_value: complex, f_gradient) -> np.ndarray:
    """Matrix of f applied to the local operator tuple at w.

    Returns [[f(w) I_n, grad f . t(w)], [0, f(w) I_mn]].
    """
    grad = np.asarray(f_gradient, dtype=complex).ravel()
    if grad.size != form.m:
        raise DimensionMismatch(f"gradient length {grad.size} != m = {form.m}")
    m, n = form.m, form.n
    top_right = sum(grad[l] * form.t_blocks[l] for l in range(m))
    out = np.zeros(((m + 1) * n, (m + 1) * n), dtype=complex)
    out[:n, :n] = f_value * np.eye(n)
    out[:n, n:] = top_right
    out[n:, n:] = f_value * np.eye(m * n)
    return out
