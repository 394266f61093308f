"""Canonical form of the local operator on the second-order joint kernel.

Takes the jet Gram G of :mod:`rkhs_lab.curvature` in the block order (frame,
d_1 frame, ..., d_m frame), factors G^-1 = P conj(P)^t with P block upper
triangular and P_11 = I, and reads off the nilpotent blocks and the identity
t(w) conj(t(w))^t = (-curvature(w))^-1.  numpy is the only dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels as kc
from .curvature import JetGram, _inv_sqrt_hermitian, curvature_matrix
from .errors import DimensionMismatch, NormalizationMissing, NotPositiveDefinite, SingularGram

COND_LIMIT = 1e10


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


def jet_gram(kernel, w: complex) -> JetGram:
    """Jet Gram of a scalar kernel (rank n = 1, m = 1), normalized so G[0, 0] = 1.

    Higher rank or more variables enter through :func:`gram_from_matrix`.
    """
    J = kc.jet(kernel, w, 1)
    if J[0, 0].real <= 0.0:
        raise SingularGram(f"K(w, w) = {J[0, 0].real} at w = {w}")
    G = J / J[0, 0].real  # frame normalization: top-left block becomes 1
    if np.linalg.det(G).real <= 0.0:
        raise SingularGram("jet Gram is singular; operator leaves the class locally")
    return JetGram(G=G, m=1, n=1)


def gram_from_matrix(G: np.ndarray, m: int, n: int) -> JetGram:
    """Wrap a caller-supplied Gram, normalizing so the top-left block is I."""
    G = np.asarray(G, dtype=complex)
    if G.shape != ((m + 1) * n, (m + 1) * n):
        raise DimensionMismatch(f"Gram must be {(m + 1) * n} x {(m + 1) * n}")
    D = np.eye((m + 1) * n, dtype=complex)
    D[:n, :n] = _inv_sqrt_hermitian(G[:n, :n])
    return JetGram(G=D @ G @ D.conj().T, m=m, n=n)


def _allclose(a: np.ndarray, b: np.ndarray, atol: float) -> bool:
    """np.allclose(a, b, atol=atol) written out: |a - b| <= atol + 1e-5 |b|
    everywhere, which a NaN fails."""
    return bool((np.abs(a - b) <= atol + 1e-5 * np.abs(b)).all())


def canonical_form(gram: JetGram) -> LocalOperatorForm:
    """Orthonormalize the jet basis and extract the canonical blocks."""
    G, m, n = gram.G, gram.m, gram.n
    if not _allclose(G[:n, :n], np.eye(n), atol=1e-10):
        raise NormalizationMissing("top-left block of the Gram must be the identity")
    if np.linalg.cond(G) > COND_LIMIT:
        raise NotPositiveDefinite(f"Gram condition number exceeds {COND_LIMIT:.0e}")
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("Gram is not positive definite") from exc
    # P = inv(L)^H is upper triangular with positive diagonal, P P^H = G^-1,
    # and P_11 = I because the top-left block of G is the identity.  The
    # pivoted inverse leaves roundoff below the diagonal of P; triu drops it.
    P = np.triu(np.linalg.inv(L).conj().T)
    Ginv = np.linalg.inv(G)
    R = Ginv[n:, n:]
    t = P[n:, n:]
    tt = t @ t.conj().T
    if not _allclose(tt, R, atol=1e-8 * max(1.0, np.linalg.norm(R))):
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


def verify_tt_identity_gram(gram: JetGram) -> float:
    """Relative spectral-norm residual of t conj(t)^t = (-curvature)^-1."""
    form = canonical_form(gram)
    target = np.linalg.inv(-curvature_matrix(gram).matrix)
    resid = np.linalg.norm(form.t @ form.t.conj().T - target, ord=2)
    return resid / np.linalg.norm(target, ord=2)


def verify_tt_identity(kernel, w: complex) -> float:
    """Kernel route of the identity check (rank 1, m = 1)."""
    return verify_tt_identity_gram(jet_gram(kernel, w))


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
