"""Canonical form of the local operator on the second-order joint kernel.

Takes the jet Gram G of :mod:`rkhs_lab.curvature`, of the frame that it makes
orthonormal at the point when it is built, in the block order (frame,
d_1 frame, ..., d_m frame) and factors it once,
:func:`positivity.inverse_factor`.  Its P, exactly upper triangular with a
real diagonal, P_11 = I and P conj(P)^t = G^-1, gives t = P_22 and the
lower-right block R = t conj(t)^t of G^-1, which is the identity
t(w) conj(t(w))^t = (-curvature(w))^-1.  Each step selects its method by
shape.  A kernel point (rank 1, m = 1) takes every step in Python scalars,
bit for bit the matrix route: the jet Gram scales its entries by the float
h^-1/2 twice, the 2 x 2 Gram is factored in closed form, R = |t|^2, and the
1 x 1 curvature and residual are taken from four numbers.  Any other size
takes LAPACK's Cholesky, inverse and eigensolve.  numpy is the only dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curvature import JetGram, curvature_matrix, frame_from_jet
from .positivity import inverse_factor


@dataclass(frozen=True, eq=False)
class LocalOperatorForm:
    """The canonical local-operator representation: t, whose n-row blocks are
    the t_l of the nilpotent parts, and R = t conj(t)^t."""

    t: np.ndarray  # mn x mn, the lower-right block of P

    @cached_property
    def R(self) -> np.ndarray:
        """mn x mn, the lower-right block of G^-1: P is block upper triangular,
        so the lower-right block of P P^H is t t^H.  A 1 x 1 t, every kernel
        point's, gives |t|^2 in Python scalars."""
        if self.t.shape == (1, 1):
            (t,), = self.t.tolist()
            return np.array([[(t * t.conjugate()).real]], dtype=self.t.dtype)
        R = self.t @ self.t.conj().T
        # its diagonal is real; a fused multiply-add in the product leaves roundoff there
        np.fill_diagonal(R, R.diagonal().real)
        return R


def jet_gram(kernel, w: complex) -> JetGram:
    """Jet Gram of a scalar kernel (rank n = 1, m = 1), of the frame made
    orthonormal at w: :func:`curvature.frame_from_jet`.

    Higher rank or more variables enter as ``JetGram(G, m, n)``.
    """
    return frame_from_jet(kernel, w)


def canonical_form(gram: JetGram) -> LocalOperatorForm:
    """Orthonormalize the jet basis and extract the canonical blocks."""
    # P_11 = I because the top-left block of G is the identity
    return LocalOperatorForm(t=inverse_factor(gram.G)[gram.n:, gram.n:])


def verify_tt_identity_gram(gram: JetGram, form: LocalOperatorForm) -> float:
    """Relative spectral-norm residual of t conj(t)^t = (-curvature)^-1 for the
    canonical form of ``gram``, the target formed from :func:`curvature_matrix`,
    not from the factor behind t; one eigensolve gives both spectra.  A 1 x 1
    curvature, every kernel point's, takes eigvalsh's values in closed form:
    the real parts of R - target and of the target."""
    curvature = curvature_matrix(gram).matrix
    if curvature.shape == (1, 1):
        (c,), = curvature.tolist()
        (r,), = form.R.tolist()
        target = 1.0 / -c.real
        return abs(r.real - target) / abs(target)
    target = np.linalg.inv(-curvature)
    resid, scale = np.abs(np.linalg.eigvalsh(np.stack((form.R - target, target)))).max(axis=1)
    return float(resid / scale)


def verify_tt_identity(kernel, w: complex) -> float:
    """Kernel route of the identity check (rank 1, m = 1)."""
    gram = jet_gram(kernel, w)
    return verify_tt_identity_gram(gram, canonical_form(gram))
