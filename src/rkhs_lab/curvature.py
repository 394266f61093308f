"""Curvature scalars of kernels and curvature matrices of jet Grams.

The local object is the jet Gram G, the Gram matrix of a frame and its first
derivatives d_1, ..., d_m at a point, in n x n blocks.  Its top-left block is
the metric h.  A :class:`JetGram` applies the congruence of every block with
h^-1/2 when it is built, and the curvature matrix is minus the Schur complement
of its top-left block, which is then I.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import isfinite

import numpy as np

from . import kernels as kc
from .errors import (ConfigError, DegenerateKernel, DimensionMismatch, NonFiniteValue,
                     NotPositiveDefinite)


@dataclass(frozen=True, eq=False)
class JetGram:
    """(m+1)n x (m+1)n Gram matrix of (frame, d_1 frame, ..., d_m frame), of the
    frame made orthonormal at the point.

    Built from the Gram G of any frame: the frame change gamma -> gamma s,
    s = h^-1/2 with h the top-left block, takes every n x n block G_ij to
    s G_ij s, so the top-left block of ``G`` is I.  An m or n that is not an
    integer >= 1 is refused with DimensionMismatch, a non-finite entry (given
    or normalized) with NonFiniteValue, a metric h that is not positive
    definite with NotPositiveDefinite.
    """

    G: np.ndarray
    m: int
    n: int

    def __post_init__(self):
        m, n = self.m, self.n
        for name, value in (("m", m), ("n", n)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise DimensionMismatch(f"{name} must be an integer >= 1, got {value!r}")
        G = np.asarray(self.G, dtype=complex)
        size = (m + 1) * n
        if G.shape != (size, size):
            raise DimensionMismatch(f"Gram must be {size} x {size}")
        entries = G.ravel().tolist()
        if not all(map(cmath.isfinite, entries)):
            raise NonFiniteValue("Gram has a non-finite entry")
        if n == 1:  # s G_ij s in Python scalars; + 0.0 signs a zero as that product does
            s = float(_inv_sqrt_hermitian(entries[0].real))
            entries = [g * s * s + 0.0 for g in entries]
            G = np.array(entries).reshape(size, size)
        else:
            s = _inv_sqrt_hermitian(G[:n, :n])
            blocks = G.reshape(m + 1, n, m + 1, n).swapaxes(1, 2)  # blocks[i, j] = G_ij
            with np.errstate(over="ignore", invalid="ignore"):
                G = (s @ blocks @ s).swapaxes(1, 2).reshape(size, size)
            entries = G.ravel().tolist()
        if not all(map(cmath.isfinite, entries)):
            raise NonFiniteValue("the normalized Gram has a non-finite entry")
        object.__setattr__(self, "G", G)


@dataclass(frozen=True, eq=False)
class CurvatureMatrix:
    """The mn x mn curvature matrix, in n x n blocks indexed by derivative."""

    matrix: np.ndarray


def _inv_sqrt_hermitian(h):
    """h^-1/2 of a Hermitian positive definite metric h, an array, or a float h
    whose root is eigh's value in closed form, by numpy's power as there (libm's
    pow and 1 / sqrt can round apart from numpy's power loop)."""
    vals, vecs = ((h,), None) if isinstance(h, float) else np.linalg.eigh(h)  # ascending
    if not vals[0] > 0.0:
        raise NotPositiveDefinite(f"metric not positive definite (min eig {vals[0]:.3e})")
    return np.power(h, -0.5) if vecs is None else (vecs * vals ** -0.5) @ vecs.conj().T


def frame_from_jet(kernel, w: complex) -> JetGram:
    """Rank-1 jet Gram of the frame K(., w) made orthonormal at w, from the
    order-1 kernel jet."""
    return JetGram(kc.jet(kernel, w, 1), 1, 1)


def curvature_matrix(gram: JetGram) -> CurvatureMatrix:
    """-(H22 - H21 H12), minus the Schur complement of the metric block of the
    jet Gram H of the frame orthonormal at the point.

    Block (i, j) is -(dbar_i d_j h - (dbar_i h) h^-1 (d_j h)) for that frame.
    A 2 x 2 Gram (rank 1, m = 1) is taken in Python scalars.
    """
    H, n = gram.G, gram.n
    if H.shape == (2, 2):
        (_, h01), (h10, h11) = H.tolist()
        return CurvatureMatrix(matrix=np.array([[-(h11 - h10 * h01)]]))
    return CurvatureMatrix(matrix=-(H[n:, n:] - H[n:, :n] @ H[:n, n:]))


def rank1_curvature(s00: float, s10: float, s11: float, w: complex) -> float:
    """(S10 / S00)^2 - S11 / S00, the curvature of the rank-1 jet Gram
    [[S00, S10], [S10, S11]] at w: :func:`curvature_matrix` of its
    :class:`JetGram`, whose frame change is S00^-1/2.

    Only ratios of the sums enter, so a kernel and a positive multiple of it
    have the same curvature, also where a product of two sums would leave the
    double range.  Refuses DegenerateKernel unless S00 > 0, and NonFiniteValue
    unless the curvature is finite.  The arithmetic is in Python floats, so an
    overflow gives inf or nan, never a warning.
    """
    if not s00 > 0.0:
        raise DegenerateKernel(f"K(w, w) = {s00} at w = {w}")
    slope = s10 / s00
    curv = slope * slope - s11 / s00
    if not isfinite(curv):
        raise NonFiniteValue(f"curvature is not finite at w = {w} (K(w, w) = {s00:.3e})")
    return curv


def curvature_scalar(kernel, w):
    """-d d-bar log K(w, w) = (|J01| / J00)^2 - J11 / J00 from the order-1 jet
    at w, or, for a series kernel, at each of an array of points w.

    The curvature of a diagonal kernel is radial, so an array takes the
    order-1 sums at |w|, for all points in one blocked product
    (``kernels._grid_sums``), and the rank-1 quotient elementwise.  At its
    first bad point it runs the one-point path, which raises its own error
    there: the domain, a sum that is not finite, S00 <= 0 or a curvature that
    is not finite; a NonFiniteValue follows only where that point's sums are
    finite and the blocked ones are not.  The values may differ from the
    one-point path's in the last bits, since the product sums in another
    order.  An array of points on a closed form is refused with ConfigError.
    """
    if not kc._is_grid(w):
        return rank1_curvature(*order1_sums(kernel, w), w)
    if not isinstance(kernel, kc.SeriesKernel):
        raise ConfigError("argument 'kernel' of curvature_scalar must be a series kernel "
                          "for an array of points")
    points = np.asarray(w, dtype=complex)
    flat = points.ravel()
    r = kc._moduli(flat)
    outside = ~(r <= 1.0 - kc.BOUNDARY_MARGIN)  # NaN and inf too, as in check_point
    if kernel.inner_radius is not None:
        outside |= r < kernel.inner_radius + kc.BOUNDARY_MARGIN
    stop = int(outside.argmax()) if outside.any() else r.size
    sums = kc._grid_sums(kernel, r[:stop], 1)
    s00, s10, s11 = sums.T
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        slope = s10 / s00
        curv = slope * slope - s11 / s00
    bad = ~(np.isfinite(sums).all(axis=1) & (s00 > 0.0) & np.isfinite(curv))
    first = int(bad.argmax()) if bad.any() else stop
    if first < flat.size:
        at = flat[first]
        curvature_scalar(kernel, at)  # raises the one-point error, if there is one
        raise NonFiniteValue(f"the blocked sums give no finite curvature at w = {at}")
    return curv.reshape(points.shape)


def order1_sums(kernel, w: complex) -> tuple:
    """J00, J01 up to its phase, and J11 of the order-1 jet at w, real.

    The curvature does not depend on the phase of the jet, so a series kernel
    gives its real diagonal sums S00, S10, S11 (the jet is these sums times
    the phase powers of w); a closed form gives J00, |J01|, J11 of its jet."""
    if isinstance(kernel, kc.SeriesKernel):
        kc.check_point(kernel, w)
        return kc._diagonal_sums(kernel, w, 1)
    (j00, j01), (_, j11) = kc.jet(kernel, w, 1).tolist()
    return j00.real, abs(j01), j11.real


def ci_slack(kernel, w, szego_value=None) -> tuple:
    """(curvature, bound, slack = bound - curvature) of the curvature inequality at w,
    or at each of an array of points w (:func:`curvature_scalar`), elementwise;
    the bound is -(1 - |w|^2)^-2, or -4 pi^2 S(w, w)^2 given the Szego value
    S(w, w), an array of them for an array of points (the
    :func:`kernels.diagonal_values` of a Szego kernel).  It is the one slack
    routine: ``ci-check`` and ``annulus.strict_ci_check`` read it.
    A kernel on the annulus without a Szego value is refused with ConfigError."""
    if szego_value is None and kernel.inner_radius is not None:
        raise ConfigError(f"argument 'szego_value' is required for a kernel on the "
                          f"annulus r = {kernel.inner_radius}")
    curv = curvature_scalar(kernel, w)
    if kc._is_grid(w):
        r = kc._moduli(w)
        szego_value = None if szego_value is None else np.asarray(szego_value, dtype=float)
    else:
        r = abs(w)
    if szego_value is None:  # libm's pow, as Python's ** at one point; numpy's may round apart
        bound = -np.float_power(1.0 - r * r, -2)
    else:
        bound = -4.0 * np.pi ** 2 * szego_value ** 2
    return curv, bound, bound - curv


def mobius_rule_check(kernel, a: complex, z: complex) -> float:
    """Residual of the curvature transformation rule under phi_a.

    Returns |K_curv(pullback, phi_a(z)) - K_curv(K, z) |phi_a'(z)|^-2|.  A
    center a off the disc is refused with CenterOutsideDisc, and a z off the
    kernel's domain with PointOutsideDomain, before phi_a(z) is formed.
    """
    pulled = kc.mobius_pullback(kernel, a)
    kc.check_point(kernel, z)
    lhs = curvature_scalar(pulled, kc.mobius_map(a, z))
    rhs = curvature_scalar(kernel, z) * abs(kc.mobius_deriv(a, z)) ** -2
    return abs(lhs - rhs)
