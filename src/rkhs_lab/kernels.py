"""Diagonal reproducing kernels on the disc and annulus.

A series kernel is K(z, w) = sum_n a_n z^n conj(w)^n over a finite index
window.  Every sum over it is built from two row builders over the live
window: real rows M_x[p, k] = F_p(n_k) |x|^(n_k - p) (F_p the falling
factorial) and phase rows u^(n_k), |u| = 1, by repeated products along n.
One point pair (z, w) is one moment block with the phase row c of
u = e^(i (arg z - arg w)),
d^p_z d^q_wbar K(z, w) = (conj(z) / |z|)^p (M_z diag(a c) M_w^T)[p, q] (w / |w|)^q;
on the diagonal c = 1 and the sums are real.  A point cloud (a sampled Gram)
is one product ((M_z o E_z) diag(a)) (M_w o E_w)^H of the order-0 rows and
the phase rows E_x of each point's unit x / |x|.  Either way a_n sits between
the two real powers.  Both paths check every point against the domain,
refuse a sum that is not finite with ``NonFiniteValue``, and refuse a value
whose truncation tail bound exceeds TAIL_RTOL |K| (the largest |K| of a
matrix).  The constant rows of a kernel are computed once and kept on it.
Closed-form kernels, as built by normalization and Mobius pullback, answer
the same question through one callable, their derivative block
B[p, q] = d^p_z d^q_wbar K(z, w) for p, q <= order <= 2; a higher order is
refused with ``UnsupportedJetOrder``.  Both transforms are the congruence
L = A(z) B(phi(z), phi(w)) A(w)^H of the block of the kernel they transform,
with A a lower-triangular chain-rule factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, inf, isfinite
from typing import Callable, Optional

import numpy as np

from .errors import (
    CenterOutsideDisc,
    ConfigError,
    KernelVanishesNearCenter,
    NonFiniteValue,
    PointOutsideDomain,
    TruncationTailTooLarge,
    UnsupportedJetOrder,
)

DISC_DIAGONAL = "disc_diagonal"
ANNULUS_LAURENT = "annulus_laurent"

#: admissibility margin keeping geometric truncation tails below ~1e-12
BOUNDARY_MARGIN = 0.02
DEFAULT_N_MAX = 200
TAIL_RTOL = 1e-12


@dataclass(frozen=True)
class SeriesKernel:
    """Diagonal power/Laurent kernel with a finite truncation window.

    ``ns`` is the contiguous array of exponents, ``coeffs`` the matching
    coefficients; both are private read-only copies.  ``signed`` marks
    series (such as tilde transforms) that are allowed to carry non-positive
    coefficients.
    """

    kind: str
    ns: np.ndarray
    coeffs: np.ndarray
    inner_radius: Optional[float] = None
    signed: bool = False

    def __post_init__(self):
        ns = np.array(self.ns, dtype=int)
        coeffs = np.array(self.coeffs, dtype=float)
        ns.flags.writeable = coeffs.flags.writeable = False
        object.__setattr__(self, "ns", ns)
        object.__setattr__(self, "coeffs", coeffs)
        if ns.size == 0:
            raise ValueError("truncation window is empty")
        if ns.size != coeffs.size:
            raise ValueError("ns and coeffs length mismatch")
        if not np.all(np.diff(ns) == 1):
            raise ValueError("exponent window must be contiguous")
        if self.kind == DISC_DIAGONAL:
            if ns[0] != 0:
                raise ValueError("disc kernels start at n = 0")
        elif self.kind == ANNULUS_LAURENT:
            if self.inner_radius is None or not (0.0 < self.inner_radius < 1.0):
                raise ValueError("annulus kernel needs inner_radius in (0, 1)")
        else:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not self.signed and not np.all(coeffs > 0.0):
            raise ValueError("coefficients must be positive (use signed=True otherwise)")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")

    @cached_property
    def _live(self) -> tuple[np.ndarray, np.ndarray]:
        """Exponents and coefficients of the terms with a nonzero coefficient."""
        live = self.coeffs != 0.0
        return self.ns[live], self.coeffs[live]

    @cached_property
    def _row_store(self) -> list:
        """Constant rows of the live window for the highest order built so far;
        filled by :func:`_rows`."""
        return []

    @cached_property
    def _tail_growth(self) -> tuple:
        """(growth, envelope) of |a_n| at the outer end of the window and, for a
        Laurent window, at the inner end; see :func:`_sustained_growth`."""
        a = np.abs(self.coeffs)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.n_min < 0:
                return _sustained_growth(a), _sustained_growth(a[::-1])
            return (_sustained_growth(a),)

    @property
    def domain(self) -> str:
        return "annulus" if self.kind == ANNULUS_LAURENT else "disc"

    @property
    def n_min(self) -> int:
        return int(self.ns[0])

    @property
    def n_max(self) -> int:
        return int(self.ns[-1])

    @classmethod
    def disc(cls, coeffs) -> "SeriesKernel":
        coeffs = np.asarray(coeffs, dtype=float)
        return cls(DISC_DIAGONAL, np.arange(coeffs.size), coeffs)

    @classmethod
    def disc_rule(cls, rule: Callable[[np.ndarray], np.ndarray], n_max: int = DEFAULT_N_MAX) -> "SeriesKernel":
        ns = np.arange(n_max + 1)
        return cls(DISC_DIAGONAL, ns, np.asarray(rule(ns), dtype=float))

    @classmethod
    def geometric(cls, n_max: int = DEFAULT_N_MAX) -> "SeriesKernel":
        """Szego-type kernel a_n = 1 (unnormalized 1/(1 - z wbar))."""
        return cls.disc(np.ones(n_max + 1))

    @classmethod
    def bergman(cls, n_max: int = DEFAULT_N_MAX) -> "SeriesKernel":
        """Bergman-type kernel a_n = n + 1 (unnormalized (1 - z wbar)^-2)."""
        return cls.disc(np.arange(1.0, n_max + 2.0))

    @classmethod
    def annulus(cls, ns, coeffs, inner_radius: float, signed: bool = False) -> "SeriesKernel":
        return cls(ANNULUS_LAURENT, np.asarray(ns, dtype=int), np.asarray(coeffs, dtype=float),
                   inner_radius=inner_radius, signed=signed)


@dataclass(frozen=True)
class ClosedFormKernel:
    """Kernel given by its derivative block.

    ``block(z, w, order)`` returns the (order + 1) x (order + 1) array
    B[p, q] = d^p_z d^q_wbar K(z, w).  It is called with order <= 2 only and
    with points already checked against ``domain``; every value and
    derivative of the kernel is read off it.
    """

    block: Callable[[complex, complex, int], np.ndarray]
    domain: str = "disc"
    inner_radius: Optional[float] = None


# ---------------------------------------------------------------------------
# admissibility and series internals

def check_point(kernel, z: complex) -> None:
    r = abs(z)
    inner = kernel.inner_radius
    if not np.isfinite(r):
        raise PointOutsideDomain(f"point {z} is not finite")
    if r > 1.0 - BOUNDARY_MARGIN:
        raise PointOutsideDomain(f"|z| = {r:.4f} too close to the unit circle")
    if kernel.domain == "annulus" and r < inner + BOUNDARY_MARGIN:
        raise PointOutsideDomain(f"|z| = {r:.4f} too close to inner circle r = {inner}")


def _sustained_growth(a: np.ndarray, window: int = 20) -> tuple[float, float]:
    """Growth rate and geometric-envelope value at the end of the trailing window.

    Robust to single-coefficient dips and zeros (common in signed tilde
    series): the envelope max_i a_i growth^(end-i) replaces the literal last
    term, so a_end+k <= envelope * growth^k for the window-consistent rate.
    """
    w = min(window, a.size)
    tail = a[-w:]
    if float(tail.max()) == 0.0:
        return 0.0, 0.0
    nz = np.nonzero(tail)[0]
    if nz.size < 2 or nz[-1] == nz[0]:
        growth = 1.0
    else:
        lag = int(nz[-1] - nz[0])
        growth = float((tail[nz[-1]] / tail[nz[0]]) ** (1.0 / lag))
    idx = np.arange(tail.size)
    with np.errstate(over="ignore"):
        envelope = float(np.max(tail * growth ** (tail.size - 1 - idx)))
    return growth, envelope


def _series_tail_bound(kernel: SeriesKernel, rho: float) -> float:
    """Geometric bound on the dropped tail of the coefficient series at
    rho = |z wbar|, in Python floats: env rho^N g rho / (1 - g rho) at the
    outer end and, for a Laurent window, env rho^(n_min) (g / rho) / (1 - g / rho)
    at the inner end, with (g, env) from :func:`_sustained_growth`; inf where
    a ratio reaches 1 or a term overflows.  Each term is convex in rho, so
    over a range of rho the bound is largest at one of its ends.
    """
    rho, bound = float(rho), 0.0
    for (growth, env), n, s in zip(kernel._tail_growth, (kernel.n_max, kernel.n_min), (1, -1)):
        try:
            first, ratio = env * rho ** n, growth * rho ** s
        except OverflowError:
            first, ratio = env * inf, inf
        if first > 0.0:
            bound += first * ratio / (1.0 - ratio) if ratio < 1.0 else inf
    return bound


def _rows(kernel: SeriesKernel, order: int):
    """(fall, exps) of the live window for p <= order, sliced from the rows of
    the highest order built so far on the kernel.

    fall[p, k] = F_p(n_k), with F_p(n) = n (n - 1) ... (n - p + 1) the falling
    factorial; exps[p, k] = n_k - p, replaced by 0 where F_p(n_k) = 0 so that
    x = 0 never meets a negative power.
    """
    store = kernel._row_store
    if not store or store[0].shape[0] <= order:
        ns = kernel._live[0]
        fall = np.ones((order + 1, ns.size))
        for p in range(1, order + 1):
            fall[p] = fall[p - 1] * (ns - (p - 1))
        store[:] = fall, np.where(fall != 0.0, ns - np.arange(order + 1)[:, None], 0)
    return store[0][:order + 1], store[1][:order + 1]


def _unit(x):
    """x / |x| for a complex x or an array of them, the unit of 0 taken as 1.
    x is first scaled by 2^600, exactly for a point of the domain, so that a
    subnormal x loses no bits to |x| and its unit stays unimodular."""
    x = x * 2.0 ** 600 + (x == 0)
    return x / abs(x)


def _phase_rows(kernel: SeriesKernel, units) -> np.ndarray:
    """E[..., k] = u^(n_k) over the live window for each unit u of ``units``
    (a complex or an array of them, |u| = 1).

    The powers u^j, 0 <= j <= max |n|, are repeated products along j (exact
    for a real u), and u^-j is taken as conj(u^j); the rows are laid out over
    the contiguous window, then indexed by the live exponents.
    """
    lo, hi = kernel.n_min, kernel.n_max
    powers = np.repeat(np.asarray(units, dtype=complex)[..., None], max(hi, -lo, 0) + 1, axis=-1)
    powers[..., 0] = 1.0
    np.cumprod(powers, axis=-1, out=powers)
    rows = (np.concatenate((powers[..., -lo:0:-1].conj(), powers[..., :max(hi, -1) + 1]), axis=-1)
            if lo < 0 else powers[..., lo:hi + 1])
    ns = kernel._live[0]
    return rows if rows.shape[-1] == ns.size else rows[..., ns - lo]


def _moment_block(kernel: SeriesKernel, z: complex, w: complex, order: int) -> np.ndarray:
    """B[p, q] = d^p_z d^q_wbar K(z, w) for p, q <= order from the real rows
    M_x[p, k] = F_p(n_k) |x|^exps[p, k] and the phase row of (z, w), as in the
    module docstring.  Each a_k scales the power of |z| before it meets that
    of |w|, so a small a_k at a negative n_k (inner end of a Laurent window)
    keeps the sum finite where a power alone would overflow.  At z == w the
    sums are real, and the upper triangle is the conjugate transpose of the
    lower.
    """
    fall, exps = _rows(kernel, order)
    z, w = complex(z), complex(w)
    rz, rw = abs(z), abs(w)
    diagonal = z == w
    ez = _unit(z)
    ew = ez if diagonal else _unit(w)
    a = kernel._live[1]
    with np.errstate(over="ignore", invalid="ignore"):
        Mz = Mw = fall * rz ** exps
        if not diagonal:
            Mw = fall * rw ** exps
            a = a * _phase_rows(kernel, ez * ew.conjugate())
        sums = ((Mz * a) @ Mw.T).tolist()  # item access on numpy costs more
    pz, pw = [1.0 + 0j], [1.0 + 0j]
    for _ in range(order):
        pz.append(pz[-1] * ez.conjugate())
        pw.append(pw[-1] * ew)
    B = [[0j] * (order + 1) for _ in range(order + 1)]
    for p in range(order + 1):
        for q in range(p + 1 if diagonal else order + 1):
            if not (isfinite(sums[p][q].real) and isfinite(sums[p][q].imag)):
                at = (f"K(w, w) is not finite at w = {w}" if diagonal and order
                      else f"K(z, w) is not finite at z = {z}, w = {w}")
                raise NonFiniteValue(f"moment sum d^{p} d^{q}bar {at}")
            if diagonal:
                B[p][q] = pz[p - q] * sums[p][q]
                B[q][p] = B[p][q].conjugate()
            else:
                B[p][q] = pz[p] * sums[p][q] * pw[q]
    return np.array(B)


def _block(kernel, z: complex, w: complex, order: int) -> np.ndarray:
    """B[p, q] = d^p_z d^q_wbar K(z, w) for p, q <= order, after checking z and w:
    the moment block for a series kernel, the kernel's own block for a closed
    form, which supports order <= 2 only."""
    check_point(kernel, z)
    if w is not z:
        check_point(kernel, w)
    if isinstance(kernel, SeriesKernel):
        return _moment_block(kernel, z, w, order)
    if order > 2:
        raise UnsupportedJetOrder(f"closed-form kernels support p, q <= 2, got order {order}")
    return kernel.block(z, w, order)


def _refuse_tail(tail: float, scale: float, z, w) -> None:
    """Refuse a sum whose truncation tail bound at (z, w) exceeds TAIL_RTOL * scale."""
    if tail > TAIL_RTOL * max(scale, 1e-300):
        raise TruncationTailTooLarge(f"tail bound {tail:.3e} exceeds {TAIL_RTOL:.0e} "
                                     f"* max|K| ({scale:.3e}) at z={z}, w={w}")


# ---------------------------------------------------------------------------
# public operations

def kernel_matrix(kernel: SeriesKernel, z, w) -> np.ndarray:
    """Matrix K(z_i, w_j) of a series kernel over two arrays of points, the
    cloud product of the module docstring.  Every point is checked against
    the domain, and the truncation tail bound against the largest |K| of the
    matrix, the scale of a Gram's eigenvalue tolerance; the bound is convex
    in rho = |z_i| |w_j|, so it is taken at the smallest and largest rho.
    """
    same = w is z
    z, w = (np.atleast_1d(np.asarray(x, dtype=complex)) for x in (z, w))
    for xi in z if same else np.concatenate((z, w)):
        check_point(kernel, xi)
    rz, rw = np.abs(z), np.abs(w)
    exps = _rows(kernel, 0)[1]
    with np.errstate(over="ignore", invalid="ignore"):
        Ez = rz[:, None] ** exps * _phase_rows(kernel, _unit(z))
        Ew = Ez if same else rw[:, None] ** exps * _phase_rows(kernel, _unit(w))
        K = (Ez * kernel._live[1]) @ Ew.conj().T
    if not np.isfinite(K).all():
        i, j = np.argwhere(~np.isfinite(K))[0]
        raise NonFiniteValue(f"series sum K(z, w) is not finite at z = {z[i]}, w = {w[j]}")
    scale = float(np.abs(K).max(initial=0.0))
    for i, j in ((rz.argmin(), rw.argmin()), (rz.argmax(), rw.argmax())) if K.size else ():
        _refuse_tail(_series_tail_bound(kernel, rz[i] * rw[j]), scale, z[i], w[j])
    return K


def eval_kernel(kernel, z: complex, w: complex) -> complex:
    """Evaluate K(z, w); Hermitian in (z, w) by construction.  A series value
    is refused where its truncation tail bound exceeds TAIL_RTOL * |K(z, w)|."""
    value = complex(_block(kernel, z, w, 0)[0, 0])
    if isinstance(kernel, SeriesKernel):
        _refuse_tail(_series_tail_bound(kernel, abs(z) * abs(w)), abs(value), z, w)
    return value


def deriv2(kernel, z: complex, w: complex, p: int, q: int) -> complex:
    """Two-point mixed derivative d^p_z d^q_wbar K(z, w)."""
    return complex(_block(kernel, z, w, max(p, q))[p, q])


def mixed_deriv(kernel, w: complex, p: int, q: int) -> complex:
    """Diagonal mixed derivative d^p d^qbar K(w, w)."""
    return deriv2(kernel, w, w, p, q)


def jet(kernel, w: complex, order: int) -> np.ndarray:
    """Diagonal mixed derivatives J[p, q] = d^p d^qbar K(w, w), 0 <= p, q <= order."""
    if order < 1:
        raise ValueError("jet order must be >= 1")
    return _block(kernel, w, w, order)


def tilde_kernel(kernel: SeriesKernel) -> SeriesKernel:
    """Coefficients of (1 - z wbar) K(z, w): b_0 = a_0, b_n = a_n - a_{n-1}.

    The result may have non-positive coefficients; it is returned as a
    signed series, and ``positivity.contraction_check`` judges its signs.
    """
    if kernel.kind != DISC_DIAGONAL:
        raise ConfigError(f"field 'kind' must be '{DISC_DIAGONAL}' for the tilde "
                          f"transform, got '{kernel.kind}'")
    a = kernel.coeffs
    b = np.empty_like(a)
    b[0] = a[0]
    b[1:] = a[1:] - a[:-1]
    return SeriesKernel(DISC_DIAGONAL, kernel.ns, b, signed=True)


def _congruence(kernel, phi, factor, scale=1.0) -> ClosedFormKernel:
    """Closed form with block L = scale A(z) B(phi(z), phi(w)) A(w)^H on the
    domain of ``kernel``, B the block of ``kernel`` and A = factor(x) the
    lower-triangular 3 x 3 factor of the chain rule at x.  By Leibniz and the
    chain rule each transform below is of this form, and it needs one block of
    ``kernel`` per point pair."""

    def block(z: complex, w: complex, order: int) -> np.ndarray:
        size = order + 1
        x, az = phi(z), factor(z)[:size, :size]
        y, aw = (x, az) if w == z else (phi(w), factor(w)[:size, :size])
        return scale * (az @ _block(kernel, x, y, order) @ aw.conj().T)

    return ClosedFormKernel(block=block, domain=kernel.domain, inner_radius=kernel.inner_radius)


def normalize_at(kernel, zeta: complex) -> ClosedFormKernel:
    """Kernel normalized at zeta: L(z, zeta) = 1 near zeta, L(zeta, zeta) = 1.

    L(z, w) = K(zeta, zeta) f(z) K(z, w) conj(f(w)) with f = 1 / K(., zeta),
    whose Leibniz factor is A[p, i] = comb(p, i) f^(p - i)(z).
    """
    check_point(kernel, zeta)
    # the kernel must not vanish near the center; sample two small circles
    pts = [zeta + radius * np.exp(2j * np.pi * k / 10)
           for radius in (0.05, 0.1) for k in range(10)]
    if isinstance(kernel, SeriesKernel):
        values = kernel_matrix(kernel, pts, [zeta])[:, 0]
    else:
        values = (eval_kernel(kernel, pt, zeta) for pt in pts)
    for pt, value in zip(pts, values):
        if abs(value) < 1e-13:
            raise KernelVanishesNearCenter(f"K(z, {zeta}) vanishes at z = {pt}")

    def factor(z: complex) -> np.ndarray:
        u0, u1, u2 = _block(kernel, z, zeta, 2)[:, 0]
        f = (1.0 / u0, -u1 / u0 ** 2, (2.0 * u1 ** 2 - u0 * u2) / u0 ** 3)
        return np.array([[comb(p, i) * f[p - i] if i <= p else 0j for i in range(3)]
                         for p in range(3)])

    return _congruence(kernel, lambda z: z, factor, scale=eval_kernel(kernel, zeta, zeta))


def mobius_pullback(kernel, a: complex) -> ClosedFormKernel:
    """Kernel L(z, w) = K(psi(z), psi(w)), psi = phi_a^-1, phi_a(z) = (z-a)/(1-abar z).

    By the chain rule its factor is A = [[1, 0, 0], [0, psi', 0], [0, psi'', psi'^2]].
    """
    if abs(a) >= 1.0:
        raise CenterOutsideDisc(f"|a| = {abs(a):.4f} >= 1")
    if kernel.domain != "disc":
        raise ConfigError(f"field 'kind' must be '{DISC_DIAGONAL}' for the Mobius "
                          f"pullback, got a kernel on the {kernel.domain}")
    ab = np.conjugate(a)
    s = 1.0 - abs(a) ** 2

    def factor(z: complex) -> np.ndarray:
        d = 1.0 + ab * z
        psi1 = s / d ** 2
        return np.array([[1.0, 0.0, 0.0], [0.0, psi1, 0.0],
                         [0.0, -2.0 * ab * s / d ** 3, psi1 ** 2]], dtype=complex)

    return _congruence(kernel, lambda z: (z + a) / (1.0 + ab * z), factor)


def mobius_map(a: complex, z: complex) -> complex:
    """phi_a(z) = (z - a) / (1 - abar z)."""
    return (z - a) / (1.0 - np.conjugate(a) * z)


def mobius_deriv(a: complex, z: complex) -> complex:
    """phi_a'(z) = (1 - |a|^2) / (1 - abar z)^2."""
    return (1.0 - abs(a) ** 2) / (1.0 - np.conjugate(a) * z) ** 2
