"""Diagonal reproducing kernels on the disc and annulus.

A series kernel is K(z, w) = sum_n a_n z^n conj(w)^n over a finite index
window.  Two-point sums are built from two row builders over the live
window: real rows M_x[p, k] = F_p(n_k) |x|^(n_k - p) (F_p the falling
factorial) and phase rows u^(n_k), |u| = 1, by repeated products along n.
One point pair (z, w) is one moment block with the phase row c of
u = e^(i (arg z - arg w)),
d^p_z d^q_wbar K(z, w) = (conj(z) / |z|)^p (M_z diag(a c) M_w^T)[p, q] (w / |w|)^q.
On the diagonal c = 1, and the real sums S_pq = sum_k a_k F_p F_q |w|^(2 n_k - p - q)
take one power row per point (``_diagonal_sums``): with x = |w|^(n_k - order),
S_pq = |w|^(2 order - p - q) (F_p F_q) @ (a x) x, plus the exact terms of
the at most ``order`` columns 0 <= n_k < order.  The jet is
S_pq (conj(w) / |w|)^(p - q), and the phase-free local invariants read S
alone.
A grid of points needs the sums at each |w| only, and takes them for all
its radii in one blocked product (``_grid_sums``): the power rows of a block
of radii form the matrix X[i, k] = r_i^(e_k), and the sums of the block are
((a X) X) @ G^T with the same cached G, then scaled and completed by the
low terms as for one point.  A block holds at most ``_GRID_BLOCK`` doubles,
so a grid of any length needs bounded memory.  One point keeps the one-row
path, which costs less than a grid of one.
Values over two arrays of points (``kernel_matrix``) are one product
((M_z o E_z) diag(a)) (M_w o E_w)^H of the order-0 rows and the phase rows
E_x of each point's unit x / |x|.  Every path puts a_n between the two real
powers, so a small a_n at the inner end of a Laurent window keeps a sum
finite where a power alone would overflow, and no cached row holds a_n:
a F_p F_q would overflow first for coefficients near the double limit.
Sums are taken under ``np.errstate`` except the diagonal sums of a window
that no power, product or sum can overflow at any admissible point, decided
once per kernel by one bound at the two extreme admissible radii.
The Szego kernel and the weighted Bergman kernel of rho^b on the annulus,
as the ``annulus`` builders make them, carry the closed form of their
diagonal (``SeriesKernel.dual``), and ``_diagonal_sums`` and ``_grid_sums``
take their sums from it instead of the window (``_dual_sums``): the
Poisson-summed dual of the Laurent series, with L = ln(1/r),
s = -2 ln|w|, u_k = (pi / 2L)(s + 2 pi i k) and beta = 2 + b,
K(w, w) = |w|^-beta pi / (4 L^2) sum_k e^(i pi b k) csc^2 u_k and
S(w, w) = |w|^-1 / (4L) sum_k (-1)^k csc u_k: in one form
c0 |w|^-beta sum_k gamma^k csc^e u_k, gamma = e^(i pi b), with
(e, b, c0) = (2, b, pi / (4 L^2)) or (1, -1, 1 / (4L)).  The terms decay like
q~^|k| (sqrt(q~)^|k| for S), q~ = exp(-2 pi^2 / L); the k != 0 terms are
summed over k in closed form, one Fourier mode of csc^e at a time, and no
mode above 2^-60 of the k = 0 term is left out (one mode at r = 0.5, ten
to thirteen at r = 0.01).  So these sums, and every diagonal reader (the
jet at z = w, K(w, w), the curvature), are exact to rounding up to the
edges of the domain and do not depend on the window's length.  The window
still serves two-point sums and ``kernel_matrix``.
Every path checks each point against the domain, refuses a sum that is not
finite with ``NonFiniteValue``, and refuses a window value whose truncation
tail bound exceeds TAIL_RTOL |K| (the largest |K| of a matrix); a dual
diagonal has no tail.  The constant rows of a kernel are computed once and
kept on it.
Closed-form kernels, as built by normalization and Mobius pullback, answer
the same question through one callable, their derivative block
B[p, q] = d^p_z d^q_wbar K(z, w) for p, q <= order <= 2; a higher order is
refused with ``UnsupportedJetOrder``.  Both transforms are the congruence
L = A(z) B(phi(z), phi(w)) A(w)^H of the block of the kernel they transform,
with A a lower-triangular chain-rule factor.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from math import comb, cos, exp, inf, isfinite, log, log1p, pi, sin
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

#: admissibility margin keeping geometric truncation tails below ~1e-12
BOUNDARY_MARGIN = 0.02
DEFAULT_N_MAX = 200
TAIL_RTOL = 1e-12
GROWTH_WINDOW = 20  # trailing coefficients that set a window end's growth rate
VANISHING_TOL = 1e-13  # normalize_at refuses a center where |K(z, zeta)| < VANISHING_TOL nearby
_UNGUARDED = nullcontext()  # the context of sums that cannot overflow
_GRID_BLOCK = 2 ** 15  # doubles of power rows per block of _grid_sums


def _check_inner_radius(inner_radius) -> None:
    if inner_radius is not None and not 0.0 < inner_radius < 1.0:
        raise ConfigError(f"field 'inner_radius' must lie in (0, 1), got {inner_radius}")


@dataclass(frozen=True, eq=False)
class SeriesKernel:
    """Diagonal power/Laurent kernel with a finite truncation window.

    The window is its first exponent ``n_min`` (0 on the disc) and its
    coefficients ``coeffs``, a private read-only copy, of the exponents
    ``ns`` = n_min, ..., n_max.  The kernel is on the annulus
    inner_radius < |z| < 1 exactly when ``inner_radius`` is set.  ``signed``
    marks series (such as tilde transforms) that may carry non-positive
    coefficients.  ``dual`` = (e, b), set on the annulus by the builders of the
    Szego kernel (e = 1, b = -1) and of the weighted Bergman kernel of rho^b
    (e = 2), makes the diagonal sums the closed form of :func:`_dual_sums`;
    the window then serves two-point sums only.  Anything else is refused with
    ConfigError naming the field.
    """

    n_min: int
    coeffs: np.ndarray
    inner_radius: Optional[float] = None
    signed: bool = False
    dual: Optional[tuple[int, float]] = None

    def __post_init__(self):
        if isinstance(self.n_min, bool) or not isinstance(self.n_min, (int, np.integer)):
            raise ConfigError(f"field 'n_min' must be an integer, got {self.n_min!r}")
        object.__setattr__(self, "n_min", int(self.n_min))
        coeffs = np.array(self.coeffs, dtype=float)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ConfigError("field 'coeffs' must be a non-empty list of coefficients")
        if self.inner_radius is None and self.n_min != 0:
            raise ConfigError(f"field 'n_min' of a disc kernel must be 0, got {self.n_min}")
        _check_inner_radius(self.inner_radius)
        if not np.all(np.isfinite(coeffs)):
            raise ConfigError("field 'coeffs' must be finite")
        if not self.signed and not np.all(coeffs > 0.0):
            raise ConfigError("field 'coeffs' must be positive (use signed=True otherwise)")
        if self.dual is not None and not (
                self.inner_radius is not None and isinstance(self.dual, tuple)
                and (self.dual == (1, -1.0) or len(self.dual) == 2 and self.dual[0] == 2
                     and isinstance(self.dual[1], float) and isfinite(self.dual[1]))):
            raise ConfigError(f"field 'dual' must be (1, -1.0) or (2, a finite float b) on "
                              f"the annulus, got {self.dual!r}")

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
    def _sum_store(self) -> dict:
        """Constant parts of the diagonal sums by order; filled by
        :func:`_diagonal_rows`.  Kept per order, not sliced from the highest
        order as ``_rows`` is: the order-o sums take the power row |w|^(n - o),
        so K(w, w) served from order-1 constants moves in its last bits (at 87
        of 200 radii in [0, 0.9] on the 201-term n + 1 kernel), and would
        depend on the order a kernel was first asked for."""
        return {}

    @cached_property
    def _dual_store(self) -> dict:
        """Constants of the dual diagonal sums by order; filled by :func:`_dual_rows`."""
        return {}

    @cached_property
    def _tilde(self) -> "SeriesKernel":
        """The series of :func:`tilde_kernel`, built once: b_0 = a_0, b_n = a_n - a_(n-1)."""
        a = self.coeffs
        b = np.empty_like(a)
        b[0] = a[0]
        b[1:] = a[1:] - a[:-1]
        return SeriesKernel(self.n_min, b, signed=True)

    @cached_property
    def _shift(self) -> Optional["SeriesKernel"]:
        """The kernel of ``positivity.shift_kernel`` when it pads, built once:
        the coefficients continued by the last one up to n = DEFAULT_N_MAX.
        None when there is nothing to pad; the kernel itself would make a
        reference cycle, which only the cyclic garbage collector frees."""
        a = self.coeffs
        if a.size > DEFAULT_N_MAX:
            return None
        return SeriesKernel.disc(np.concatenate([a, np.full(DEFAULT_N_MAX + 1 - a.size, a[-1])]))

    @cached_property
    def _tail_growth(self) -> tuple:
        """(growth, envelope) of |a_n| at the outer end of the window and, for a
        Laurent window, at the inner end; see :func:`_sustained_growth`."""
        a = np.abs(self.coeffs)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.n_min < 0:
                return _sustained_growth(a), _sustained_growth(a[::-1])
            return (_sustained_growth(a),)

    @cached_property
    def ns(self) -> np.ndarray:
        """The exponents of the window, read-only."""
        ns = np.arange(self.n_min, self.n_max + 1)
        ns.flags.writeable = False
        return ns

    @property
    def n_max(self) -> int:
        return self.n_min + self.coeffs.size - 1

    @classmethod
    def disc(cls, coeffs) -> "SeriesKernel":
        return cls(0, coeffs)


@dataclass(frozen=True)
class ClosedFormKernel:
    """Kernel given by its derivative block.

    ``block(z, w, order)`` returns the (order + 1) x (order + 1) array
    B[p, q] = d^p_z d^q_wbar K(z, w), called with order <= 2 only and with points
    already checked against the domain, the annulus when ``inner_radius`` (in
    (0, 1), else ConfigError) is set; every value and derivative is read off it.
    """

    block: Callable[[complex, complex, int], np.ndarray]
    inner_radius: Optional[float] = None

    def __post_init__(self):
        _check_inner_radius(self.inner_radius)


# ---------------------------------------------------------------------------
# admissibility and series internals

def check_point(kernel, z: complex) -> None:
    r = abs(z)
    inner = kernel.inner_radius
    if not isfinite(r):
        raise PointOutsideDomain(f"point {z} is not finite")
    if r > 1.0 - BOUNDARY_MARGIN:
        raise PointOutsideDomain(f"|z| = {r:.4f} too close to the unit circle")
    if inner is not None and r < inner + BOUNDARY_MARGIN:
        raise PointOutsideDomain(f"|z| = {r:.4f} too close to inner circle r = {inner}")


def require_disc(kernel, use: str, got: str = "'annulus_laurent'") -> None:
    """Refuse a kernel on the annulus for ``use``, an operation of the disc only."""
    if kernel.inner_radius is not None:
        raise ConfigError(f"field 'kind' must be 'disc_diagonal' for {use}, got {got}")


def _sustained_growth(a: np.ndarray) -> tuple[float, float]:
    """Growth rate and geometric-envelope value at the end of the trailing
    GROWTH_WINDOW coefficients.

    Robust to single-coefficient dips and zeros (common in signed tilde
    series): the envelope max_i a_i growth^(end-i) replaces the literal last
    term, so a_end+k <= envelope * growth^k for the window-consistent rate.
    """
    tail = a[-GROWTH_WINDOW:]
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
    factorial; exps[p, k] = n_k - p as a float, replaced by 0 where F_p(n_k) = 0
    so that x = 0 never meets a negative power.
    """
    store = kernel._row_store
    if not store or store[0].shape[0] <= order:
        ns = kernel._live[0]
        fall = np.ones((order + 1, ns.size))
        for p in range(1, order + 1):
            fall[p] = fall[p - 1] * (ns - (p - 1))
        store[:] = fall, np.where(fall != 0.0, ns - np.arange(order + 1.0)[:, None], 0.0)
    return store[0][:order + 1], store[1][:order + 1]


def _moduli(points) -> np.ndarray:
    """|w| of each of an array of points by libm's hypot, bit for bit Python's
    abs of one point (numpy's abs of a complex array can differ from it in
    the last bit)."""
    w = np.asarray(points, dtype=complex)
    return np.hypot(w.real, w.imag)


def _unit(x):
    """x / |x| for a complex x or an array of them, the unit of 0 taken as 1.
    x is first scaled by 2^600, exactly for a point of the domain, so that a
    subnormal x loses no bits to |x| and its unit stays unimodular."""
    x = x * 2.0 ** 600 + (x == 0)
    if not isinstance(x, np.ndarray):
        return x / abs(x)
    r = _moduli(x)  # each part divided by it, as Python divides a complex by a float
    return x.real / r + 1j * (x.imag / r)


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


def _diagonal_rows(kernel: SeriesKernel, order: int) -> tuple:
    """Constant parts of the diagonal sums of ``order``, kept on the kernel:
    (e, G, scale, low, guarded).

    e = exps[order] is the exponent row of the one power row x = |w|^e.  Row
    i of G is F_p F_q for the i-th pair (p >= q, p then q ascending) on the
    columns where F_order(n) != 0 and 0 elsewhere, and scale[i] = 2 order - p - q.
    low lists (i, a_k F_p(n_k) F_q(n_k), 2 n_k - p - q) for the at most
    ``order`` live columns with 0 <= n_k < order, whose terms are summed
    exactly.  ``guarded`` is False only where no power, product or sum can
    overflow at an admissible point, so the sums need no floating-point
    guard: each power x_k^2 = |w|^(2 e_k) is monotone in |w|, so it is at
    most 1 at |w| = 1 - BOUNDARY_MARGIN and at most lowest^(2 min(e, 0)) at
    the inner edge lowest = inner + BOUNDARY_MARGIN, and every partial sum is
    at most max(|G| @ |a|) lowest^(2 min(e, 0)) < 1e300.
    """
    store = kernel._sum_store
    if order not in store:
        fall, exps = _rows(kernel, order)
        ns, a = kernel._live
        pairs = [(p, q) for p in range(order + 1) for q in range(p + 1)]
        p, q = map(list, zip(*pairs))
        lo, hi = np.searchsorted(ns, (0, order)).tolist()  # the columns 0 <= n_k < order
        lowest = 1.0 if kernel.inner_radius is None else kernel.inner_radius + BOUNDARY_MARGIN
        with np.errstate(over="ignore"):  # a high order overflows to inf, which guards
            G = fall[p] * fall[q]
            bound = ((np.abs(G) @ np.abs(a)).max(initial=0.0)
                     * np.power(lowest, 2.0 * exps[order].min(initial=0.0)))
        low = [(i, c * f, 2 * n - pi - qi)
               for i, (pi, qi, row) in enumerate(zip(p, q, G[:, lo:hi].tolist()))
               for n, c, f in zip(ns[lo:hi].tolist(), a[lo:hi].tolist(), row) if f]
        G[:, lo:hi] = 0.0
        store[order] = (exps[order], G, [2 * order - i - j for i, j in pairs], low,
                        not bound < 1e300)
    return store[order]


def _dual_rows(kernel: SeriesKernel, order: int) -> tuple:
    """Constants of the dual diagonal sums of ``order``, kept on the kernel:
    (inner, c, c0, beta, e, polys, modes, scale), scale[i] = p + q for the
    i-th pair (p >= q, packed as in :func:`_diagonal_sums`).

    The k-th term is gamma^k csc^e(u_k), u_k = a + i kappa k, c = pi / (2L),
    kappa = pi^2 / L, and D = -beta/2 - d/ds acts on it as -beta/2 - c d/du.
    In y = cot u, d/du P(y) = -(1 + y^2) P'(y) (P_0 = 1 + y^2 is csc^2 itself)
    and d/du (csc u Q(y)) = -csc u (y Q + (1 + y^2) Q') (Q_0 = 1), so
    F_p(D) F_q(D) of the k = 0 term is polys[i](cot a), descending, times
    csc a for e = 1.  The k != 0 terms are summed over k in closed form, mode
    by mode of csc^2 u = sum_(m >= 1) A_m e^(2imu), A_m = -4m, and
    csc u = sum_(m >= 0) A_m e^(i(2m+1)u), A_m = -2i (Im u > 0), on which D is
    z = -beta/2 - i c nu: with x = e^(-nu kappa) and g = gamma x / (1 - gamma x),
    modes holds (nu, [C_i]), C_i = 2 A_m g F_p(z) F_q(z), and the k and -k
    terms of mode nu add Re(C_i e^(i nu a)).  x is q~^m for e = 2 and
    sqrt(q~)^(2m+1) for e = 1, and every mode left out, |A_m| nu^(2 order)
    x / (1 - x) at most, is below 2^-60 of the k = 0 term csc^e(a) >= 1.
    """
    store = kernel._dual_store
    if order not in store:
        e, b = kernel.dual
        inner = kernel.inner_radius
        L = -log(inner)
        c, kappa, beta = pi / (2.0 * L), pi * pi / L, 2.0 + b
        odd = e % 2

        def step(poly, i):  # (D - i) on csc^odd(u) poly(cot u), ascending
            out = [-(beta / 2.0 + i) * x for x in poly] + [0.0]
            for j, x in enumerate(poly):  # + c (odd y poly + (1 + y^2) poly')
                out[j + 1] += c * (odd + j) * x
                if j:
                    out[j - 1] += c * j * x
            return out

        falling = [[1.0, 0.0, 1.0] if e == 2 else [1.0]]
        for i in range(order):
            falling.append(step(falling[-1], i))
        pairs = [(p, q) for p in range(order + 1) for q in range(p + 1)]
        polys = []
        for p, q in pairs:
            poly = falling[p]
            for i in range(q):
                poly = step(poly, i)
            polys.append(poly[::-1])
        angle = pi * (b % 2.0)
        gamma = complex(cos(angle), sin(angle))
        modes, m = [], e - 1  # m = 1, 2, ... for e = 2 and 0, 1, ... for e = 1
        while True:
            nu = 2 * m + 2 - e
            x = exp(-nu * kappa)
            weight = -4.0 * m if e == 2 else -2j
            if abs(weight) * nu ** (2 * order) * x / (1.0 - x) < 2.0 ** -60:
                break
            z, fall = complex(-beta / 2.0, -c * nu), [1.0]
            for i in range(order):
                fall.append(fall[-1] * (z - i))
            g = 2.0 * weight * gamma * x / (1.0 - gamma * x)
            modes.append((nu, [g * fall[p] * fall[q] for p, q in pairs]))
            m += 1
        store[order] = (inner, c, pi / (4.0 * L * L) if e == 2 else 1.0 / (4.0 * L),
                        beta, e, polys, modes, [p + q for p, q in pairs])
    return store[order]


def _dual_sums(kernel: SeriesKernel, rho: float, order: int) -> list:
    """The sums of :func:`_diagonal_sums` at rho = |w| from the dual form of
    the module docstring, K(w, w) = c0 rho^-beta F(s), F = sum_k gamma^k csc^e u_k.

    A factor n of a term a_n rho^(2n) is D = -beta/2 - d/ds applied to F, so
    S_pq = c0 rho^(-beta - p - q) [F_p(D) F_q(D) F](s), F_p the falling
    factorial (:func:`_dual_rows`).  Re u_0 lies in (0, pi); on the inner half
    (rho^2 < r) it is taken as a = u_0 - pi = -(pi / L) ln(rho / r), from
    log1p, which keeps its digits near the inner circle, with
    csc^e(u) = (-1)^e csc^e(u - pi).  In Python floats: an overflow gives inf
    or nan, never a warning, for the caller to refuse.
    """
    inner, c, c0, beta, e, polys, modes, scale = _dual_rows(kernel, order)
    if rho * rho < inner:
        a, sign = -2.0 * c * log1p((rho - inner) / inner), (-1.0) ** e
    else:
        a, sign = -2.0 * c * log(rho), 1.0
    cos_a, sin_a = cos(a), sin(a)
    y, lead, sums = cos_a / sin_a, (1.0 if e == 2 else 1.0 / sin_a), []
    for poly in polys:
        v = 0.0
        for coef in poly:
            v = v * y + coef
        sums.append(v * lead)
    if modes:
        unit = complex(cos_a, sin_a)
        step = unit * unit
        power = step if e == 2 else unit
        for _, row in modes:
            for i, C in enumerate(row):
                sums[i] += (C * power).real
            power *= step
    try:
        factors = [sign * c0 * rho ** -beta]
    except OverflowError:
        factors = [inf]
    for _ in range(2 * order):  # c0 rho^(-beta - k)
        factors.append(factors[-1] / rho)
    return [factors[k] * v for k, v in zip(scale, sums)]


def _dual_grid_sums(kernel: SeriesKernel, rho: np.ndarray, order: int) -> np.ndarray:
    """:func:`_dual_sums` at each of an array of radii, as rows of an array:
    the polynomials of the k = 0 term as one product of the Vandermonde rows
    of cot a, the modes as one of the rows e^(i nu a), in blocks of radii that
    hold at most _GRID_BLOCK modes."""
    inner, c, c0, beta, e, polys, modes, scale = _dual_rows(kernel, order)
    P = np.zeros((len(polys[-1]), len(polys)))  # ascending in cot a, a column per pair
    for i, poly in enumerate(polys):
        P[:len(poly), i] = poly[::-1]
    nus = np.array([nu for nu, _ in modes], dtype=float)
    C = np.array([row for _, row in modes], dtype=complex).reshape(nus.size, len(polys))
    sums = np.empty((rho.size, len(polys)))
    step = max(1, _GRID_BLOCK // max(nus.size, 1))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, rho.size, step):
            r = rho[start:start + step]
            half = r * r < inner
            a = -2.0 * c * np.where(half, np.log1p((r - inner) / inner), np.log(r))
            block = np.vander(1.0 / np.tan(a), P.shape[0], increasing=True) @ P
            if e == 1:
                block /= np.sin(a)[:, None]
            if nus.size:
                block += (np.exp(1j * np.multiply.outer(a, nus)) @ C).real
            f = np.where(half, (-1.0) ** e * c0, c0) * r ** -beta
            sums[start:start + step] = block * (
                f[:, None] / np.vander(r, 2 * order + 1, increasing=True)[:, scale])
    return sums


def _diagonal_sums(kernel: SeriesKernel, w: complex, order: int) -> list:
    """The real sums S_pq = sum_k a_k F_p(n_k) F_q(n_k) |w|^(2 n_k - p - q) for
    q <= p <= order, the moment block at z = w without its phase, as Python
    floats packed row by row: S_pq is entry p (p + 1) / 2 + q, so order 1
    gives [S00, S10, S11].

    One power row x = |w|^e serves every pair (:func:`_diagonal_rows`).
    a multiplies x before x multiplies again, and stays out of the cached
    rows G = F_p F_q: on a disc window every partial sum of G_pq @ (a x) x is
    then at most the largest true sum S_(order, order), where cached rows
    a F_p F_q would overflow for coefficients near the double limit.  A kernel
    with a dual form takes its sums from :func:`_dual_sums` instead.
    """
    r = float(abs(w))  # Python floats below: an overflow gives inf or nan, never a warning
    if kernel.dual is not None:
        sums = _dual_sums(kernel, r, order)
    else:
        e, G, scale, low, guarded = _diagonal_rows(kernel, order)
        with np.errstate(over="ignore", invalid="ignore") if guarded else _UNGUARDED:
            x = r ** e
            sums = G.dot((kernel._live[1] * x) * x).tolist()  # item access on numpy costs more
        sums = [r ** k * s for k, s in zip(scale, sums)]
        for i, c, k in low:
            sums[i] += c * r ** k
    if not all(map(isfinite, sums)):  # refuse the first sum that is not finite
        pairs = [(p, q) for p in range(order + 1) for q in range(p + 1)]
        p, q = next(pq for pq, s in zip(pairs, sums) if not isfinite(s))
        w = complex(w)
        at = (f"K(w, w) is not finite at w = {w}" if order
              else f"K(z, w) is not finite at z = {w}, w = {w}")
        raise NonFiniteValue(f"moment sum d^{p} d^{q}bar {at}")
    return sums


def _grid_sums(kernel: SeriesKernel, radii: np.ndarray, order: int) -> np.ndarray:
    """The sums of :func:`_diagonal_sums` at each of an array of radii, already
    checked against the domain, as rows of an array in the same packing.

    The radii go in blocks of at most _GRID_BLOCK doubles of power rows
    X[i, k] = r_i^(e_k), with the constants of :func:`_diagonal_rows`: the
    sums of a block are ((a X) X) @ G^T, a still between the two powers, then
    scaled by r^(2 order - p - q), with the exact low terms added, or, for a
    kernel with a dual form, :func:`_dual_grid_sums`.  A sum that is not
    finite is returned as it is, for the caller to refuse.
    """
    if kernel.dual is not None:
        return _dual_grid_sums(kernel, np.asarray(radii, dtype=float), order)
    e, G, scale, low, guarded = _diagonal_rows(kernel, order)
    a, r, scale = kernel._live[1], np.asarray(radii, dtype=float), np.array(scale, dtype=float)
    sums = np.empty((r.size, scale.size))
    step = max(1, _GRID_BLOCK // e.size)
    with np.errstate(over="ignore", invalid="ignore") if guarded else _UNGUARDED:
        for start in range(0, r.size, step):
            block = r[start:start + step, None]
            x = block ** e
            sums[start:start + step] = (((a * x) * x) @ G.T) * block ** scale
        for i, c, k in low:
            sums[:, i] += c * r ** k
    return sums


def _moment_block(kernel: SeriesKernel, z: complex, w: complex, order: int) -> np.ndarray:
    """B[p, q] = d^p_z d^q_wbar K(z, w) for p, q <= order from the real rows
    M_x[p, k] = F_p(n_k) |x|^exps[p, k] and the phase row of (z, w), as in the
    module docstring, with a_k between the powers of |z| and |w|.  At z == w
    this is the diagonal sums times (conj(w) / |w|)^(p - q).
    """
    z, w = complex(z), complex(w)
    if z == w:
        sums, unit = _diagonal_sums(kernel, w, order), _unit(w).conjugate()
        if order == 1:  # the rank-1 jet from its three sums, zero signs as below
            s00, s10, s11 = sums
            j10 = (1.0 + 0j) * unit * s10
            return np.array([[complex(s00, -0.0), j10.conjugate()], [j10, complex(s11, -0.0)]])
        phase = [1.0 + 0j]
        for _ in range(order):
            phase.append(phase[-1] * unit)
        return np.array([[phase[p - q] * sums[p * (p + 1) // 2 + q] if q < p
                          else (phase[q - p] * sums[q * (q + 1) // 2 + p]).conjugate()
                          for q in range(order + 1)] for p in range(order + 1)])
    fall, exps = _rows(kernel, order)
    ez, ew = _unit(z), _unit(w)
    with np.errstate(over="ignore", invalid="ignore"):
        a = kernel._live[1] * _phase_rows(kernel, ez * ew.conjugate())
        sums = (((fall * abs(z) ** exps) * a) @ (fall * abs(w) ** exps).T).tolist()
    pz, pw = [1.0 + 0j], [1.0 + 0j]
    for _ in range(order):
        pz.append(pz[-1] * ez.conjugate())
        pw.append(pw[-1] * ew)
    B = [[0j] * (order + 1) for _ in range(order + 1)]
    for p in range(order + 1):
        for q in range(order + 1):
            if not (isfinite(sums[p][q].real) and isfinite(sums[p][q].imag)):
                raise NonFiniteValue(f"moment sum d^{p} d^{q}bar K(z, w) is not finite "
                                     f"at z = {z}, w = {w}")
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
    product of the module docstring.  Every point is checked against the
    domain, and the truncation tail bound against the largest |K| of the
    matrix; the bound is convex in rho = |z_i| |w_j|, so it is taken at the
    smallest and largest rho.
    """
    z, w = (np.atleast_1d(np.asarray(x, dtype=complex)) for x in (z, w))
    for xi in np.concatenate((z, w)):
        check_point(kernel, xi)
    rz, rw = _moduli(z), _moduli(w)
    exps = _rows(kernel, 0)[1]
    with np.errstate(over="ignore", invalid="ignore"):
        Ez = rz[:, None] ** exps * _phase_rows(kernel, _unit(z))
        Ew = rw[:, None] ** exps * _phase_rows(kernel, _unit(w))
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
    from the window is refused where its truncation tail bound exceeds
    TAIL_RTOL * |K(z, w)|.  On the diagonal a series value is its order-0 sum,
    with no block, and that of a kernel with a dual form has no tail."""
    if isinstance(kernel, SeriesKernel) and z == w:
        check_point(kernel, w)
        value = complex(_diagonal_sums(kernel, w, 0)[0], -0.0)  # the block's conj(S00 + 0j)
    else:
        value = complex(_block(kernel, z, w, 0)[0, 0])
    if isinstance(kernel, SeriesKernel) and not (z == w and kernel.dual):
        _refuse_tail(_series_tail_bound(kernel, abs(z) * abs(w)), abs(value), z, w)
    return value


_GRID_TYPES = (np.ndarray, list, tuple)


def _is_grid(w) -> bool:
    """Whether w is an array of points (a numpy array, list or tuple), not one point."""
    return isinstance(w, _GRID_TYPES)


def diagonal_values(kernel, w):
    """K(w, w).real at w, a float, or at each of an array of points w, an array
    of its shape: the one place where kernel values on a grid are taken, each
    through :func:`eval_kernel` (and its tail test, on a window)."""
    if not _is_grid(w):
        return eval_kernel(kernel, w, w).real
    w = np.asarray(w, dtype=complex)
    return np.reshape([eval_kernel(kernel, x, x).real for x in w.ravel().tolist()], w.shape)


def deriv2(kernel, z: complex, w: complex, p: int, q: int) -> complex:
    """Two-point mixed derivative d^p_z d^q_wbar K(z, w)."""
    if min(p, q) < 0:
        raise UnsupportedJetOrder(f"derivative orders must be >= 0, got p = {p}, q = {q}")
    return complex(_block(kernel, z, w, max(p, q))[p, q])


def mixed_deriv(kernel, w: complex, p: int, q: int) -> complex:
    """Diagonal mixed derivative d^p d^qbar K(w, w)."""
    return deriv2(kernel, w, w, p, q)


def jet(kernel, w: complex, order: int) -> np.ndarray:
    """Diagonal mixed derivatives J[p, q] = d^p d^qbar K(w, w), 0 <= p, q <= order."""
    if order < 1:
        raise UnsupportedJetOrder(f"jet order must be >= 1, got {order}")
    return _block(kernel, w, w, order)


def tilde_kernel(kernel: SeriesKernel) -> SeriesKernel:
    """Coefficients of (1 - z wbar) K(z, w): b_0 = a_0, b_n = a_n - a_{n-1}.

    The result may have non-positive coefficients; it is returned as a
    signed series, and ``positivity.is_contraction`` judges its signs.
    It is built once per kernel and kept on it, with its own constant rows.
    """
    require_disc(kernel, "the tilde transform")
    return kernel._tilde


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
        B = _block(kernel, x, y, order)
        with np.errstate(over="ignore", invalid="ignore"):
            L = scale * (az @ B @ aw.conj().T)
        if not np.isfinite(L).all():
            raise NonFiniteValue(f"closed-form block of order {order} is not finite "
                                 f"at z = {complex(z)}, w = {complex(w)}")
        return L

    return ClosedFormKernel(block=block, inner_radius=kernel.inner_radius)


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
        if abs(value) < VANISHING_TOL:
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
    if not abs(a) < 1.0:  # a NaN center is refused too
        raise CenterOutsideDisc(f"|a| = {abs(a):.4f} is not below 1")
    require_disc(kernel, "the Mobius pullback", "a kernel on the annulus")
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
