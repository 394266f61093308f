"""Concrete computations on the annulus A_r = {r < |z| < 1}: Szego and
weighted Bergman kernels, the extremal problem, the strict curvature
inequality, periods and characters of log-harmonic radial weights.

The Szego kernel and the weighted Bergman kernel of a power law rho^b are
Laurent windows n = -N..N that carry the closed form of their diagonal
(``kernels.SeriesKernel.dual``).  With L = ln(1/r), s = -2 ln|w| and
u_k = (pi / 2L)(s + 2 pi i k), the Poisson-summed dual of the series is
K_b(w, w) = |w|^-(2 + b) pi / (4 L^2) sum_k e^(i pi b k) csc^2 u_k and
S(w, w) = |w|^-1 / (4L) sum_k (-1)^k csc u_k, whose terms fall off like
q~^|k|, q~ = exp(-2 pi^2 / L) (sqrt(q~)^|k| for S); the k != 0 terms are
summed in closed form, mode by mode, and no mode above 2^-60 of the k = 0
term is left out.  K(w, w), its jets and every curvature, slack,
extremal value and character grid come from it, exact to rounding up to
the edges of the domain and independent of N.  Two-point values keep the
window, and only they get its truncation tail test.  A profile weight
keeps the window everywhere."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import kernels as kc
from .curvature import ci_slack, curvature_scalar, order1_sums, rank1_curvature
from .errors import ConfigError, DegenerateJet, NonFiniteValue, NotLogHarmonic, QuadratureFailure

QUAD_RTOL = 1e-12  # error estimate a profile norm integral must meet
QUAD_CAP_RTOL = 1e-9  # the estimate still accepted once MAX_PANELS is reached
GAUSS_POINTS = 20  # nodes per Gauss-Legendre panel of the profile rule
MAX_PANELS = 500
MIN_N = 50
CHARACTER_TOL = 1e-10  # characters match when every |gamma_1 - gamma_2| is at most this
EQUIVALENCE_TOL = 1e-8  # curvature grids agree when their max gap is at most this


@dataclass(frozen=True)
class AnnulusSpec:
    r: float
    N: int = kc.DEFAULT_N_MAX

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise ConfigError(f"field 'r' must lie in (0, 1), got {self.r}")
        if (isinstance(self.N, bool) or not isinstance(self.N, (int, np.integer))
                or self.N < MIN_N):
            raise ConfigError(f"field 'N' must be an integer of at least {MIN_N}, got {self.N!r}")


@dataclass(frozen=True)
class RadialWeight:
    """Radial weight h(rho) on [r, 1]: its tabulated ``profile``, else rho^b."""

    b: float = 0.0
    profile: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.profile is not None and self.b != 0.0:
            raise ConfigError(f"field 'b' must be 0 for a profile weight, got {self.b}")

    @classmethod
    def power_law(cls, b: float) -> "RadialWeight":
        return cls(b=b)

    @classmethod
    def from_profile(cls, h: Callable[[float], float]) -> "RadialWeight":
        return cls(profile=h)

    def __call__(self, rho: float) -> float:
        if self.profile is None:
            return float(rho) ** self.b
        return float(self.profile(rho))


@dataclass(frozen=True)
class Character:
    """Boundary data gamma = exp(i period) of the one inner component."""

    period: float

    @property
    def gamma(self) -> complex:
        return cmath.exp(1j * self.period)

    def matches(self, other: "Character") -> bool:
        return abs(self.gamma - other.gamma) <= CHARACTER_TOL


def _trimmed_kernel(spec: AnnulusSpec, coeffs: np.ndarray, dual=None) -> kc.SeriesKernel:
    """The kernel of the coefficients of n = -N..N on the annulus of ``spec``,
    without their contiguous underflowed margin (thin annuli kill negative n),
    with the closed form ``dual`` of its diagonal, if any."""
    good = np.isfinite(coeffs) & (coeffs > 0.0)
    if not good.any():
        raise QuadratureFailure("no representable Laurent coefficients")
    lo, hi = int(np.argmax(good)), int(len(good) - np.argmax(good[::-1]))
    return kc.SeriesKernel(lo - spec.N, coeffs[lo:hi], spec.r, dual=dual)


def szego_kernel(spec: AnnulusSpec) -> kc.SeriesKernel:
    """Hardy-space kernel of the annulus: a_n = 1 / (2 pi (1 + r^(2n+1))), with
    the dual form of its diagonal (e = 1, b = -1)."""
    ns = np.arange(-spec.N, spec.N + 1)
    with np.errstate(over="ignore"):
        coeffs = 1.0 / (2.0 * np.pi * (1.0 + spec.r ** (2.0 * ns + 1.0)))
    return _trimmed_kernel(spec, coeffs, dual=(1, -1.0))


@lru_cache(maxsize=8)
def _szego(spec: AnnulusSpec) -> kc.SeriesKernel:
    """The Szego kernel of a spec, built once and shared (its arrays are read-only)."""
    return szego_kernel(spec)


def _norms_sq(spec: AnnulusSpec, weight: RadialWeight, ns) -> np.ndarray:
    """|z^n|^2 in the weighted Bergman space for each n in ns:
    2 pi int_r^1 rho^(2n+1) h(rho) drho, closed form for power laws, one
    shared adaptive Gauss rule for a profile."""
    if weight.profile is None:
        e = 2 * np.asarray(ns) + 1 + weight.b
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # libm's pow, as in Python's r ** x; numpy's SIMD power rounds differently
            power = np.float_power(spec.r, e + 1.0)
            integrals = np.where(np.abs(e + 1.0) < 1e-14, np.log(1.0 / spec.r),
                                 (1.0 - power) / (e + 1.0))
            # where r^(e+1) overflows, the norm 2 pi r^(e+1) / |e+1| is inf only
            # past the double range, as for a profile
            return np.where(np.isinf(power),
                            np.exp((e + 1.0) * np.log(spec.r) + np.log(-2.0 * np.pi / (e + 1.0))),
                            2.0 * np.pi * integrals)
    return _profile_norms_sq(spec, weight, np.asarray(ns))


def _profile_norms_sq(spec: AnnulusSpec, weight: RadialWeight, ns: np.ndarray) -> np.ndarray:
    """2 pi I_n with I_n = int_(log r)^0 e^((2n+2)t) h(e^t) dt, for all n at once.

    Every n shares one set of GAUSS_POINTS-point Gauss-Legendre panels, so h
    is evaluated once per node.  With s_n = max(0, (2n+2) log r) the scaled
    sums Sigma_n = I_n e^(-s_n) have exponents <= 0 only, and the norm is
    exp(s_n + log(2 pi Sigma_n)): inf past the double range, trimmed like
    the power-law branch.  A panel's error estimate for each n is
    |whole - (left + right)| of its Gauss sums over itself and its halves.
    While the summed estimate of some n exceeds QUAD_RTOL I_n, every panel
    that carries more than its count share of that budget is bisected.
    Past MAX_PANELS the estimate need only be within QUAD_CAP_RTOL I_n.
    """
    from numpy.polynomial.legendre import leggauss

    nodes, node_weights = leggauss(GAUSS_POINTS)
    c = 2.0 * ns + 2.0
    shift = np.maximum(0.0, c * math.log(spec.r))
    # panels per block of exponentials, so a block holds about 2^18 doubles for any window
    chunk = max(1, 2 ** 18 // (c.size * GAUSS_POINTS))

    def gauss_sums(a, b):
        """Sigma_n over each panel [a_k, b_k], shape (len(ns), len(a))."""
        half = 0.5 * (b - a)[:, None]
        t = 0.5 * (a + b)[:, None] + half * nodes
        h = np.array([weight(rho) for rho in np.exp(t).ravel().tolist()]).reshape(t.shape)
        g = half * node_weights * h
        sums = np.empty((c.size, a.size))
        for k in range(0, a.size, chunk):
            e = np.exp(np.multiply.outer(c, t[k:k + chunk]) - shift[:, None, None])
            sums[:, k:k + chunk] = np.einsum("npj,pj->np", e, g[k:k + chunk])
        return sums

    def halves(a, b):
        m = 0.5 * (a + b)
        sums = gauss_sums(np.concatenate([a, m]), np.concatenate([m, b]))
        return sums[:, :a.size], sums[:, a.size:]

    with np.errstate(all="ignore"):  # a NaN or negative profile is refused below
        a, b = np.array([math.log(spec.r)]), np.array([0.0])
        whole = gauss_sums(a, b)
        left, right = halves(a, b)
        while True:
            panel_err = np.abs(whole - (left + right))
            sums, err = (left + right).sum(axis=1), panel_err.sum(axis=1)
            failing = err > QUAD_RTOL * np.abs(sums)
            if not failing.any() or a.size >= MAX_PANELS:
                break
            share = QUAD_RTOL * np.abs(sums[failing]) / a.size
            split = (panel_err[failing] > share[:, None]).any(axis=0)
            m = 0.5 * (a + b)[split]
            a = np.concatenate([a[~split], a[split], m])
            b = np.concatenate([b[~split], m, b[split]])
            whole = np.concatenate([whole[:, ~split], left[:, split], right[:, split]], axis=1)
            new_left, new_right = halves(a[-2 * m.size:], b[-2 * m.size:])
            left = np.concatenate([left[:, ~split], new_left], axis=1)
            right = np.concatenate([right[:, ~split], new_right], axis=1)
        bad = ~((sums > 0.0) & (err <= QUAD_CAP_RTOL * sums))
        if bad.any():
            i = int(np.argmax(bad))
            raise QuadratureFailure(f"norm integral for n = {int(ns[i])} unreliable "
                                    f"(scaled sum {sums[i]:.3e}, error estimate {err[i]:.2e})")
        return np.exp(shift + np.log(2.0 * np.pi * sums))


def monomial_norm_sq(spec: AnnulusSpec, weight: RadialWeight, n: int) -> float:
    """|z^n|^2 in the weighted Bergman space: 2 pi int_r^1 rho^(2n+1) h(rho) drho."""
    return float(_norms_sq(spec, weight, [n])[0])


def weighted_bergman_kernel(spec: AnnulusSpec, weight: RadialWeight) -> kc.SeriesKernel:
    """Laurent kernel with a_n = 1 / |z^n|^2 for the radial weight, with the
    dual form of its diagonal (e = 2, b) for a power law rho^b."""
    ns = np.arange(-spec.N, spec.N + 1)
    with np.errstate(divide="ignore"):  # zero norms give inf, trimmed below
        coeffs = 1.0 / _norms_sq(spec, weight, ns)
    return _trimmed_kernel(spec, coeffs, (2, float(weight.b)) if weight.profile is None else None)


# ---------------------------------------------------------------------------
# extremal problem

def extremal_problem_value(kernel, w: complex) -> float:
    """Closed form inf{|f|^2 : f(w) = 0, f'(w) = 1} = [K(w,w) dd-bar log K]^-1.

    K(w, w) and the curvature are read off one order-1 jet, the diagonal sums
    of a series kernel, whose K(w, w) from a window gets the truncation tail
    test of :func:`kernels.eval_kernel`; a dual diagonal has no tail.  A
    value that is not finite, where
    K(w, w) dd-bar log K underflows, is refused with NonFiniteValue."""
    k_ww, j01, j11 = order1_sums(kernel, w)
    if isinstance(kernel, kc.SeriesKernel) and kernel.dual is None:
        kc._refuse_tail(kc._series_tail_bound(kernel, abs(w) * abs(w)), abs(k_ww), w, w)
    if k_ww <= 0.0:
        raise DegenerateJet(f"K(w, w) = {k_ww} at w = {w}")
    dd = -rank1_curvature(k_ww, j01, j11, w)
    if dd <= 0.0:
        raise DegenerateJet(f"dd-bar log K = {dd} at w = {w}")
    value = 1.0 / (k_ww * dd)
    if not math.isfinite(value):
        raise NonFiniteValue(f"extremal problem value [K(w, w) dd-bar log K]^-1 = {value} "
                             f"at w = {w} is not finite")
    return value


def extremal_problem_ls(kernel: kc.SeriesKernel, w: complex) -> float:
    """Constrained least-squares oracle of :func:`extremal_problem_value`.

    Minimizes sum |c_n|^2 / a_n subject to f(w) = 0 and f'(w) = 1: the normal
    matrix A diag(a) A^H of the constraint rows A = (w^n, n w^(n-1)) is the
    order-1 jet M of K at w, and the value is b^H M^-1 b, b = (0, 1).  For a
    kernel with a dual form the jet is exact, so this checks one 2 x 2 solve
    against the closed form, not a truncated basis.
    """
    M = kc.jet(kernel, w, 1)
    b = np.array([0.0, 1.0], dtype=complex)
    return float(np.vdot(b, np.linalg.solve(M, b)).real)


# ---------------------------------------------------------------------------
# strict curvature inequality

def strict_ci_check(spec: AnnulusSpec, weight: RadialWeight, w,
                    kernel: Optional[kc.SeriesKernel] = None):
    """Slack dd-bar log K - 4 pi^2 S(w, w)^2 of the weighted Bergman kernel, or of
    ``kernel`` prebuilt for it, at w or at each of an array of points w: the slack
    of :func:`curvature.ci_slack` with the values of the Szego kernel of the spec,
    built once per spec.  A kernel on another annulus is refused with ConfigError."""
    if kernel is None:
        kernel = weighted_bergman_kernel(spec, weight)
    elif kernel.inner_radius != spec.r:
        raise ConfigError(f"argument 'kernel' must be on the annulus r = {spec.r} of the "
                          f"spec, got inner radius {kernel.inner_radius}")
    return ci_slack(kernel, w, kc.diagonal_values(_szego(spec), w))[2]


# ---------------------------------------------------------------------------
# periods and characters

def character_of_weight(spec: AnnulusSpec, weight: RadialWeight) -> Character:
    """Period c_1 = - flux of (1/2) log h through the inner boundary, and
    gamma_1 = exp(i c_1).

    Only power-law weights are log-harmonic radial weights.  For h = rho^b
    the outward normal on the inner circle points toward the origin, so the
    flux of (1/2) b log rho is -2 pi r b / (2 r) and c_1 = pi b, in closed
    form; gamma(b = 2) = 1 fixes the clockwise orientation of the inner
    boundary.  The opposite-sign variant is -c_1.
    """
    if weight.profile is not None:
        raise NotLogHarmonic("log h must be harmonic; only power laws qualify")
    c = math.pi * float(weight.b)
    if not math.isfinite(c):
        raise NonFiniteValue(f"period of rho^{weight.b} is not finite on the annulus r = {spec.r}")
    return Character(period=c)


@dataclass(frozen=True)
class EquivalenceVerdict:
    predicted: bool
    max_curvature_diff: float

    @property
    def measured(self) -> bool:
        return self.max_curvature_diff <= EQUIVALENCE_TOL

    @property
    def agree(self) -> bool:
        return self.predicted == self.measured


def _band(spec: AnnulusSpec, grid_points: int) -> np.ndarray:
    """The radii of a curvature grid: ``grid_points`` (an int >= 1) evenly spaced
    over the safely-converged band [r + 0.05, 0.9], which r > 0.85 leaves empty;
    either is refused with ConfigError naming its field."""
    if (isinstance(grid_points, bool) or not isinstance(grid_points, (int, np.integer))
            or grid_points < 1):
        raise ConfigError(f"field 'grid_points' must be an integer >= 1, got {grid_points!r}")
    lo, hi = spec.r + 0.05, min(0.9, 1.0 - kc.BOUNDARY_MARGIN - 0.05)
    if lo > hi:
        raise ConfigError(f"field 'r' = {spec.r} leaves no curvature band: "
                          f"r + 0.05 exceeds {hi}")
    return np.linspace(lo, hi, grid_points)


def character_equivalence(spec: AnnulusSpec, b1: float, b2: float,
                          grid_points: int = 20) -> EquivalenceVerdict:
    """Unitary equivalence of the two weighted Bergman multiplications:
    predicted by equal characters, measured by equal curvature grids."""
    radii = _band(spec, grid_points)  # refused before any kernel is built
    w1, w2 = RadialWeight.power_law(b1), RadialWeight.power_law(b2)
    predicted = character_of_weight(spec, w1).matches(character_of_weight(spec, w2))
    g1, g2 = (curvature_scalar(weighted_bergman_kernel(spec, w), radii) for w in (w1, w2))
    return EquivalenceVerdict(predicted=predicted, max_curvature_diff=float(np.abs(g1 - g2).max()))
