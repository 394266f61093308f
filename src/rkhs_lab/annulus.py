"""Concrete computations on the annulus A_r = {r < |z| < 1}: Szego and
weighted Bergman kernels, the extremal problem, the strict curvature
inequality, periods and characters of log-harmonic radial weights."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import kernels as kc
from .curvature import ci_slack, curvature_scalar
from .errors import ConfigError, DegenerateJet, NonFiniteValue, NotLogHarmonic, QuadratureFailure

QUAD_RTOL = 1e-12
MIN_N = 50


@dataclass(frozen=True)
class AnnulusSpec:
    r: float
    N: int = kc.DEFAULT_N_MAX

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise ConfigError(f"field 'r' must lie in (0, 1), got {self.r}")
        if self.N < MIN_N:
            raise ValueError(f"truncation N must be at least {MIN_N}")


@dataclass(frozen=True)
class RadialWeight:
    """Radial weight h(rho) on [r, 1]: a power law rho^b or a tabulated profile."""

    kind: str  # "power_law" | "profile"
    b: float = 0.0
    profile: Optional[Callable[[float], float]] = None

    @classmethod
    def power_law(cls, b: float) -> "RadialWeight":
        return cls(kind="power_law", b=b)

    @classmethod
    def from_profile(cls, h: Callable[[float], float]) -> "RadialWeight":
        return cls(kind="profile", profile=h)

    def __call__(self, rho: float) -> float:
        if self.kind == "power_law":
            return float(rho) ** self.b
        return float(self.profile(rho))


@dataclass(frozen=True)
class Character:
    """Unimodular boundary data gamma_j = exp(i c_j); one inner component here."""

    gammas: list
    periods: list
    periods_alternate: list  # opposite orientation convention, reported not chosen

    def __post_init__(self):
        if any(abs(abs(g) - 1.0) > 1e-12 for g in self.gammas):
            raise ValueError("character entries must be unimodular")

    def matches(self, other: "Character", tol: float = 1e-10) -> bool:
        return all(abs(g1 - g2) <= tol for g1, g2 in zip(self.gammas, other.gammas))


def _trim_window(ns: np.ndarray, coeffs: np.ndarray):
    """Drop the contiguous underflowed margin (thin annuli kill negative n)."""
    good = np.isfinite(coeffs) & (coeffs > 0.0)
    if not good.any():
        raise QuadratureFailure("no representable Laurent coefficients")
    lo, hi = int(np.argmax(good)), int(len(good) - np.argmax(good[::-1]))
    return ns[lo:hi], coeffs[lo:hi]


def szego_kernel(spec: AnnulusSpec) -> kc.SeriesKernel:
    """Hardy-space kernel of the annulus: a_n = 1 / (2 pi (1 + r^(2n+1)))."""
    ns = np.arange(-spec.N, spec.N + 1)
    with np.errstate(over="ignore"):
        coeffs = 1.0 / (2.0 * np.pi * (1.0 + spec.r ** (2.0 * ns + 1.0)))
    ns, coeffs = _trim_window(ns, coeffs)
    return kc.SeriesKernel.annulus(ns, coeffs, spec.r)


@lru_cache(maxsize=8)
def _szego(spec: AnnulusSpec) -> kc.SeriesKernel:
    """The Szego kernel of a spec, built once and shared (its arrays are read-only)."""
    return szego_kernel(spec)


def szego_annulus(spec: AnnulusSpec, z: complex, w: complex) -> complex:
    return kc.eval_kernel(_szego(spec), z, w)


def _norms_sq(spec: AnnulusSpec, weight: RadialWeight, ns) -> np.ndarray:
    """|z^n|^2 in the weighted Bergman space for each n in ns:
    2 pi int_r^1 rho^(2n+1) h(rho) drho, closed form for power laws, quad otherwise."""
    if weight.kind == "power_law":
        e = 2 * np.asarray(ns) + 1 + weight.b
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # r^(e+1) overflows a double; for |b| near the double limit the product is +-inf
            overflows = (e + 1.0) * np.log(spec.r) > 700.0
            # libm's pow, as in Python's r ** x; numpy's SIMD power rounds differently
            power = np.float_power(spec.r, np.where(overflows, 0.0, e + 1.0))
            integrals = np.where(overflows, np.inf, (1.0 - power) / (e + 1.0))
        integrals = np.where(np.abs(e + 1.0) < 1e-14, np.log(1.0 / spec.r), integrals)
        return 2.0 * np.pi * integrals
    from scipy import integrate

    integrals = []
    for n in ns:
        val, err = integrate.quad(lambda rho: rho ** (2 * n + 1) * weight(rho),
                                  spec.r, 1.0, epsrel=QUAD_RTOL, epsabs=0.0, limit=200)
        if not np.isfinite(val) or val <= 0.0 or err > 1e-9 * abs(val):
            raise QuadratureFailure(f"norm integral for n = {n} unreliable (err {err:.2e})")
        integrals.append(val)
    return 2.0 * np.pi * np.array(integrals, dtype=float)


def monomial_norm_sq(spec: AnnulusSpec, weight: RadialWeight, n: int) -> float:
    """|z^n|^2 in the weighted Bergman space: 2 pi int_r^1 rho^(2n+1) h(rho) drho."""
    return float(_norms_sq(spec, weight, [n])[0])


def weighted_bergman_kernel(spec: AnnulusSpec, weight: RadialWeight) -> kc.SeriesKernel:
    """Laurent kernel with a_n = 1 / |z^n|^2 for the radial weight."""
    ns = np.arange(-spec.N, spec.N + 1)
    with np.errstate(divide="ignore"):  # zero norms give inf, trimmed below
        coeffs = 1.0 / _norms_sq(spec, weight, ns.tolist())
    ns, coeffs = _trim_window(ns, coeffs)
    return kc.SeriesKernel.annulus(ns, coeffs, spec.r)


# ---------------------------------------------------------------------------
# extremal problem

def extremal_problem_value(kernel: kc.SeriesKernel, w: complex) -> float:
    """Closed form inf{|f|^2 : f(w) = 0, f'(w) = 1} = [K(w,w) dd-bar log K]^-1."""
    k_ww = kc.eval_kernel(kernel, w, w).real
    if k_ww <= 0.0:
        raise DegenerateJet(f"K(w, w) = {k_ww} at w = {w}")
    dd = -curvature_scalar(kernel, w)
    if dd <= 0.0:
        raise DegenerateJet(f"dd-bar log K = {dd} at w = {w}")
    return 1.0 / (k_ww * dd)


def extremal_problem_ls(kernel: kc.SeriesKernel, w: complex) -> float:
    """Constrained least-squares oracle over the truncated monomial basis.

    Minimizes sum |c_n|^2 / a_n subject to f(w) = 0 and f'(w) = 1.  The
    normal matrix A diag(a) A^H of the constraint rows A = (w^n, n w^(n-1))
    is the order-1 jet of K at w.
    """
    M = kc.jet(kernel, w, 1)
    b = np.array([0.0, 1.0], dtype=complex)
    return float(np.vdot(b, np.linalg.solve(M, b)).real)


# ---------------------------------------------------------------------------
# strict curvature inequality

def strict_ci_check(spec: AnnulusSpec, weight: RadialWeight, w: complex,
                    kernel: Optional[kc.SeriesKernel] = None) -> float:
    """Slack dd-bar log K - 4 pi^2 S(w, w)^2 of the weighted Bergman kernel."""
    if kernel is None:
        kernel = weighted_bergman_kernel(spec, weight)
    return float(ci_slack(kernel, w, szego_annulus(spec, w, w).real)[2])


def hardy_ci_slack(spec: AnnulusSpec, w: complex) -> float:
    """Slack of the Szego (Hardy) kernel itself; strictly positive on the annulus."""
    return float(ci_slack(_szego(spec), w, szego_annulus(spec, w, w).real)[2])


# ---------------------------------------------------------------------------
# periods and characters

def character_of_weight(spec: AnnulusSpec, weight: RadialWeight) -> Character:
    """Period c_1 = - flux of (1/2) log h through the inner boundary, and
    gamma_1 = exp(i c_1).

    Only power-law weights are log-harmonic radial weights.  For h = rho^b
    the outward normal on the inner circle points toward the origin, so the
    flux of (1/2) b log rho is -2 pi r b / (2 r) and c_1 = pi b, in closed
    form; gamma(b = 2) = 1 fixes the clockwise orientation of the inner
    boundary.  The opposite-sign variant is reported in ``periods_alternate``.
    """
    if weight.kind != "power_law":
        raise NotLogHarmonic("log h must be harmonic; only power laws qualify")
    c = math.pi * float(weight.b)
    if not math.isfinite(c):
        raise NonFiniteValue(f"period of rho^{weight.b} is not finite on the annulus r = {spec.r}")
    return Character(gammas=[cmath.exp(1j * c)], periods=[c], periods_alternate=[-c])


@dataclass(frozen=True)
class EquivalenceVerdict:
    predicted: bool
    measured: bool
    max_curvature_diff: float

    @property
    def agree(self) -> bool:
        return self.predicted == self.measured


def curvature_grid(spec: AnnulusSpec, kernel: kc.SeriesKernel,
                   points: int = 20) -> np.ndarray:
    """Curvature along a radial grid in the safely-converged band of the annulus."""
    lo = spec.r + 0.05
    hi = min(0.9, 1.0 - kc.BOUNDARY_MARGIN - 0.05)
    radii = np.linspace(lo, hi, points)
    return np.array([curvature_scalar(kernel, complex(x)) for x in radii])


def character_equivalence(spec: AnnulusSpec, b1: float, b2: float,
                          grid_points: int = 20) -> EquivalenceVerdict:
    """Unitary equivalence of the two weighted Bergman multiplications:
    predicted by equal characters, measured by equal curvature grids."""
    g1 = character_of_weight(spec, RadialWeight.power_law(b1))
    g2 = character_of_weight(spec, RadialWeight.power_law(b2))
    predicted = g1.matches(g2)
    k1 = weighted_bergman_kernel(spec, RadialWeight.power_law(b1))
    k2 = weighted_bergman_kernel(spec, RadialWeight.power_law(b2))
    diff = float(np.abs(curvature_grid(spec, k1, grid_points)
                        - curvature_grid(spec, k2, grid_points)).max())
    return EquivalenceVerdict(predicted=predicted, measured=diff <= 1e-8,
                              max_curvature_diff=diff)


def period_matrix(spec: AnnulusSpec) -> np.ndarray:
    """1x1 period matrix of the harmonic measure of the inner circle.

    omega_1 = log rho / log r; the flux through the inner circle, signed so
    the energy form is positive, is 2 pi r / (r |log r|) = 2 pi / |log r|.
    """
    return np.array([[2.0 * math.pi / abs(math.log(spec.r))]])
