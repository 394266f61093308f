"""PSD tests and shift criteria: contractivity, hyponormality, hypercontractivity."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kernels as kc
from .errors import ConfigError, DimensionMismatch, NonHermitianInput, NotAContraction

DEFAULT_SEED = 2024
SAMPLE_COUNT = 50
SAMPLE_RADIUS = 0.9


def default_tol(G: np.ndarray) -> float:
    return 1e-10 * max(1.0, float(np.linalg.norm(G, ord=2)))


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    min_eigenvalue: Optional[float] = None
    info: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class WeightSequence:
    """Shift weights w_n = sqrt(a_n / a_{n+1}) with the source coefficients."""

    weights: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if not (np.all(self.weights > 0) and np.all(np.isfinite(self.weights))):
            raise ValueError("weights must be finite and positive")

    @classmethod
    def from_coeffs(cls, coeffs) -> "WeightSequence":
        a = np.asarray(coeffs, dtype=float)
        if a.size < 2 or np.any(a <= 0):
            raise ValueError("need at least two positive coefficients")
        return cls(weights=np.sqrt(a[:-1] / a[1:]), coeffs=a)

    @classmethod
    def from_weights(cls, weights) -> "WeightSequence":
        w = np.asarray(weights, dtype=float)
        a = np.ones(w.size + 1)
        for i, wi in enumerate(w):
            a[i + 1] = a[i] / wi ** 2
        return cls(weights=w, coeffs=a)

    def kernel(self) -> kc.SeriesKernel:
        # weights beyond the listed ones default to 1: constant coefficients
        a = self.coeffs
        if a.size < kc.DEFAULT_N_MAX + 1:
            pad = np.full(kc.DEFAULT_N_MAX + 1 - a.size, a[-1])
            a = np.concatenate([a, pad])
        return kc.SeriesKernel.disc(a)


def sample_cloud(seed: int = DEFAULT_SEED, count: int = SAMPLE_COUNT,
                 radius: float = SAMPLE_RADIUS) -> np.ndarray:
    """Deterministic point cloud with |z| <= radius (seed recorded in verdicts)."""
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0, 1, count))
    theta = rng.uniform(0, 2 * np.pi, count)
    return r * np.exp(1j * theta)


def psd_check(gram: np.ndarray, tol: Optional[float] = None) -> CheckResult:
    """Pass iff the smallest eigenvalue of a Hermitian matrix is >= -tol."""
    G = np.asarray(gram, dtype=complex)
    norm = float(np.linalg.norm(G, ord=2)) if G.size else 0.0
    if not np.allclose(G, G.conj().T, atol=1e-10 * max(1.0, norm)):
        raise NonHermitianInput("matrix is not Hermitian")
    if tol is None:
        tol = default_tol(G)
    min_eig = float(np.linalg.eigvalsh((G + G.conj().T) / 2.0).min())
    return CheckResult(passed=min_eig >= -tol, min_eigenvalue=min_eig, info={"tol": tol})


def contraction_check(kernel: kc.SeriesKernel, sample_points=None,
                      tol: float = 1e-10, seed: int = DEFAULT_SEED) -> CheckResult:
    """Contractivity of the adjoint multiplication operator via the tilde kernel.

    For diagonal kernels the coefficient signs of the tilde series are
    equivalent to positive semidefiniteness, and are taken as the verdict;
    the sampled Gram test is reported alongside.  Every contractivity
    requirement elsewhere in the package defers to this verdict.
    """
    _shift_coeffs(kernel)
    kt = kc.tilde_kernel(kernel)
    scale = float(np.abs(kt.coeffs).max())
    coeff_pass = bool(np.all(kt.coeffs >= -tol * max(1.0, scale)))
    if sample_points is None:
        # stay inside the series' disc of convergence (coefficients may grow)
        # and where the truncation window still resolves the kernel
        ratios = kernel.coeffs[:-1] / kernel.coeffs[1:]
        resolvable = kc.TAIL_RTOL ** (1.0 / (2.0 * max(kernel.n_max, 1)))
        safe = min(SAMPLE_RADIUS, 0.8 * float(np.sqrt(ratios.min())),
                   0.9 * resolvable)
        sample_points = sample_cloud(seed, radius=safe)
    pts = np.asarray(sample_points)
    G = kc.kernel_matrix(kt, pts, pts)
    gram_result = psd_check(G, tol=tol * max(1.0, float(np.linalg.norm(G, ord=2))))
    return CheckResult(
        passed=coeff_pass,
        min_eigenvalue=gram_result.min_eigenvalue,
        info={"coefficient_test": coeff_pass, "gram_test": gram_result.passed,
              "seed": seed, "min_tilde_coeff": float(kt.coeffs.min())},
    )


def _shift_coeffs(kernel: kc.SeriesKernel) -> np.ndarray:
    """Coefficients of a kernel that defines a weighted shift, else ConfigError."""
    if kernel.kind != kc.DISC_DIAGONAL:
        raise ConfigError(f"field 'kind' must be '{kc.DISC_DIAGONAL}' for shift "
                          f"weights, got '{kernel.kind}'")
    if kernel.coeffs.size < 2:
        raise ConfigError("field 'coeffs' must hold at least two coefficients for "
                          f"shift weights, got {kernel.coeffs.size}")
    return kernel.coeffs


def as_weights(obj) -> WeightSequence:
    """Coerce a disc-diagonal kernel to its shift weights (no-op on weights)."""
    if isinstance(obj, WeightSequence):
        return obj
    a = _shift_coeffs(obj)
    with np.errstate(over="ignore", under="ignore"):
        ratios = a[:-1] / a[1:]
    if not np.all((ratios > 0.0) & np.isfinite(ratios)):
        raise ConfigError("field 'coeffs' has a ratio a_n / a_(n+1) outside the "
                          "double range, so the shift weights are not representable")
    return WeightSequence.from_coeffs(a)


def hyponormal_check(ws, tol: float = 1e-10) -> CheckResult:
    """Pass iff the weight sequence is non-decreasing."""
    ws = as_weights(ws)
    diffs = np.diff(ws.weights)
    worst = float(diffs.min()) if diffs.size else 0.0
    return CheckResult(passed=worst >= -tol, info={"min_weight_step": worst})


def two_hypercontraction_check(ws, tol: float = 1e-10) -> CheckResult:
    """Three-term criterion 1/a_n - 2/a_{n+1} + 1/a_{n+2} >= 0 on diagonal models."""
    ws = as_weights(ws)
    if not contraction_check(ws.kernel()).passed:
        raise NotAContraction("2-hypercontraction test requires a contraction")
    inv = 1.0 / ws.coeffs
    expr = inv[:-2] - 2.0 * inv[1:-1] + inv[2:]
    worst = float(expr.min()) if expr.size else 0.0
    idx = int(expr.argmin()) if expr.size else -1
    return CheckResult(passed=worst >= -tol, info={"min_expression": worst, "argmin": idx})


def gram_decrease_check(G_v: np.ndarray, G_Av: np.ndarray,
                        tol: Optional[float] = None) -> CheckResult:
    """Contractivity of a linear map through its Gram matrices: G_Av <= G_v."""
    G_v = np.asarray(G_v, dtype=complex)
    G_Av = np.asarray(G_Av, dtype=complex)
    if G_v.shape != G_Av.shape:
        raise DimensionMismatch(f"shapes {G_v.shape} and {G_Av.shape} differ")
    return psd_check(G_v - G_Av, tol=tol)
