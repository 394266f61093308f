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


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    min_eigenvalue: Optional[float] = None
    info: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.passed


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
        tol = 1e-10 * max(1.0, norm)
    min_eig = float(np.linalg.eigvalsh((G + G.conj().T) / 2.0).min())
    return CheckResult(passed=min_eig >= -tol, min_eigenvalue=min_eig, info={"tol": tol})


def shift_coeffs(kernel: kc.SeriesKernel) -> np.ndarray:
    """Coefficients of a kernel that defines a weighted shift with representable
    weights, else ConfigError."""
    if kernel.kind != kc.DISC_DIAGONAL:
        raise ConfigError(f"field 'kind' must be '{kc.DISC_DIAGONAL}' for shift "
                          f"weights, got '{kernel.kind}'")
    a = kernel.coeffs
    if a.size < 2:
        raise ConfigError("field 'coeffs' must hold at least two coefficients for "
                          f"shift weights, got {a.size}")
    with np.errstate(over="ignore", under="ignore"):
        ratios = a[:-1] / a[1:]
    if not np.all((ratios > 0.0) & np.isfinite(ratios)):
        raise ConfigError("field 'coeffs' has a ratio a_n / a_(n+1) outside the "
                          "double range, so the shift weights are not representable")
    return a


def shift_weights(kernel: kc.SeriesKernel) -> np.ndarray:
    """Shift weights w_n = sqrt(a_n / a_(n+1))."""
    a = shift_coeffs(kernel)
    return np.sqrt(a[:-1] / a[1:])


def shift_kernel(kernel: kc.SeriesKernel) -> kc.SeriesKernel:
    """The shift of a kernel, its coefficients continued by the last one up to
    n = DEFAULT_N_MAX, so the weights beyond the list are 1."""
    a = shift_coeffs(kernel)
    if a.size > kc.DEFAULT_N_MAX:
        return kernel
    pad = np.full(kc.DEFAULT_N_MAX + 1 - a.size, a[-1])
    return kc.SeriesKernel.disc(np.concatenate([a, pad]))


def is_contraction(kernel: kc.SeriesKernel, tol: float = 1e-10) -> bool:
    """The contractivity rule: no tilde coefficient a_n - a_(n-1) is below
    -tol times the largest of them (or -tol)."""
    b = kc.tilde_kernel(kernel).coeffs
    return bool(np.all(b >= -tol * max(1.0, float(np.abs(b).max()))))


def _default_cloud(kernel: kc.SeriesKernel, kt: kc.SeriesKernel, seed: int) -> np.ndarray:
    # inside the series' disc of convergence (coefficients may grow) and where
    # the window resolves the kernel; halved while the tilde tail bound at the
    # outermost point exceeds TAIL_RTOL times the largest |Ktilde| there, where
    # kernel_matrix would refuse the cloud
    a = kernel.coeffs
    radius = min(SAMPLE_RADIUS, 0.8 * float(np.sqrt((a[:-1] / a[1:]).min())),
                 0.9 * kc.TAIL_RTOL ** (1.0 / (2.0 * kernel.n_max)))
    rho = float(np.abs(sample_cloud(seed, radius=radius)).max()) ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        while (kc._series_tail_bound(kt, np.array(rho))
               > kc.TAIL_RTOL * (np.abs(kt.coeffs) @ rho ** kt.ns)):
            radius, rho = radius / 2.0, rho / 4.0
    return sample_cloud(seed, radius=radius)


def contraction_check(kernel: kc.SeriesKernel, sample_points=None,
                      tol: float = 1e-10, seed: int = DEFAULT_SEED) -> CheckResult:
    """Contractivity of the adjoint multiplication operator via the tilde kernel.

    For diagonal kernels the coefficient signs of the tilde series are
    equivalent to positive semidefiniteness, and are taken as the verdict
    (:func:`is_contraction`).  The Gram of the tilde kernel on a sample cloud
    is reported alongside, in ``info`` and ``min_eigenvalue``; the
    contractivity preconditions elsewhere in the package apply the sign rule
    and never build that Gram.
    """
    shift_coeffs(kernel)
    kt = kc.tilde_kernel(kernel)
    coeff_pass = is_contraction(kernel, tol)
    pts = np.asarray(_default_cloud(kernel, kt, seed) if sample_points is None
                     else sample_points)
    G = kc.kernel_matrix(kt, pts, pts)
    gram_result = psd_check(G, tol=tol * max(1.0, float(np.linalg.norm(G, ord=2))))
    return CheckResult(
        passed=coeff_pass,
        min_eigenvalue=gram_result.min_eigenvalue,
        info={"coefficient_test": coeff_pass, "gram_test": gram_result.passed,
              "seed": seed, "min_tilde_coeff": float(kt.coeffs.min())},
    )


def hyponormal_check(kernel: kc.SeriesKernel, tol: float = 1e-10) -> CheckResult:
    """Pass iff the shift weights are non-decreasing."""
    diffs = np.diff(shift_weights(kernel))
    worst = float(diffs.min()) if diffs.size else 0.0
    return CheckResult(passed=worst >= -tol, info={"min_weight_step": worst})


def two_hypercontraction_check(kernel: kc.SeriesKernel, tol: float = 1e-10) -> CheckResult:
    """Three-term criterion 1/a_n - 2/a_{n+1} + 1/a_{n+2} >= 0 on diagonal models."""
    a = shift_coeffs(kernel)
    if not is_contraction(kernel):
        raise NotAContraction("2-hypercontraction test requires a contraction")
    inv = 1.0 / a
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
