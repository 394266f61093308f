"""Scalar and matricial curvature, finite-difference oracle, Mobius covariance."""

import numpy as np
import pytest

from rkhs_lab import kernels as kc
from rkhs_lab.curvature import (JetGram, _inv_sqrt_hermitian, curvature_matrix,
                                curvature_scalar, frame_from_jet, mobius_rule_check)
from rkhs_lab.errors import (CenterOutsideDisc, DimensionMismatch, NotPositiveDefinite,
                             PointOutsideDomain)
from tests.conftest import disc_kernel, random_contractive_kernel

FD_STEP = 1e-4  # finite-difference step; one Richardson level on top


def curvature_scalar_fd(kernel, w: complex) -> float:
    """Finite-difference cross-check: -1/4 Laplacian of log K(z, z), step FD_STEP."""

    def logk(z: complex) -> float:
        return float(np.log(kc.eval_kernel(kernel, z, z).real))

    def lap(h: float) -> float:
        return (logk(w + h) + logk(w - h) + logk(w + 1j * h) + logk(w - 1j * h)
                - 4.0 * logk(w)) / h ** 2

    # one Richardson extrapolation level
    d = (4.0 * lap(FD_STEP / 2.0) - lap(FD_STEP)) / 3.0
    return -0.25 * d


def test_geometric_kernel_closed_form():
    k = kc.SeriesKernel.disc(np.ones(201))
    for w in [0.0, 0.25, 0.5 + 0.3j, -0.7j]:
        expected = -(1.0 - abs(w) ** 2) ** -2
        assert curvature_scalar(k, w) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("w", [0.99, 1.5])
def test_curvature_refuses_points_outside_the_disc(w):
    with pytest.raises(PointOutsideDomain):
        curvature_scalar(disc_kernel("1"), w)


def test_bergman_kernel_closed_form():
    # K = 1/(1-z wbar)^2: curvature is -2 (1-|w|^2)^-2
    k = disc_kernel("n+1")
    for w in [0.0, 0.4, 0.2 - 0.5j]:
        expected = -2.0 * (1.0 - abs(w) ** 2) ** -2
        assert curvature_scalar(k, w) == pytest.approx(expected, rel=1e-11)


def test_finite_difference_oracle_agrees(rng):
    for _ in range(5):
        k = random_contractive_kernel(rng)
        w = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        exact = curvature_scalar(k, w)
        approx = curvature_scalar_fd(k, w)
        assert abs(exact - approx) < 1e-5 * abs(exact)


def test_curvature_matrix_reduces_to_scalar():
    k = disc_kernel("(n+1)^s", s=2)
    w = 0.2 + 0.3j
    frame = frame_from_jet(k, w)
    K = curvature_matrix(frame)
    assert K.matrix.shape == (1, 1)
    assert K.matrix[0, 0].real == pytest.approx(curvature_scalar(k, w), rel=1e-10)


def test_mobius_rule_geometric_exact():
    k = kc.SeriesKernel.disc(np.ones(201))
    assert mobius_rule_check(k, 0.3 - 0.2j, 0.1 + 0.4j) < 1e-12


def test_mobius_rule_random_kernels(rng):
    for _ in range(10):
        k = random_contractive_kernel(rng)
        a = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        assert mobius_rule_check(k, a, z) < 1e-6


@pytest.mark.parametrize("a, z, error", [
    (np.nan, 0.1, CenterOutsideDisc), (1.0, 0.1, CenterOutsideDisc),
    (0.1, np.nan, PointOutsideDomain), (0.1, complex(np.nan, 0.2), PointOutsideDomain),
    (0.1, 1.0, PointOutsideDomain)], ids=["nan-a", "a-on-circle", "nan-z", "nan-imag-z", "z-1"])
def test_the_mobius_rule_refuses_a_center_or_point_off_the_disc(a, z, error):
    # refused before phi_a(z) is formed, not by a warning inside the curvature
    with pytest.raises(error):
        mobius_rule_check(kc.SeriesKernel.disc(np.ones(201)), a, z)


@pytest.mark.parametrize("G, m, n, name", [
    (np.eye(0), 1, 0, "n"), (np.eye(0), -1, 1, "m"), (np.eye(1), 0, 1, "m"),
    (np.eye(2), True, 1, "m"), (np.eye(2), 1, True, "n"), (np.eye(2), 1.0, 1, "m")],
    ids=["n-0", "m-negative", "m-0", "m-bool", "n-bool", "m-float"])
def test_a_jet_gram_refuses_a_dimension_below_one(G, m, n, name):
    with pytest.raises(DimensionMismatch, match=f"^{name} must be an integer >= 1"):
        JetGram(G, m, n)


def test_a_jet_gram_refuses_a_gram_of_another_size():
    with pytest.raises(DimensionMismatch, match="^Gram must be 2 x 2$"):
        JetGram(np.eye(3), 1, 1)


def _eigh_inv_sqrt(h):
    vals, vecs = np.linalg.eigh(h)
    return (vecs * vals ** -0.5) @ vecs.conj().T


def test_a_1x1_metric_root_is_the_eigh_route_to_the_bit():
    # a rank-1 metric is a float; its root is the eigh route's value of [[h]]
    rng = np.random.default_rng(20000)
    for v in (10.0 ** rng.uniform(-300.0, 300.0, 20000)).tolist():
        root, oracle = _inv_sqrt_hermitian(v), _eigh_inv_sqrt(np.array([[complex(v)]]))
        assert oracle.imag[0, 0] == 0.0
        assert root == oracle.real[0, 0]


@pytest.mark.parametrize("v", [0.0, -0.0, -1e-300, -2.0, float("nan")])
def test_a_1x1_metric_root_refuses_what_is_not_positive(v):
    with pytest.raises(NotPositiveDefinite):
        _inv_sqrt_hermitian(v)


def test_a_2x2_metric_root_is_the_eigh_route():
    rng = np.random.default_rng(2)
    for _ in range(50):
        B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = B @ B.conj().T + 0.1 * np.eye(2)
        assert np.array_equal(_inv_sqrt_hermitian(h), _eigh_inv_sqrt(h))
    with pytest.raises(NotPositiveDefinite):
        _inv_sqrt_hermitian(np.diag([1.0, -1.0]).astype(complex))
