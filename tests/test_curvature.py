"""Scalar and matricial curvature, finite-difference oracle, Mobius covariance."""

import numpy as np
import pytest

from rkhs_lab import kernels as kc
from rkhs_lab.curvature import (curvature_matrix, curvature_scalar,
                                curvature_scalar_fd, frame_from_jet,
                                mobius_rule_check)
from rkhs_lab.errors import PointOutsideDomain
from tests.conftest import random_contractive_kernel


def test_geometric_kernel_closed_form():
    k = kc.SeriesKernel.disc(np.ones(201))
    for w in [0.0, 0.25, 0.5 + 0.3j, -0.7j]:
        expected = -(1.0 - abs(w) ** 2) ** -2
        assert curvature_scalar(k, w) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("w", [0.99, 1.5])
def test_curvature_refuses_points_outside_the_disc(w):
    with pytest.raises(PointOutsideDomain):
        curvature_scalar(kc.SeriesKernel.geometric(), w)


def test_bergman_kernel_closed_form():
    # K = 1/(1-z wbar)^2: curvature is -2 (1-|w|^2)^-2
    k = kc.SeriesKernel.disc_rule(lambda n: n + 1.0, 200)
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
    k = kc.SeriesKernel.disc_rule(lambda n: (n + 1.0) ** 2, 200)
    w = 0.2 + 0.3j
    frame = frame_from_jet(k, w)
    K = curvature_matrix(frame)
    assert K.matrix.shape == (1, 1)
    assert K.as_scalar() == pytest.approx(curvature_scalar(k, w), rel=1e-10)


def test_mobius_rule_geometric_exact():
    k = kc.SeriesKernel.disc(np.ones(201))
    assert mobius_rule_check(k, 0.3 - 0.2j, 0.1 + 0.4j) < 1e-12


def test_mobius_rule_random_kernels(rng):
    for _ in range(10):
        k = random_contractive_kernel(rng)
        a = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        assert mobius_rule_check(k, a, z) < 1e-6
