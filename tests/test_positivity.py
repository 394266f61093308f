"""Contractivity, hyponormality, 2-hypercontraction, Gram-decrease tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkhs_lab import kernels as kc
from rkhs_lab.errors import NonHermitianInput, NotAContraction
from rkhs_lab.positivity import (contraction_check, gram_decrease_check,
                                 hyponormal_check, psd_check, shift_kernel,
                                 two_hypercontraction_check)
from tests.conftest import random_contractive_kernel


def test_psd_check_accepts_gram(rng):
    B = rng.normal(size=(8, 8))
    assert psd_check(B @ B.T).passed


def test_psd_check_flags_indefinite():
    M = np.diag([1.0, -0.5])
    res = psd_check(M)
    assert not res.passed
    assert res.min_eigenvalue == pytest.approx(-0.5)


def test_psd_check_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        psd_check(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_contraction_check_geometric():
    assert contraction_check(kc.SeriesKernel.disc(np.ones(201))).passed


def test_contraction_check_decreasing_coeffs_fails():
    # a_1 < a_0 makes the tilde coefficient negative
    res = contraction_check(kc.SeriesKernel.disc(np.array([1.0, 0.5, 0.5, 0.5])))
    assert not res.passed


def test_contraction_random_family(rng):
    for _ in range(10):
        assert contraction_check(random_contractive_kernel(rng)).passed


def test_hyponormal_bergman():
    berg = kc.SeriesKernel.disc_rule(lambda n: n + 1.0, 100)
    assert hyponormal_check(berg).passed


def shift_from_weights(weights) -> kc.SeriesKernel:
    """The shift with the given weights: a_0 = 1, a_(n+1) = a_n / w_n^2."""
    w = np.asarray(weights, dtype=float)
    return kc.SeriesKernel.disc(np.concatenate([[1.0], np.cumprod(w ** -2.0)]))


def test_hyponormal_rejects_weight_dip():
    assert not hyponormal_check(shift_from_weights([1.0, 0.9, 1.0, 1.0])).passed


def test_two_hypercontraction_geometric_and_bergman():
    assert two_hypercontraction_check(kc.SeriesKernel.disc(np.ones(100))).passed
    assert two_hypercontraction_check(
        kc.SeriesKernel.disc_rule(lambda n: n + 1.0, 100)).passed


def test_two_hypercontraction_requires_contraction():
    with pytest.raises(NotAContraction):
        two_hypercontraction_check(kc.SeriesKernel.disc(np.array([1.0, 0.5, 0.4])))


def test_two_hypercontraction_counterexample():
    # a = (1, 1, 2, 4, ...): 1/a_0 - 2/a_1 + 1/a_2 = 1 - 2 + 0.5 < 0
    a = np.array([1.0, 1.0] + [2.0 * 2 ** k for k in range(60)])
    res = two_hypercontraction_check(kc.SeriesKernel.disc(a))
    assert not res.passed
    assert res.info["argmin"] == 0


def test_gram_decrease_on_monomials():
    # G_v for monomials (1, z, ..., z^k) in the Hardy model is the identity;
    # applying the shift drops the last basis vector, again an identity Gram
    G_v = np.eye(6)
    G_Av = np.eye(6) * 0.9
    assert gram_decrease_check(G_v, G_Av).passed
    assert not gram_decrease_check(G_Av, G_v).passed


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.5, max_value=1.0), min_size=3, max_size=30))
def test_contractive_weights_give_contraction(weights):
    # w_n <= 1 for all n is exactly contractivity of the shift
    assert contraction_check(shift_kernel(shift_from_weights(weights))).passed
