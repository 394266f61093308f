"""Contractivity, hyponormality, 2-hypercontraction, Gram-decrease tests."""

import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkhs_lab import extremality as ex
from rkhs_lab import kernels as kc
from rkhs_lab.errors import (DimensionMismatch, NonFiniteValue, NonHermitianInput,
                             NotAContraction, NotPositiveDefinite)
from rkhs_lab.positivity import (contraction_check, gram_decrease_check, hyponormal_check,
                                 inverse_factor, psd_check, shift_kernel,
                                 two_hypercontraction_check)
from tests.conftest import counting, disc_kernel, random_contractive_kernel


def test_psd_check_accepts_gram(rng):
    B = rng.normal(size=(8, 8))
    assert psd_check(B @ B.T).passed


def test_psd_check_flags_indefinite():
    M = np.diag([1.0, -0.5])
    res = psd_check(M)
    assert not res.passed
    assert res.info["min_eigenvalue"] == pytest.approx(-0.5)


def test_psd_check_reports_spectral_norm(rng):
    B = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    for G in (B @ B.conj().T, B + B.conj().T):
        res = psd_check(G)
        assert res.info["norm"] == pytest.approx(np.linalg.norm(G, 2), rel=1e-12)


def test_psd_check_rejects_non_hermitian():
    # the second is off by 5, far above 1e-10 * ||G||_2 but inside a 1e-5 rtol
    for matrix in ([[1.0, 2.0], [0.0, 1.0]], [[1e6, 1e6 + 5.0], [1e6, 1e6]]):
        with pytest.raises(NonHermitianInput):
            psd_check(np.array(matrix))


@pytest.mark.parametrize("matrix", [np.zeros((0, 0)), np.ones((2, 3)), np.ones(3)],
                         ids=["empty", "non-square", "one-dimensional"])
def test_psd_check_refuses_bad_shapes(matrix):
    with pytest.raises(DimensionMismatch):
        psd_check(matrix)


@pytest.mark.parametrize("check", [psd_check, lambda G: gram_decrease_check(G, np.eye(2))],
                         ids=["psd_check", "gram_decrease_check"])
@pytest.mark.parametrize("matrix", [[[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.inf], [np.inf, 1.0]],
                                    [[1.0, np.nan], [np.nan, 1.0]]],
                         ids=["inf-diagonal", "inf-off-diagonal", "nan"])
def test_a_non_finite_matrix_is_refused(matrix, check):
    # refused before the eigensolve, which would give a NaN verdict
    with pytest.raises(NonFiniteValue):
        check(np.array(matrix))


@pytest.mark.parametrize("size", [1, 2, 3, 151])
def test_a_vector_stands_for_its_diagonal_matrix(size):
    # the definite and the decrease test of diag(c) by its diagonal, in O(n):
    # the factor and the verdict are the dense route's, bit for bit
    rng = np.random.default_rng(size)  # the shared rng fixture keeps its draws for other tests
    for _ in range(20):
        c = 10 ** rng.uniform(-3, 3, size)
        u = c * rng.uniform(0.5, 1.5, size)
        assert np.array_equal(inverse_factor(c), np.diagonal(inverse_factor(np.diag(c))))
        for G_v, G_Av in ((c, u), (u, c), (c, c)):
            vector = gram_decrease_check(G_v, G_Av)
            dense = gram_decrease_check(np.diag(G_v), np.diag(G_Av))
            assert ((vector.passed, vector.info["min_eigenvalue"])
                    == (dense.passed, dense.info["min_eigenvalue"]))


@pytest.mark.parametrize("G_v, G_Av, error", [
    (np.zeros(0), np.zeros(0), DimensionMismatch), (np.ones(2), np.ones(3), DimensionMismatch),
    (np.ones(2), np.eye(2), DimensionMismatch),
    (np.array([1.0, np.nan]), np.ones(2), NonFiniteValue),
    (np.ones(2), np.array([np.inf, 0.0]), NonFiniteValue),
    (np.array([1.0, 1.0 + 1j]), np.ones(2), NonHermitianInput)],
    ids=["empty", "lengths", "vector-and-matrix", "nan", "inf", "complex-diagonal"])
def test_the_decrease_test_of_vectors_keeps_the_refusals_of_psd_check(G_v, G_Av, error):
    with pytest.raises(error):
        gram_decrease_check(G_v, G_Av)


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
    berg = disc_kernel("n+1", 100)
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
        disc_kernel("n+1", 100)).passed


def test_two_hypercontraction_requires_contraction():
    with pytest.raises(NotAContraction):
        two_hypercontraction_check(kc.SeriesKernel.disc(np.array([1.0, 0.5, 0.4])))


def test_two_hypercontraction_counterexample():
    # a = (1, 1, 2, 4, ...): 1/a_0 - 2/a_1 + 1/a_2 = 1 - 2 + 0.5 < 0
    a = np.array([1.0, 1.0] + [2.0 * 2 ** k for k in range(60)])
    res = two_hypercontraction_check(kc.SeriesKernel.disc(a))
    assert not res.passed
    assert res.info["argmin"] == 0


@pytest.mark.parametrize("scale", [1e-200, 1e-12, 1.0, 1e12, 1e200])
def test_the_shift_rules_judge_c_k_as_k(scale):
    # c K defines the shift of K: the weights sqrt(a_n / a_(n+1)) do not see c,
    # and neither do the tolerances, which scale with what each rule compares
    halving = kc.SeriesKernel.disc(scale * np.array([1.0, 0.5, 0.25]))  # first weight sqrt 2
    res = contraction_check(halving)
    assert not res.passed
    assert res.info["min_tilde_coeff"] == -0.5 * scale
    with pytest.raises(NotAContraction):
        ex.classify_shift(halving, 0.0)
    # 1/a_1 - 2/a_2 + 1/a_3 = -0.25 / c
    res = two_hypercontraction_check(kc.SeriesKernel.disc(scale * np.array([1.0, 1.5, 1.6,
                                                                            3.0, 3.1])))
    assert not res.passed
    assert res.info["min_expression"] == pytest.approx(-0.25 / scale, rel=1e-12)
    assert res.info["argmin"] == 1
    bergman = kc.SeriesKernel.disc(scale * np.arange(1.0, 202.0))
    assert contraction_check(bergman).passed
    assert two_hypercontraction_check(bergman).passed
    assert ex.classify_shift(bergman, 0.0).classification == "NotExtremal"


def test_gram_decrease_on_monomials():
    # G_v for monomials (1, z, ..., z^k) in the Hardy model is the identity;
    # applying the shift drops the last basis vector, again an identity Gram
    G_v = np.eye(6)
    G_Av = np.eye(6) * 0.9
    assert gram_decrease_check(G_v, G_Av).passed
    assert not gram_decrease_check(G_Av, G_v).passed


def test_inverse_factor_is_the_upper_factor_of_the_inverse(rng):
    B = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    G = B @ B.conj().T + np.eye(6)
    P = inverse_factor(G)
    assert np.array_equal(P, np.triu(P))
    assert np.abs(P @ P.conj().T - np.linalg.inv(G)).max() <= 1e-12 * np.abs(P).max() ** 2


def _assert_exact_upper_factor(G):
    P = inverse_factor(G)
    assert P.dtype == G.dtype
    assert np.array_equal(P, np.triu(P))
    assert np.all(P.diagonal().imag == 0.0) and np.all(P.diagonal().real > 0.0)
    assert np.abs(P @ P.conj().T - np.linalg.inv(G)).max() <= 1e-12 * np.abs(P).max() ** 2


# LU does not pivot on a triangular matrix: zeros below the diagonal and a
# real positive diagonal of P hold to the bit, with no triu
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("size", [1, 2, 3, 40, 151])
def test_inverse_factor_is_exactly_upper_triangular_with_a_real_diagonal(dtype, size):
    rng = np.random.default_rng(size)  # the shared rng fixture keeps its draws for other tests
    for _ in range(20):
        B = rng.normal(size=(size, size)).astype(dtype)
        if dtype is complex:
            B += 1j * rng.normal(size=(size, size))
        _assert_exact_upper_factor(B @ B.conj().T + np.eye(size))


@pytest.mark.parametrize("zeta", [0.0, 0.3])
def test_the_pipeline_factor_is_exactly_upper_triangular_with_a_real_diagonal(monkeypatch,
                                                                             zeta):
    factors = counting(monkeypatch, ex, "inverse_factor")
    assert ex.uniqueness_pipeline_check(kc.SeriesKernel.disc(np.ones(201)), zeta).passed
    (C,), = factors
    if not zeta:
        # C = diag(c) at the origin is factored on its diagonal: the dense
        # factor of diag(c) is diag(p), bit for bit
        c = C
        assert c.ndim == 1 and c.dtype == np.float64 and c.size > 50
        _assert_exact_upper_factor(np.diag(c))
        assert np.array_equal(inverse_factor(np.diag(c)), np.diag(inverse_factor(c)))
        return
    # the real C of the geometric shift
    assert C.ndim == 2
    assert C.dtype == np.float64 and C.shape[0] > 50
    _assert_exact_upper_factor(C)


@pytest.mark.parametrize("gram", [np.zeros((0, 0)), np.zeros(0), np.zeros((2, 0)),
                                  np.ones((2, 3)), np.array(2.0),
                                  np.broadcast_to(np.eye(3), (2, 3, 3)),
                                  np.broadcast_to(np.eye(2), (1, 2, 2))],
                         ids=["empty-square", "empty-vector", "empty-non-square", "non-square",
                              "scalar", "3-D-stack", "3-D-stack-of-one-2x2"])
def test_inverse_factor_refuses_bad_shapes(gram):
    with pytest.raises(DimensionMismatch):
        inverse_factor(gram)


def test_inverse_factor_refuses_an_overflowing_bound_without_a_warning():
    # ||G||_F = 1e154 and ||P||_F^2 = tr(G^-1) = 1e160 are finite; their product is not
    G = np.diag([1e154, 1e-160])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotPositiveDefinite, match="= inf exceeds"):
            inverse_factor(G)


def _two_by_two(entry, where):
    G = np.array([[2.0, 0.5 - 0.25j], [0.5 + 0.25j, 1.0]])
    G[where] = entry
    return G


def _rotated(values, dtype):
    # U diag(values) U^H for a fixed rotation U, real or complex
    c, s = np.cos(0.7), np.sin(0.7) * (1j if dtype is complex else 1.0)
    U = np.array([[c, -np.conj(s)], [s, c]])
    return (U * values) @ U.conj().T


# a 2 x 2 Gram is factored in closed form, and a vector for its diagonal matrix
# in O(n); each refuses what the LAPACK route refuses
@pytest.mark.parametrize("G", [
    np.diag([1.0, -1e-3]), np.diag([1.0, 0.0]), np.diag([1.0, 1e-11]), np.diag([1.0, np.nan]),
    np.array([[-1.0, 0.5], [0.5, 2.0]]), np.array([[1.0, 2.0], [2.0, 1.0]]),
    _rotated([1.0, -0.5], complex), np.array([[1.0, 1.0], [1.0, 1.0]]), np.zeros((2, 2)),
    *(_two_by_two(entry, where) for entry in (np.nan, np.inf, -np.inf, complex(0.0, np.nan))
      for where in ((0, 0), (0, 1), (1, 0), (1, 1))),
    np.array([1.0, 0.0, 2.0]), np.array([1.0, -1e-3]), np.array([np.nan, 1.0]),
    np.array([1.0, 1e-11]), np.array([1e154, 1e-160]),
], ids=["indefinite", "singular", "ill-conditioned", "nan",
        "negative-first-pivot", "negative-second-pivot", "indefinite-complex", "singular-full",
        "zero", *(f"{name}-{where}" for name in ("nan", "inf", "-inf", "nan-imag")
                  for where in ("00", "01", "10", "11")),
        "vector-zero", "vector-negative", "vector-nan", "vector-ill-conditioned",
        "vector-overflowing-bound"])
def test_inverse_factor_refuses_what_is_not_safely_definite(G):
    with pytest.raises(NotPositiveDefinite):
        inverse_factor(G)


@pytest.mark.parametrize("dtype", [float, complex])
def test_the_2x2_definite_test_holds_the_conditioning_rule_on_either_side(dtype):
    # ||G||_F tr(G^-1) = sqrt(1 + d^2) (1 + 1 / d) is a congruence invariant
    # of U diag(1, d) U^H; it crosses COND_LIMIT = 1e10 near d = 1e-10
    for d, accepted in ((1.2e-10, True), (1.001e-10, True), (0.999e-10, False), (0.8e-10, False)):
        for G in (np.diag([1.0, d]).astype(dtype), _rotated([1.0, d], dtype)):
            if accepted:
                assert inverse_factor(G).dtype == dtype
            else:
                with pytest.raises(NotPositiveDefinite, match="exceeds 1e\\+10"):
                    inverse_factor(G)


@pytest.mark.parametrize("dtype", [float, complex])
def test_the_2x2_definite_test_is_the_lapack_factor_at_every_scale(dtype):
    rng = np.random.default_rng(2)  # the shared rng fixture keeps its draws for other tests
    eps = np.finfo(float).eps
    for scale in (1e-150, 1e-75, 1e-20, 1.0, 1e20, 1e75, 1e150):
        for _ in range(50):
            B = rng.normal(size=(2, 2)).astype(dtype)
            if dtype is complex:
                B += 1j * rng.normal(size=(2, 2))
            G = scale * (B @ B.conj().T + 0.1 * np.eye(2))
            P = inverse_factor(G)
            lapack = np.linalg.inv(np.linalg.cholesky(G).conj().T)
            assert P.dtype == G.dtype and P[1, 0] == 0.0
            assert np.all(P.diagonal().imag == 0.0) and np.all(P.diagonal().real > 0.0)
            assert np.all(np.abs(P - lapack) <= 4 * eps * np.abs(lapack)), (scale, G)


def test_a_real_gram_gives_the_verdicts_of_its_complex_cast(rng):
    # a real Gram stays real (real LAPACK); the verdicts are those of the cast
    B = rng.normal(size=(8, 8))
    for G in (B @ B.T + np.eye(8), B + B.T):
        pairs = [(psd_check(G), psd_check(G.astype(complex))),
                 (gram_decrease_check(G, 0.5 * G),
                  gram_decrease_check(G.astype(complex), 0.5 * G.astype(complex)))]
        for real, cast in pairs:
            assert real.passed == cast.passed
            assert (abs(real.info["min_eigenvalue"] - cast.info["min_eigenvalue"])
                    <= 1e-13 * abs(cast.info["min_eigenvalue"]))
    G = B @ B.T + np.eye(8)
    P, P_cast = inverse_factor(G), inverse_factor(G.astype(complex))
    assert P.dtype == np.float64 and P_cast.dtype == np.complex128
    assert np.abs(P - P_cast).max() <= 1e-13 * np.abs(P_cast).max()
    with pytest.raises(NotPositiveDefinite):
        inverse_factor(B + B.T - 10.0 * np.eye(8))


def test_an_integer_gram_is_accepted():
    G = np.array([[2, 1], [1, 2]])
    assert psd_check(G).info["min_eigenvalue"] == pytest.approx(1.0)
    assert inverse_factor(G).dtype == np.float64
    assert gram_decrease_check(G, np.eye(2, dtype=int)).passed
    assert not gram_decrease_check(np.eye(2, dtype=int), G).passed


def test_a_real_non_symmetric_matrix_is_refused():
    with pytest.raises(NonHermitianInput):
        psd_check(np.array([[1, 2], [0, 1]]))
    with pytest.raises(NonHermitianInput):
        gram_decrease_check(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.5, max_value=1.0), min_size=3, max_size=30))
def test_contractive_weights_give_contraction(weights):
    # w_n <= 1 for all n is exactly contractivity of the shift
    assert contraction_check(shift_kernel(shift_from_weights(weights))).passed


def test_the_shift_kernel_of_a_short_list_is_built_once():
    short = kc.SeriesKernel.disc([1.0, 2.0, 3.0])
    padded = shift_kernel(short)
    assert padded is shift_kernel(short)
    assert padded.coeffs.size == kc.DEFAULT_N_MAX + 1
    full = kc.SeriesKernel.disc(np.ones(kc.DEFAULT_N_MAX + 1))
    assert shift_kernel(full) is full


def test_a_full_kernel_keeps_no_reference_to_itself():
    # with the cyclic collector off, only reference counting frees the
    # kernel: a cached reference to itself would keep it alive
    kernel = kc.SeriesKernel.disc(np.ones(kc.DEFAULT_N_MAX + 1))
    assert shift_kernel(kernel) is kernel
    ref = weakref.ref(kernel)
    gc.disable()
    try:
        del kernel
        assert ref() is None
    finally:
        gc.enable()
