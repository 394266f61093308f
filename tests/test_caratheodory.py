"""Caratheodory norms on ball and polydisc, generalized and planar CI."""

import numpy as np
import pytest

from rkhs_lab import caratheodory as ca
from rkhs_lab import kernels as kc
from rkhs_lab.curvature import ci_slack, curvature_scalar
from rkhs_lab.errors import ConfigError, DimensionMismatch, NonFiniteValue, PointOutsideDomain
from tests.conftest import random_contractive_kernel


def test_ball_norm_at_origin_is_hilbert_schmidt():
    V = [[3.0], [4.0]]
    assert ca.cara_norm("ball", V, [0.0, 0.0]) == pytest.approx(5.0)


def test_ball_norm_radial_blowup():
    V = [[1.0], [0.0]]
    z = [0.6, 0.0]
    # V parallel to z: the P-block scaling 1/(1-|z|^2) applies
    assert ca.cara_norm("ball", V, z) == pytest.approx(1.0 / (1.0 - 0.36))
    W = [[0.0], [1.0]]
    # V orthogonal to z: only the sqrt factor
    assert ca.cara_norm("ball", W, z) == pytest.approx(1.0 / np.sqrt(1.0 - 0.36))


def test_ball_norm_rejects_outside_point():
    V = [[1.0]]
    with pytest.raises(PointOutsideDomain, match="outside the ball"):
        ca.cara_norm("ball", V, [1.2])


def test_polydisc_norm_blockwise_max():
    V = np.array([[1.0], [2.0]])
    assert ca.cara_norm("polydisc", V, [0.0, 0.0]) == pytest.approx(2.0)
    assert ca.cara_norm("polydisc", V, [0.0, 0.5]) == pytest.approx(2.0 / 0.75)
    with pytest.raises(PointOutsideDomain, match="outside the polydisc"):
        ca.cara_norm("polydisc", V, [0.0, 1.0])


@pytest.mark.parametrize("V", [[[1.0], [2.0, 3.0]], [], [[]], [1.0, 2.0], np.ones((1, 1, 1))],
                         ids=["ragged", "empty", "empty-row", "1-D", "3-D"])
def test_norms_refuse_a_tangent_vector_that_is_not_an_m_by_n_array(V):
    for domain in ("ball", "polydisc"):
        with pytest.raises(DimensionMismatch):
            ca.cara_norm(domain, V, [0.0])


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)],
                         ids=["nan", "inf", "complex-inf"])
def test_norms_refuse_a_non_finite_tangent_vector(entry):
    for domain in ("ball", "polydisc"):
        with pytest.raises(NonFiniteValue, match="tangent vector"):
            ca.cara_norm(domain, [[1.0], [entry]], [0.0, 0.3])


def test_cara_norm_refuses_an_unknown_domain():
    with pytest.raises(ConfigError, match="'ball' or 'polydisc'"):
        ca.cara_norm("disc", [[1.0]], [0.0])


def test_disc_norms_coincide_for_m1():
    V = [[1.0 + 1.0j]]
    for z in [0.0, 0.3, 0.7]:
        assert ca.cara_norm("ball", V, [z]) == pytest.approx(
            ca.cara_norm("polydisc", V, [z]))


def test_generalized_ci_backward_shift_tight():
    k = kc.SeriesKernel.disc(np.ones(201))
    for w in [0.0, 0.4, 0.3 + 0.3j]:
        K = np.array([[curvature_scalar(k, w)]])
        verdict = ca.generalized_ci_check(K, "ball", [w])
        assert verdict.passed
        assert abs(verdict.worst_margin) < 1e-10  # equality case


def test_generalized_ci_random_contractions(rng):
    for _ in range(10):
        k = random_contractive_kernel(rng)
        w = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        K = np.array([[curvature_scalar(k, w)]])
        assert ca.generalized_ci_check(K, "ball", [w]).passed


def test_generalized_ci_detects_violation():
    # a matrix above the -C(V)^2 envelope must fail
    K = np.array([[-0.5]])  # curvature bound at 0 is -1
    assert not ca.generalized_ci_check(K, "ball", [0.0]).passed


# the planar curvature inequality dd-bar log K >= 4 pi^2 S(w, w)^2 is
# ci_slack with the Szego value; its verdict is generalized_ci_check's on
# the 1 x 1 curvature

def szego_disc(z, w):
    """Szego kernel of the unit disc, 1 / (2 pi (1 - z conj(w)))."""
    return 1.0 / (2.0 * np.pi) / (1.0 - z * np.conjugate(w))


def test_planar_ci_disc_control():
    # Bergman dd-bar log K = 2, Szego term 4 pi^2 (1/2pi)^2 = 1: slack 1
    berg = kc.SeriesKernel.disc(np.arange(1.0, 202.0) / np.pi)
    curv, bound, slack = ci_slack(berg, 0.0, szego_disc(0, 0).real)
    assert (curv, bound) == (pytest.approx(-2.0), pytest.approx(-1.0))
    assert slack == pytest.approx(1.0)
    assert ca.generalized_ci_check(np.array([[curv]]), "ball", [0.0]).passed


def test_planar_ci_hardy_equality():
    # the Hardy space attains equality: the slack and the margin are 0
    k = kc.SeriesKernel.disc(np.ones(201))
    curv, _, slack = ci_slack(k, 0.3, abs(szego_disc(0.3, 0.3)))
    assert abs(slack) < 1e-10
    assert abs(ca.generalized_ci_check(np.array([[curv]]), "ball", [0.3]).worst_margin) < 1e-10


@pytest.mark.parametrize("coeffs", [np.ones(201), np.arange(1.0, 202.0),
                                    np.arange(1.0, 202.0) ** 3, 1.0 / np.arange(1.0, 202.0)],
                         ids=["szego", "bergman", "cubic", "harmonic"])
def test_planar_ci_is_the_generalized_verdict_on_the_disc(coeffs):
    # 4 pi^2 S(w, w)^2 with the disc Szego kernel is the Caratheodory bound
    # (1 - |w|^2)^-2, so minus the slack is the margin of the 1 x 1 curvature
    k = kc.SeriesKernel.disc(coeffs)
    for w in (0.0, 0.3, -0.5 + 0.4j, 0.85j):
        margin = -ci_slack(k, w, szego_disc(w, w).real)[2]
        general = ca.generalized_ci_check(np.array([[curvature_scalar(k, w)]]), "ball", [w])
        assert (margin <= ca.CI_TOL) == general.passed
        assert margin == pytest.approx(general.worst_margin, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# the generalized check's supremum over tangent vectors is exact

def cara_forms(domain, w, n):
    """Hermitian matrices D with C(v)^2 = max over D of v^H D v."""
    w = np.asarray(w, dtype=complex)
    m = w.size
    if domain == "ball":
        r2 = float(np.vdot(w, w).real)
        P = np.outer(w, w.conj()) / r2
        A = P / (1.0 - r2) + (np.eye(m) - P) / np.sqrt(1.0 - r2)
        return [np.kron(A @ A, np.eye(n))]
    gaps = 1.0 - np.abs(w) ** 2
    return [np.diag(np.repeat(np.arange(m) == j, n) / gaps[j] ** 2) for j in range(m)]


def random_case(rng):
    m, n = int(rng.integers(2, 4)), int(rng.integers(1, 3))
    w = rng.uniform(-0.4, 0.4, m) + 1j * rng.uniform(-0.4, 0.4, m)
    return m, n, w


def complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def margin_of(K, domain, w, n, v):
    """<K v, v> + C(v)^2 for a unit vector v, through the Caratheodory norm."""
    return float(np.vdot(v, K @ v).real) + ca.cara_norm(domain, v.reshape(len(w), n), w) ** 2


@pytest.mark.parametrize("domain", ["ball", "polydisc"])
def test_generalized_ci_fails_narrow_cone_violations(domain):
    # K = -E - I + 1.02 u u^H with E = D + Q R Q, D the Caratheodory form that
    # is largest at u and Q the projector off u: the inequality breaks by 0.02
    # at u (on the ball by exactly that), and only for tangent vectors close to u
    rng = np.random.default_rng(11)
    for _ in range(40):
        m, n, w = random_case(rng)
        u = complex_normal(rng, m * n)
        u /= np.linalg.norm(u)
        D = max(cara_forms(domain, w, n), key=lambda D: np.vdot(u, D @ u).real)
        Q = np.eye(m * n) - np.outer(u, u.conj())
        R = complex_normal(rng, m * n, m * n)
        E = D + Q @ R @ R.conj().T @ Q
        K = -E - np.eye(m * n) + 1.02 * np.outer(u, u.conj())
        verdict = ca.generalized_ci_check(K, domain, w, n=n)
        assert not verdict.passed
        assert verdict.worst_margin >= 0.02 - 1e-12
        if domain == "ball":
            assert verdict.worst_margin == pytest.approx(0.02, abs=1e-12)


@pytest.mark.parametrize("domain", ["ball", "polydisc"])
def test_generalized_ci_margin_is_attained_and_never_exceeded(domain):
    rng = np.random.default_rng(12)
    for _ in range(10):
        m, n, w = random_case(rng)
        B = complex_normal(rng, m * n, m * n)
        K = -B @ B.conj().T - 2.0 * np.eye(m * n) + 0.5 * complex_normal(rng, m * n, m * n)
        verdict = ca.generalized_ci_check(K, domain, w, n=n)
        v = verdict.worst_vector
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        attained = margin_of(K, domain, w, n, v)
        assert attained == pytest.approx(verdict.worst_margin, rel=1e-12)
        assert verdict.passed == (verdict.worst_margin <= 1e-10)
        sample = complex_normal(rng, 2000, m * n)
        sample /= np.linalg.norm(sample, axis=1, keepdims=True)
        best = max(margin_of(K, domain, w, n, x) for x in sample)
        assert best <= verdict.worst_margin + 1e-12 * abs(verdict.worst_margin)


def test_generalized_ci_refusals():
    with pytest.raises(DimensionMismatch):
        ca.generalized_ci_check(np.eye(3), "ball", [0.0, 0.0, 0.0], n=2)
    with pytest.raises(DimensionMismatch):
        ca.generalized_ci_check(-np.eye(4), "polydisc", [0.0, 0.0, 0.0], n=2)
    with pytest.raises(PointOutsideDomain, match="outside the ball"):
        ca.generalized_ci_check(-np.eye(2), "ball", [0.8, 0.7])
    with pytest.raises(PointOutsideDomain, match="outside the polydisc"):
        ca.generalized_ci_check(-np.eye(2), "polydisc", [0.2, 1.0])
    # a NaN point is outside either domain, not a NaN margin
    with pytest.raises(PointOutsideDomain, match="outside the ball"):
        ca.generalized_ci_check(-np.eye(2), "ball", [0.2, np.nan])
    with pytest.raises(PointOutsideDomain, match="outside the polydisc"):
        ca.generalized_ci_check(-np.eye(2), "polydisc", [np.nan, 0.2])


@pytest.mark.parametrize("K, n, named", [
    (-np.eye(2), 0, "^n must"), (-np.eye(2), -1, "^n must"), (-np.eye(2), True, "^n must"),
    (-np.eye(2), 1.0, "^n must"), (np.zeros((0, 0)), 1, "matrix K "),
    (np.zeros(0), 1, "matrix K "), (np.array(-1.0), 1, "matrix K ")],
    ids=["n-0", "n-negative", "n-bool", "n-float", "empty", "empty-vector", "scalar"])
def test_generalized_ci_refuses_an_empty_curvature_or_a_block_size_below_one(K, n, named):
    with pytest.raises(DimensionMismatch, match=named):
        ca.generalized_ci_check(K, "ball", [0.0], n=n)
