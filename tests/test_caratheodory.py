"""Caratheodory norms on ball and polydisc, generalized and planar CI."""

import numpy as np
import pytest

from rkhs_lab import caratheodory as ca
from rkhs_lab import kernels as kc
from rkhs_lab.curvature import curvature_scalar
from rkhs_lab.errors import DimensionMismatch, PointOutsideBall, PointOutsidePolydisc
from tests.conftest import random_contractive_kernel


def test_ball_norm_at_origin_is_hilbert_schmidt():
    V = ca.MatricialTangent.from_flat(np.array([3.0, 4.0]), 2, 1)
    assert ca.cara_norm_ball(V, [0.0, 0.0]) == pytest.approx(5.0)


def test_ball_norm_radial_blowup():
    V = ca.MatricialTangent.from_flat(np.array([1.0, 0.0]), 2, 1)
    z = [0.6, 0.0]
    # V parallel to z: the P-block scaling 1/(1-|z|^2) applies
    assert ca.cara_norm_ball(V, z) == pytest.approx(1.0 / (1.0 - 0.36))
    W = ca.MatricialTangent.from_flat(np.array([0.0, 1.0]), 2, 1)
    # V orthogonal to z: only the sqrt factor
    assert ca.cara_norm_ball(W, z) == pytest.approx(1.0 / np.sqrt(1.0 - 0.36))


def test_ball_norm_rejects_outside_point():
    V = ca.MatricialTangent.from_flat(np.array([1.0]), 1, 1)
    with pytest.raises(PointOutsideBall):
        ca.cara_norm_ball(V, [1.2])


def test_polydisc_norm_blockwise_max():
    V = ca.MatricialTangent([[1.0], [2.0]])
    assert ca.cara_norm_polydisc(V, [0.0, 0.0]) == pytest.approx(2.0)
    assert ca.cara_norm_polydisc(V, [0.0, 0.5]) == pytest.approx(2.0 / 0.75)
    with pytest.raises(PointOutsidePolydisc):
        ca.cara_norm_polydisc(V, [0.0, 1.0])


def test_disc_norms_coincide_for_m1():
    V = ca.MatricialTangent.from_flat(np.array([1.0 + 1.0j]), 1, 1)
    for z in [0.0, 0.3, 0.7]:
        assert ca.cara_norm_ball(V, [z]) == pytest.approx(
            ca.cara_norm_polydisc(V, [z]))


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


def test_planar_ci_disc_control():
    # Bergman dd-bar log K = 2, Szego term 4 pi^2 (1/2pi)^2 = 1: slack 1
    berg = kc.SeriesKernel.disc_rule(lambda n: (n + 1.0) / np.pi, 200)
    verdict = ca.planar_ci_check(berg, 0.0, ca.szego_disc(0, 0).real)
    assert verdict.slack_with4pi2 == pytest.approx(1.0)
    assert verdict.passed


def test_planar_ci_hardy_equality():
    k = kc.SeriesKernel.disc(np.ones(201))
    verdict = ca.planar_ci_check(k, 0.3, abs(ca.szego_disc(0.3, 0.3)))
    assert abs(verdict.slack_with4pi2) < 1e-10


# ---------------------------------------------------------------------------
# the generalized check's supremum over tangent vectors is exact

CARA = {"ball": ca.cara_norm_ball, "polydisc": ca.cara_norm_polydisc}


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
    V = ca.MatricialTangent.from_flat(v, len(w), n)
    return float(np.vdot(v, K @ v).real) + CARA[domain](V, w) ** 2


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
    with pytest.raises(PointOutsideBall):
        ca.generalized_ci_check(-np.eye(2), "ball", [0.8, 0.7])
    with pytest.raises(PointOutsidePolydisc):
        ca.generalized_ci_check(-np.eye(2), "polydisc", [0.2, 1.0])
