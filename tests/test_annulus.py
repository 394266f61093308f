"""Annulus kernels, extremal problem, strict CI, characters, period matrix."""

import numpy as np
import pytest
from scipy import integrate

from rkhs_lab import annulus as an
from rkhs_lab import kernels as kc
from rkhs_lab.curvature import curvature_scalar
from rkhs_lab.errors import NotLogHarmonic


@pytest.fixture(scope="module")
def spec():
    return an.AnnulusSpec(r=0.5)


def test_szego_degenerates_to_disc():
    thin = an.AnnulusSpec(r=1e-6)
    val = an.szego_annulus(thin, 0.5, 0.5).real
    disc = 1.0 / (2.0 * np.pi * (1.0 - 0.25))
    assert val == pytest.approx(disc, rel=1e-4)


def test_szego_norms_match_boundary_quadrature(spec):
    # |z^n|^2 over both boundary circles with arc length: 2 pi (1 + r^(2n+1))
    for n in (-2, 0, 3):
        outer = 2.0 * np.pi  # |z| = 1
        inner = 2.0 * np.pi * spec.r * spec.r ** (2 * n)  # |z| = r, ds = r dtheta
        assert outer + inner == pytest.approx(2.0 * np.pi * (1.0 + spec.r ** (2 * n + 1)))
    k = an.szego_kernel(spec)
    z = 0.7
    brute = sum(z ** (2 * n) / (2.0 * np.pi * (1.0 + spec.r ** (2 * n + 1)))
                for n in range(-spec.N, spec.N + 1))
    assert kc.eval_kernel(k, z, z).real == pytest.approx(brute, rel=1e-12)


def test_szego_hermitian_symmetry(spec):
    k = an.szego_kernel(spec)
    z, w = 0.6 + 0.1j, -0.55 + 0.3j
    assert kc.eval_kernel(k, z, w) == pytest.approx(
        np.conjugate(kc.eval_kernel(k, w, z)), abs=1e-14)


def test_bergman_norm_closed_forms(spec):
    assert an.monomial_norm_sq(spec, an.RadialWeight.power_law(0.0), 0) == \
        pytest.approx(np.pi * (1.0 - 0.25))
    assert an.monomial_norm_sq(spec, an.RadialWeight.power_law(2.0), 0) == \
        pytest.approx(2.0 * np.pi * (1.0 - 0.5 ** 4) / 4.0)


def test_bergman_norms_match_quadrature(spec):
    # adaptive quadrature of the tabulated profile against the closed form
    w_prof = an.RadialWeight.from_profile(lambda rho: rho ** 2)
    w_pow = an.RadialWeight.power_law(2.0)
    for n in (-3, -1, 0, 2, 7):
        assert an.monomial_norm_sq(spec, w_prof, n) == pytest.approx(
            an.monomial_norm_sq(spec, w_pow, n), rel=1e-10)


def test_bergman_disc_limit():
    thin = an.AnnulusSpec(r=1e-8)
    k = an.weighted_bergman_kernel(thin, an.RadialWeight.power_law(0.0))
    ns = k.ns
    pos = k.coeffs[ns >= 0]
    expected = (np.arange(pos.size) + 1.0) / np.pi
    assert np.allclose(pos[:20], expected[:20], rtol=1e-6)


def test_extremal_closed_form_vs_ls(spec):
    for b in (-1.0, 0.0, 1.0, 2.0):
        kern = an.weighted_bergman_kernel(spec, an.RadialWeight.power_law(b))
        for w in (0.6, 0.75, -0.7):
            closed = an.extremal_problem_value(kern, w)
            ls = an.extremal_problem_ls(kern, w)
            assert closed == pytest.approx(ls, rel=1e-10)


def test_strict_ci_positive_for_weighted_bergman(spec):
    grid = np.linspace(0.55, 0.9, 20)
    for b in (-1.0, 0.0, 1.0, 2.0):
        weight = an.RadialWeight.power_law(b)
        kern = an.weighted_bergman_kernel(spec, weight)
        slacks = [an.strict_ci_check(spec, weight, complex(x), kernel=kern)
                  for x in grid]
        assert min(slacks) > 0.0


def test_hardy_kernel_strict_slack(spec):
    grid = np.linspace(0.55, 0.9, 20)
    assert min(an.hardy_ci_slack(spec, complex(x)) for x in grid) > 0.0


def test_character_values(spec):
    for b, gamma in [(0.0, 1.0), (1.0, -1.0), (2.0, 1.0), (-1.0, -1.0)]:
        char = an.character_of_weight(spec, an.RadialWeight.power_law(b))
        assert abs(char.gammas[0] - gamma) < 1e-10
        assert abs(abs(char.periods[0]) - np.pi * abs(b)) < 1e-10


def test_periods_in_closed_form():
    # c = pi b for rho^b, and the period matrix 2 pi / |log r|, to the last bit
    for r in (0.1, 0.5, 0.9):
        spec = an.AnnulusSpec(r=r)
        for b in (-3.0, -0.5, 0.0, 1.0, 2.0, 7.25):
            c = an.character_of_weight(spec, an.RadialWeight.power_law(b)).periods[0]
            assert abs(c - np.pi * b) <= 4e-16 * abs(np.pi * b)
        p11 = an.period_matrix(spec)[0, 0]
        exact = 2.0 * np.pi / abs(np.log(r))
        assert abs(p11 - exact) <= 4e-16 * exact


def test_character_requires_log_harmonic(spec):
    with pytest.raises(NotLogHarmonic):
        an.character_of_weight(spec, an.RadialWeight.from_profile(np.exp))


def test_character_periodicity_b_plus_two(spec):
    for b in (-2.0, -0.5, 0.0, 1.0, 1.5):
        g1 = an.character_of_weight(spec, an.RadialWeight.power_law(b))
        g2 = an.character_of_weight(spec, an.RadialWeight.power_law(b + 2.0))
        assert g1.matches(g2)


def test_kernel_shift_identity_b_plus_two(spec):
    # K_(b+2)(z, w) = K_b(z, w) / (z wbar): coefficient windows shift by one
    k0 = an.weighted_bergman_kernel(spec, an.RadialWeight.power_law(0.0))
    k2 = an.weighted_bergman_kernel(spec, an.RadialWeight.power_law(2.0))
    # a_n(b+2) = a_(n+1)(b) on the overlap
    assert np.allclose(k2.coeffs[:-1], k0.coeffs[1:], rtol=1e-12)


def test_curvature_agrees_for_equivalent_weights(spec):
    verdict = an.character_equivalence(spec, 0.0, 2.0)
    assert verdict.predicted
    assert verdict.measured
    assert verdict.max_curvature_diff < 1e-10


def test_period_matrix_closed_form(spec):
    p = an.period_matrix(spec)
    assert p.shape == (1, 1)
    assert p[0, 0] == pytest.approx(2.0 * np.pi / abs(np.log(spec.r)), abs=1e-8)
    for r in (0.2, 0.7, 0.9):
        assert an.period_matrix(an.AnnulusSpec(r=r))[0, 0] > 0.0


def test_extremal_value_disc_hardy_control():
    # inf |f|^2 with f(0)=0, f'(0)=1 in (H^2, ds): f = z, value 2 pi
    hardy = kc.SeriesKernel.disc(np.full(201, 1.0 / (2.0 * np.pi)))
    assert an.extremal_problem_value(hardy, 0.0) == pytest.approx(2.0 * np.pi)
    assert an.extremal_problem_ls(hardy, 0.0) == pytest.approx(2.0 * np.pi)


def test_szego_kernel_is_built_once_per_spec(monkeypatch):
    spec = an.AnnulusSpec(r=0.45, N=120)
    fresh = an.szego_kernel(spec)
    expected = [float(-curvature_scalar(fresh, complex(x))
                      - 4.0 * np.pi ** 2 * kc.eval_kernel(fresh, x, x).real ** 2)
                for x in (0.6, 0.75)]
    an.szego_annulus(spec, 0.6, 0.6)  # fills the shared kernel
    builds = []
    real = an.szego_kernel
    monkeypatch.setattr(an, "szego_kernel", lambda s: builds.append(s) or real(s))
    weight = an.RadialWeight.power_law(1.0)
    kern = an.weighted_bergman_kernel(spec, weight)
    for x in (0.6, 0.75):
        an.strict_ci_check(spec, weight, complex(x), kernel=kern)
    assert [an.hardy_ci_slack(spec, complex(x)) for x in (0.6, 0.75)] == expected
    assert builds == []
    # the public builder still returns a new kernel on every call
    assert an.szego_kernel(spec) is not an.szego_kernel(spec)
