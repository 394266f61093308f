"""Annulus kernels, extremal problem, strict CI, characters."""

import warnings

import mpmath
import numpy as np
import pytest

from rkhs_lab import annulus as an
from rkhs_lab import kernels as kc
from rkhs_lab.curvature import ci_slack, curvature_scalar
from rkhs_lab.errors import (ConfigError, DegenerateJet, NonFiniteValue, NotLogHarmonic,
                             QuadratureFailure, TruncationTailTooLarge)
from tests.conftest import (counting, curvature_mp, dual_oracle, dual_sums_mp,
                            laurent_sums_mp, window_of)


@pytest.fixture(scope="module")
def spec():
    return an.AnnulusSpec(r=0.5)


@pytest.mark.parametrize("fields, name", [({"r": 1.5}, "'r'"), ({"r": 0.0}, "'r'"),
                                          ({"r": 0.5, "N": an.MIN_N - 1}, "'N'"),
                                          ({"r": 0.5, "N": 60.5}, "'N'"),
                                          ({"r": 0.5, "N": True}, "'N'")])
def test_annulus_spec_names_offending_field(fields, name):
    with pytest.raises(ConfigError) as exc:
        an.AnnulusSpec(**fields)
    assert name in str(exc.value)


def test_szego_degenerates_to_disc():
    thin = an.AnnulusSpec(r=1e-6)
    val = kc.diagonal_values(an.szego_kernel(thin), 0.5)
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


def test_bergman_norms_match_quadrature():
    # the shared adaptive rule for a tabulated rho^b against the closed form,
    # over the whole 401-term window
    for r in (0.3, 0.5, 0.7):
        spec = an.AnnulusSpec(r=r)
        for b in range(-2, 4):
            prof = an.weighted_bergman_kernel(
                spec, an.RadialWeight.from_profile(lambda rho: rho ** b))
            closed = an.weighted_bergman_kernel(spec, an.RadialWeight.power_law(b))
            assert np.array_equal(prof.ns, closed.ns)
            assert prof.ns.size == 2 * spec.N + 1
            assert np.max(np.abs(prof.coeffs / closed.coeffs - 1.0)) <= 1e-12


def test_profile_norms_match_mpmath_at_a_kink():
    # a profile with a kink inside the annulus, against 30-digit mpmath
    # quadrature split at the breakpoint
    spec = an.AnnulusSpec(r=0.5)
    kern = an.weighted_bergman_kernel(
        spec, an.RadialWeight.from_profile(lambda rho: abs(rho - 0.6) + 0.1))
    with mpmath.workdps(30):
        kink = mpmath.mpf("0.6")
        for n in (-50, -3, 0, 7, 120):
            exact = 2 * mpmath.pi * mpmath.quad(
                lambda rho: rho ** (2 * n + 1) * (abs(rho - kink) + mpmath.mpf("0.1")),
                [spec.r, kink, 1])
            coeff = kern.coeffs[kern.ns == n][0]
            assert abs(coeff * float(exact) - 1.0) <= 1e-12


@pytest.mark.parametrize("b", [-2, 0, 3, 50])
def test_thin_annulus_profile_matches_power_law(b):
    # at r = 0.05 the norms of negative n leave the double range; both builds
    # keep every norm up to the double limit, so they trim the same window,
    # and their values are both the window's
    spec = an.AnnulusSpec(r=0.05)
    prof = an.weighted_bergman_kernel(spec, an.RadialWeight.from_profile(lambda rho: rho ** b))
    closed = window_of(an.weighted_bergman_kernel(spec, an.RadialWeight.power_law(b)))
    assert np.array_equal(prof.ns, closed.ns)
    assert prof.ns[-1] == spec.N
    assert np.max(np.abs(prof.coeffs / closed.coeffs - 1.0)) <= 1e-12
    for z in (0.3, 0.5, 0.8):
        assert abs(kc.eval_kernel(prof, z, z) / kc.eval_kernel(closed, z, z) - 1.0) <= 1e-12


@pytest.mark.parametrize("profile", [lambda rho: rho - 0.6, lambda rho: float("nan")],
                         ids=["negative", "nan"])
def test_profile_without_positive_norms_is_refused(profile):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailure) as exc:
            an.weighted_bergman_kernel(an.AnnulusSpec(r=0.5), an.RadialWeight.from_profile(profile))
    assert "for n = -200 " in str(exc.value)


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


def hardy_slack(spec, w):
    """The curvature-inequality slack of the Szego (Hardy) kernel itself."""
    szego = an.szego_kernel(spec)
    return ci_slack(szego, w, kc.diagonal_values(szego, w))[2]


def test_hardy_kernel_strict_slack(spec):
    grid = np.linspace(0.55, 0.9, 20)
    assert min(hardy_slack(spec, complex(x)) for x in grid) > 0.0


def test_character_values(spec):
    for b, gamma in [(0.0, 1.0), (1.0, -1.0), (2.0, 1.0), (-1.0, -1.0)]:
        char = an.character_of_weight(spec, an.RadialWeight.power_law(b))
        assert abs(char.gamma - gamma) < 1e-10
        assert abs(abs(char.period) - np.pi * abs(b)) < 1e-10


def test_periods_in_closed_form():
    # c = pi b for rho^b, to the last bit
    for r in (0.1, 0.5, 0.9):
        spec = an.AnnulusSpec(r=r)
        for b in (-3.0, -0.5, 0.0, 1.0, 2.0, 7.25):
            c = an.character_of_weight(spec, an.RadialWeight.power_law(b)).period
            assert abs(c - np.pi * b) <= 4e-16 * abs(np.pi * b)


def test_character_requires_log_harmonic(spec):
    with pytest.raises(NotLogHarmonic):
        an.character_of_weight(spec, an.RadialWeight.from_profile(np.exp))


def test_a_weight_is_its_profile_or_a_power_law(spec):
    h = np.square
    with pytest.raises(ConfigError, match="'b'"):
        an.RadialWeight(b=2, profile=h)
    assert an.RadialWeight(profile=h) == an.RadialWeight.from_profile(h)
    assert an.RadialWeight(b=2.0) == an.RadialWeight.power_law(2.0)
    assert an.RadialWeight(b=2.0)(0.5) == an.RadialWeight.from_profile(h)(0.5) == 0.25
    # a profile is not log-harmonic even where it equals a power law
    with pytest.raises(NotLogHarmonic):
        an.character_of_weight(spec, an.RadialWeight.from_profile(h))


def test_character_is_its_period():
    char = an.Character(np.pi)
    assert abs(char.gamma + 1.0) < 1e-15
    assert char.matches(an.Character(3.0 * np.pi))
    assert not char.matches(an.Character(0.0))


def test_ci_slack_refuses_an_annulus_kernel_without_its_szego_value(spec):
    weight = an.RadialWeight.power_law(1.0)
    kernel = an.weighted_bergman_kernel(spec, weight)
    for k in (kernel, kc.normalize_at(kernel, 0.7)):
        with pytest.raises(ConfigError, match="'szego_value'"):
            ci_slack(k, 0.7)
    szego = kc.diagonal_values(an.szego_kernel(spec), 0.7)
    assert ci_slack(kernel, 0.7, szego)[2] == an.strict_ci_check(spec, weight, 0.7, kernel)


def test_the_slack_of_a_grid_is_the_slack_at_each_point(spec):
    weight = an.RadialWeight.power_law(1.0)
    kernel = an.weighted_bergman_kernel(spec, weight)
    points = np.linspace(0.55, 0.9, 30) * np.exp(1j * np.linspace(0.0, 3.0, 30))
    scale = 1e-14 * np.abs(np.array([curvature_scalar(kernel, w) for w in points])).max()
    grid = an.strict_ci_check(spec, weight, points, kernel)
    assert grid.shape == (30,)
    loop = [an.strict_ci_check(spec, weight, w, kernel) for w in points]
    assert np.abs(grid - loop).max() <= scale
    hardy = hardy_slack(spec, list(points))
    assert np.abs(hardy - [hardy_slack(spec, w) for w in points]).max() <= scale
    # one point stays a float
    assert type(an.strict_ci_check(spec, weight, points[0], kernel)) is float
    # the disc bound, elementwise, and to the bit
    disc = kc.SeriesKernel.disc(np.arange(1.0, 202.0))
    rows = np.array(ci_slack(disc, points.reshape(5, 6))).reshape(3, -1).T
    loop = np.array([ci_slack(disc, w) for w in points])
    assert np.allclose(rows, loop, rtol=1e-14, atol=0.0)
    assert np.array_equal(rows[:, 1], loop[:, 1])


def test_strict_ci_builds_the_weighted_bergman_kernel_without_a_prebuilt_one(spec):
    weight = an.RadialWeight.power_law(1.0)
    kernel = an.weighted_bergman_kernel(spec, weight)
    points = np.array([0.56, 0.7j, -0.6 + 0.5j])
    built = an.strict_ci_check(spec, weight, points)
    assert np.array_equal(built, an.strict_ci_check(spec, weight, points, kernel=kernel))
    assert an.strict_ci_check(spec, weight, 0.7) == an.strict_ci_check(spec, weight, 0.7, kernel)


def test_strict_ci_refuses_a_kernel_of_another_annulus(spec):
    # the r = 0.3 kernel under the r = 0.5 spec would pair its curvature with
    # the Szego value of r = 0.5, a slack of 0.298 at 0.7 against its own 5.408
    weight = an.RadialWeight.power_law(1.0)
    other = an.AnnulusSpec(r=0.3)
    kernel = an.weighted_bergman_kernel(other, weight)
    for k in (kernel, kc.SeriesKernel.disc(np.ones(201))):
        with pytest.raises(ConfigError, match="'kernel'"):
            an.strict_ci_check(spec, weight, 0.7, k)
    assert an.strict_ci_check(other, weight, 0.7, kernel) == pytest.approx(5.408037, rel=1e-6)


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


@pytest.mark.parametrize("grid_points", [0, -1, 2.5, True, "20"])
def test_a_curvature_grid_refuses_a_point_count_that_is_not_a_positive_integer(spec,
                                                                              grid_points):
    kernel = an.weighted_bergman_kernel(spec, an.RadialWeight.power_law(1.0))
    with pytest.raises(ConfigError, match="'grid_points'"):
        curvature_scalar(kernel, an._band(spec, grid_points))
    with pytest.raises(ConfigError, match="'grid_points'"):
        an.character_equivalence(spec, 0.0, 2.0, grid_points)


@pytest.mark.parametrize("r", [0.86, 0.87, 0.88, 0.95])
def test_a_curvature_grid_refuses_an_annulus_without_a_band(monkeypatch, r):
    # the band [r + 0.05, 0.9] is empty for r > 0.85: no grid runs backwards,
    # and no radius that the grid chose itself is refused as outside the domain
    thin = an.AnnulusSpec(r=r)
    kernel = an.weighted_bergman_kernel(thin, an.RadialWeight.power_law(1.0))
    with pytest.raises(ConfigError, match="'r'"):
        curvature_scalar(kernel, an._band(thin, 20))
    builds = counting(monkeypatch, an, "weighted_bergman_kernel")
    with pytest.raises(ConfigError, match="'r'"):
        an.character_equivalence(thin, 0.0, 2.0)
    assert builds == []


def test_the_widest_annulus_with_a_band_has_one_radius():
    edge = an.AnnulusSpec(r=0.85)
    kernel = an.weighted_bergman_kernel(edge, an.RadialWeight.power_law(1.0))
    grid = curvature_scalar(kernel, an._band(edge, 3))
    assert grid[0] == grid[1] == grid[2] == pytest.approx(curvature_scalar(kernel, 0.9),
                                                          rel=1e-14)


def test_character_equivalence_is_two_blocked_products(monkeypatch, spec):
    products = counting(monkeypatch, kc, "_grid_sums")
    sums = counting(monkeypatch, kc, "_diagonal_sums")
    verdict = an.character_equivalence(spec, 1.0, 3.0, grid_points=100)
    assert [radii.size for _, radii, _ in products] == [100, 100]
    assert sums == []
    # each grid is the per-radius curvature to the last bits
    radii = np.linspace(0.55, 0.9, 100)
    grids = []
    for b in (1.0, 3.0):
        kernel = an.weighted_bergman_kernel(spec, an.RadialWeight(b))
        grids.append(curvature_scalar(kernel, an._band(spec, 100)))
        loop = np.array([curvature_scalar(kernel, x) for x in radii])
        assert np.abs(grids[-1] / loop - 1.0).max() <= 1e-14
    assert verdict.max_curvature_diff == np.abs(grids[0] - grids[1]).max()


def test_extremal_value_disc_hardy_control():
    # inf |f|^2 with f(0)=0, f'(0)=1 in (H^2, ds): f = z, value 2 pi
    hardy = kc.SeriesKernel.disc(np.full(201, 1.0 / (2.0 * np.pi)))
    assert an.extremal_problem_value(hardy, 0.0) == pytest.approx(2.0 * np.pi)
    assert an.extremal_problem_ls(hardy, 0.0) == pytest.approx(2.0 * np.pi)


def test_extremal_value_reads_one_set_of_diagonal_sums(monkeypatch, spec):
    kern = an.weighted_bergman_kernel(spec, an.RadialWeight.power_law(1.0))
    w = 0.7 - 0.1j
    expected = 1.0 / (kc.eval_kernel(kern, w, w).real * -curvature_scalar(kern, w))
    sums = counting(monkeypatch, kc, "_diagonal_sums")
    assert an.extremal_problem_value(kern, w) == pytest.approx(expected, rel=1e-14)
    assert [order for _, _, order in sums] == [1]


def refusal(exc_type, fn, *args):
    with pytest.raises(exc_type) as exc:
        fn(*args)
    return str(exc.value)


def test_an_extremal_value_of_positive_curvature_is_degenerate():
    # dd-bar log K < 0 at 0.5: the extremal problem has no finite value
    kernel = kc.SeriesKernel(0, [1.0, -0.5] + [0.0] * 199, signed=True)
    with pytest.raises(DegenerateJet, match="dd-bar log K = "):
        an.extremal_problem_value(kernel, 0.5)


def test_extremal_value_keeps_the_refusals_of_its_parts():
    # the tail test of eval_kernel on K(w, w)
    short = kc.SeriesKernel.disc(np.ones(20))
    assert (refusal(TruncationTailTooLarge, an.extremal_problem_value, short, 0.85)
            == refusal(TruncationTailTooLarge, kc.eval_kernel, short, 0.85, 0.85))
    # K(w, w) <= 0, and dd-bar log K <= 0 where the curvature is positive
    negative = kc.SeriesKernel(0, [-1.0, 0.0, 0.0], signed=True)
    assert (refusal(DegenerateJet, an.extremal_problem_value, negative, 0)
            == "K(w, w) = -1.0 at w = 0")
    positive = kc.SeriesKernel(0, [1.0, -0.5] + [0.0] * 199, signed=True)
    assert (refusal(DegenerateJet, an.extremal_problem_value, positive, 0.5)
            == f"dd-bar log K = {-curvature_scalar(positive, 0.5)} at w = 0.5")
    # the curvature's own refusal: S11 / S00 = 1 / 1e-310 at w = 0
    tiny = kc.SeriesKernel.disc([1e-310, 1.0, 1.0])
    assert (refusal(NonFiniteValue, an.extremal_problem_value, tiny, 0)
            == refusal(NonFiniteValue, curvature_scalar, tiny, 0))


@pytest.mark.parametrize("coeffs", [[1.0, 5e-324], [0.4, 5e-324], [3.0, 1e-323]])
def test_an_extremal_value_that_overflows_is_refused_naming_w(coeffs):
    # K(w, w) dd-bar log K is subnormal at 0, so its reciprocal is inf
    with pytest.raises(NonFiniteValue, match=r"at w = 0 is not finite"):
        an.extremal_problem_value(kc.SeriesKernel.disc(coeffs), 0)


def test_szego_kernel_is_built_once_per_spec(monkeypatch):
    spec = an.AnnulusSpec(r=0.45, N=120)
    fresh = an.szego_kernel(spec)
    expected = [float(-curvature_scalar(fresh, complex(x))
                      - 4.0 * np.pi ** 2 * kc.eval_kernel(fresh, x, x).real ** 2)
                for x in (0.6, 0.75)]
    weight = an.RadialWeight.power_law(1.0)
    kern = an.weighted_bergman_kernel(spec, weight)
    an.strict_ci_check(spec, weight, 0.6, kernel=kern)  # fills the shared kernel
    builds = []
    real = an.szego_kernel
    monkeypatch.setattr(an, "szego_kernel", lambda s: builds.append(s) or real(s))
    for x in (0.6, 0.75):
        an.strict_ci_check(spec, weight, complex(x), kernel=kern)
        an.strict_ci_check(spec, weight, [complex(x)], kernel=kern)
    assert builds == []
    # the slack of the Szego kernel through ci_slack and its diagonal values
    assert [hardy_slack(spec, complex(x)) for x in (0.6, 0.75)] == expected
    # the public builder still returns a new kernel on every call
    assert an.szego_kernel(spec) is not an.szego_kernel(spec)


# ---------------------------------------------------------------------------
# the dual form of the diagonal against its exact 40-digit oracle


@pytest.mark.parametrize("r, b, rho", [(0.3, 0.0, 0.55), (0.5, 1.0, 0.7), (0.5, -2.0, 0.62),
                                       (0.7, 2.5, 0.85)])
@pytest.mark.parametrize("szego", [False, True], ids=["bergman", "szego"])
def test_the_dual_oracle_is_the_laurent_series(r, b, rho, szego):
    # at interior points, where 1,201 Laurent terms leave less than 1e-60 out
    dual = dual_sums_mp(r, b, rho, 2, szego=szego)
    series = laurent_sums_mp(r, b, rho, 2, szego=szego)
    for x, y in zip(dual, series):
        assert abs(x - y) <= mpmath.mpf("1e-35") * abs(y)


@pytest.mark.parametrize("r, gap", [(0.3, 5.377e-5), (0.5, 4.245e-10), (0.55, 5.508e-12),
                                    (0.6, 2.503e-14), (0.7, 2.454e-21)])
def test_the_b_and_b_plus_1_curvature_gap_is_of_order_q_tilde(r, gap):
    # over the 20-radius band of character_equivalence: the characters of
    # rho^0 and rho^1 differ, and their curvatures by this much at most
    radii = an._band(an.AnnulusSpec(r=r), 20)
    exact = max(abs(curvature_mp(dual_sums_mp(r, 0.0, x, 1))
                    - curvature_mp(dual_sums_mp(r, 1.0, x, 1))) for x in radii)
    assert float(exact) == pytest.approx(gap, rel=1e-3)


def _dual_kernels(r):
    spec = an.AnnulusSpec(r=r)
    return [an.szego_kernel(spec)] + [an.weighted_bergman_kernel(spec, an.RadialWeight.power_law(b))
                                      for b in (-2.0, 0.5, 1.0, 2.5)]


@pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_the_dual_diagonal_matches_the_40_digit_oracle(r):
    # within 0.03 of both circles: every S_pq within 1e-13 of the largest
    # |S_pq| of its order, at one point and on a grid, and K(w, w), the
    # curvature and the extremal value within 1e-13 relative
    radii = [r + kc.BOUNDARY_MARGIN + 1e-9, r + 0.03, 0.97, 1.0 - kc.BOUNDARY_MARGIN - 1e-9]
    for kernel in _dual_kernels(r):
        grids = [kc._grid_sums(kernel, radii, order) for order in range(3)]
        for i, x in enumerate(radii):
            exact = dual_oracle(kernel, x, 2)
            for order in range(3):
                count = (order + 1) * (order + 2) // 2
                largest = float(max(abs(v) for v in exact[:count]))
                for got in (kc._diagonal_sums(kernel, x, order), grids[order][i]):
                    for value, want in zip(got, exact):
                        assert abs(value - want) <= 1e-13 * largest, (kernel.dual, x, order)
            w = x * np.exp(0.7j)
            assert abs(kc.eval_kernel(kernel, w, w).real - exact[0]) <= 1e-13 * exact[0]
            curvature = curvature_mp(exact)
            for got in (curvature_scalar(kernel, w), curvature_scalar(kernel, [w])[0]):
                assert abs(got - curvature) <= 1e-13 * abs(curvature), (kernel.dual, x)
            value = -1 / (exact[0] * curvature)
            assert abs(an.extremal_problem_value(kernel, w) - value) <= 1e-13 * value


@pytest.mark.parametrize("r", [0.3, 0.9])
def test_the_dual_diagonal_keeps_its_digits_at_the_inner_edge(r):
    # the sine's argument near the inner circle comes from ln(|w| / r); taken
    # from pi - u it errs about ten times more here (1.6e-14 at r = 0.3)
    rho = r + kc.BOUNDARY_MARGIN + 1e-12
    spec = an.AnnulusSpec(r=r)
    for kernel in (an.szego_kernel(spec),
                   an.weighted_bergman_kernel(spec, an.RadialWeight.power_law(1.0))):
        exact = dual_oracle(kernel, rho, 2)
        for order in range(3):
            largest = float(max(abs(v) for v in exact[:(order + 1) * (order + 2) // 2]))
            for value, want in zip(kc._diagonal_sums(kernel, rho, order), exact):
                assert abs(value - want) <= 4e-15 * largest, (kernel.dual, order)


def test_the_dual_diagonal_does_not_depend_on_the_window():
    # n_max sets the window of two-point sums only
    spec, long = an.AnnulusSpec(r=0.5, N=50), an.AnnulusSpec(r=0.5, N=400)
    weight = an.RadialWeight.power_law(1.0)
    short_kernel = an.weighted_bergman_kernel(spec, weight)
    long_kernel = an.weighted_bergman_kernel(long, weight)
    for w in (0.53, 0.7j, -0.98):
        assert curvature_scalar(short_kernel, w) == curvature_scalar(long_kernel, w)
        assert kc.eval_kernel(short_kernel, w, w) == kc.eval_kernel(long_kernel, w, w)
        assert (kc.diagonal_values(an.szego_kernel(spec), w)
                == kc.diagonal_values(an.szego_kernel(long), w))


def test_profile_weights_and_hand_built_windows_keep_the_window():
    spec = an.AnnulusSpec(r=0.5)
    profile = an.weighted_bergman_kernel(spec, an.RadialWeight.from_profile(lambda rho: rho))
    power = an.weighted_bergman_kernel(spec, an.RadialWeight.power_law(1.0))
    assert profile.dual is None and window_of(power).dual is None
    assert power.dual == (2, 1.0) and an.szego_kernel(spec).dual == (1, -1.0)
    # at 0.98 the window's tail is refused; the dual value has none
    with pytest.raises(TruncationTailTooLarge):
        kc.eval_kernel(profile, 0.98, 0.98)
    with pytest.raises(TruncationTailTooLarge):
        kc.eval_kernel(window_of(power), 0.98, 0.98)
    assert kc.eval_kernel(power, 0.98, 0.98).real == pytest.approx(
        float(dual_oracle(power, 0.98, 0)[0]), rel=1e-13)
    # off the diagonal the window and its tail test still serve
    with pytest.raises(TruncationTailTooLarge):
        kc.eval_kernel(power, 0.98, 0.97)


@pytest.mark.parametrize("dual", [(3, 1.0), (1, 0.0), (2, float("nan")), (2,), (2, "1"),
                                  [2, 1.0], 2])
def test_a_dual_form_is_refused_unless_it_is_one_of_the_two(dual):
    with pytest.raises(ConfigError, match="'dual'"):
        kc.SeriesKernel(-2, [1.0] * 5, 0.5, dual=dual)
    with pytest.raises(ConfigError, match="'dual'"):
        kc.SeriesKernel(0, [1.0], dual=(2, 1.0))  # on the disc
