"""Series evaluation, jets, tilde kernels, normalization, Mobius pullbacks."""

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rkhs_lab import annulus as an
from rkhs_lab import kernels as kc
from rkhs_lab.curvature import curvature_scalar
from rkhs_lab.errors import (ConfigError, KernelVanishesNearCenter, PointOutsideDomain,
                             TruncationTailTooLarge, UnsupportedJetOrder)
from rkhs_lab.positivity import contraction_check, psd_check, sample_cloud


def geometric(n_max=200):
    return kc.SeriesKernel.disc(np.ones(n_max + 1))


def test_eval_matches_closed_form_geometric():
    k = geometric()
    for z, w in [(0.2, 0.5), (0.3 + 0.4j, -0.1 + 0.2j), (0.0, 0.7)]:
        exact = 1.0 / (1.0 - z * np.conjugate(w))
        assert abs(kc.eval_kernel(k, z, w) - exact) < 1e-12 * abs(exact)


def test_eval_is_hermitian():
    k = kc.SeriesKernel.disc(np.linspace(1.0, 3.0, 80))
    z, w = 0.3 + 0.2j, -0.4 + 0.1j
    assert kc.eval_kernel(k, z, w) == pytest.approx(
        np.conjugate(kc.eval_kernel(k, w, z)), abs=1e-14)


def test_point_outside_disc_rejected():
    with pytest.raises(PointOutsideDomain):
        kc.eval_kernel(geometric(), 0.999, 0.2)


def test_tail_bound_guards_truncation():
    # 20 coefficients cannot represent the kernel at |z| = 0.9
    short = kc.SeriesKernel.disc(np.ones(20))
    with pytest.raises(TruncationTailTooLarge):
        kc.eval_kernel(short, 0.9, 0.9)


def test_deriv2_matches_analytic_derivatives():
    # K = 1/(1-z wbar): d_z^p dbar_w^q K at (z, w) = known rational functions
    k = geometric()
    z, w = 0.25 + 0.1j, 0.4 - 0.2j
    u = 1.0 - z * np.conjugate(w)
    assert abs(kc.deriv2(k, z, w, 0, 0) - 1.0 / u) < 1e-12
    assert abs(kc.deriv2(k, z, w, 1, 0) - np.conjugate(w) / u ** 2) < 1e-12
    assert abs(kc.deriv2(k, z, w, 0, 1) - z / u ** 2) < 1e-12
    expected11 = 1.0 / u ** 2 + 2.0 * z * np.conjugate(w) / u ** 3
    assert abs(kc.deriv2(k, z, w, 1, 1) - expected11) < 1e-12


def test_jet_hermitian_on_diagonal():
    k = kc.SeriesKernel.disc_rule(lambda n: (n + 1.0) ** 1.5, 150)
    J = kc.jet(k, 0.3 + 0.3j, 2)
    assert np.allclose(J, J.conj().T, atol=1e-10 * abs(J[0, 0]))


def test_tilde_kernel_coefficients():
    # b_0 = a_0, b_n = a_n - a_(n-1)
    a = np.array([1.0, 2.0, 2.5, 4.0])
    kt = kc.tilde_kernel(kc.SeriesKernel.disc(a))
    assert np.allclose(kt.coeffs, [1.0, 1.0, 0.5, 1.5])
    assert kt.signed


def test_tilde_kernel_value_identity():
    k = kc.SeriesKernel.disc_rule(lambda n: n + 1.0, 200)
    z, w = 0.3, 0.5 + 0.1j
    lhs = kc.eval_kernel(kc.tilde_kernel(k), z, w)
    rhs = (1.0 - z * np.conjugate(w)) * kc.eval_kernel(k, z, w)
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_normalize_at_sets_slice_to_one():
    k = kc.SeriesKernel.disc_rule(lambda n: n + 1.0, 200)
    zeta = 0.2 + 0.1j
    nk = kc.normalize_at(k, zeta)
    for z in [zeta, zeta + 0.05, zeta - 0.04j]:
        assert abs(kc.eval_kernel(nk, z, zeta) - 1.0) < 1e-10
    assert abs(kc.eval_kernel(nk, zeta, zeta) - 1.0) < 1e-12


def test_normalize_rejects_vanishing_kernel():
    # coefficients alternating in a way that K(z, zeta) ~ 0 near the circle
    evil = kc.ClosedFormKernel(
        block=lambda z, w, order: np.array([[(z - 0.3) * np.conjugate(w - 0.3)]]),
        domain=kc.DISC_DIAGONAL)
    with pytest.raises(KernelVanishesNearCenter):
        kc.normalize_at(evil, 0.3)


def test_mobius_pullback_composes_with_inverse_map():
    # L(z, w) = K(psi(z), psi(w)) with psi = phi_a^-1 = phi_(-a)
    k = geometric()
    a = 0.3 + 0.2j
    pk = kc.mobius_pullback(k, a)
    z, w = 0.1 + 0.1j, -0.2
    psi_z, psi_w = kc.mobius_map(-a, z), kc.mobius_map(-a, w)
    expected = 1.0 / (1.0 - psi_z * np.conjugate(psi_w))
    assert abs(kc.eval_kernel(pk, z, w) - expected) < 1e-12 * abs(expected)


def test_mobius_pullback_derivative_consistent_with_finite_difference():
    k = kc.SeriesKernel.disc_rule(lambda n: n + 1.0, 200)
    pk = kc.mobius_pullback(k, 0.2 - 0.1j)
    z, w, h = 0.15, 0.1 + 0.2j, 1e-5
    fd = (kc.eval_kernel(pk, z + h, w) - kc.eval_kernel(pk, z - h, w)) / (2 * h)
    assert abs(kc.deriv2(pk, z, w, 1, 0) - fd) < 1e-8


Z, WBAR = sympy.symbols("z wbar")


def closed_form_pullback(a):
    """Mobius pullback of 1/(1 - z wbar) at a, with z and wbar independent."""
    return ((1 + np.conjugate(a) * Z) * (1 + a * WBAR)
            / ((1 - abs(a) ** 2) * (1 - Z * WBAR)))


def closed_form_normalized(zeta):
    """1/(1 - z wbar) normalized at zeta."""
    return ((1 - Z * np.conjugate(zeta)) * (1 - zeta * WBAR)
            / ((1 - abs(zeta) ** 2) * (1 - Z * WBAR)))


@pytest.mark.parametrize("transform, closed_form", [
    (kc.mobius_pullback, closed_form_pullback),
    (kc.normalize_at, closed_form_normalized),
], ids=["mobius", "normalize"])
def test_closed_form_block_matches_symbolic_derivatives(transform, closed_form):
    # the whole order-2 block off the diagonal, against sympy derivatives
    center, z, w = 0.3 + 0.2j, 0.1 + 0.2j, -0.25 + 0.1j
    kernel = transform(geometric(), center)
    expr = closed_form(center)
    for p in range(3):
        for q in range(3):
            exact = complex(sympy.diff(expr, Z, p, WBAR, q).subs(
                {Z: z, WBAR: np.conjugate(w)}).evalf(30))
            assert abs(kc.deriv2(kernel, z, w, p, q) - exact) <= 1e-12 * abs(exact), (p, q)


def test_closed_form_refuses_order_above_two():
    pk = kc.mobius_pullback(geometric(), 0.2 - 0.1j)
    with pytest.raises(UnsupportedJetOrder):
        kc.jet(pk, 0.1, 3)
    with pytest.raises(UnsupportedJetOrder):
        kc.deriv2(pk, 0.1, 0.2j, 3, 0)


def test_mobius_pullback_refuses_annulus_kernels():
    with pytest.raises(ConfigError, match="'kind'"):
        kc.mobius_pullback(an.szego_kernel(an.AnnulusSpec(r=0.5)), 0.1)


def test_mobius_map_roundtrip():
    a = 0.4 - 0.3j
    for z in [0.1, 0.2 + 0.5j, -0.6j]:
        assert abs(kc.mobius_map(-a, kc.mobius_map(a, z)) - z) < 1e-13


# ---------------------------------------------------------------------------
# the series table against independent references

#: rounding bound per term where a power of the point is subnormal: such a
#: power carries an absolute error of about one unit of the smallest subnormal
#: 2^-1074, which the term's factor a_n F_p(n) F_q(n) then scales
SUBNORMAL_FLOOR = 4.0 * 2.0 ** -1074


def mp_series(kernel, z, w, order=2):
    """40-digit sums of a_n F_p(n) F_q(n) z^(n-p) conj(w)^(n-q) over the window
    for p, q <= order, with their rounding tolerances: 1e-12 times the sum of
    the moduli of the terms (the value itself may cancel) plus a subnormal
    floor for every term."""
    size = order + 1
    with mpmath.workdps(40):
        zc, wc = mpmath.mpc(z), mpmath.conj(mpmath.mpc(w))
        total = [[mpmath.mpc(0)] * size for _ in range(size)]
        scale = [[mpmath.mpf(0)] * size for _ in range(size)]
        floor = np.zeros((size, size))
        zpow, wpow = {}, {}  # each power of z and conj(w) once, by exponent

        def power(x, table, k):
            if k not in table:
                table[k] = x ** k
            return table[k]

        for n, a in zip(kernel.ns.tolist(), kernel.coeffs.tolist()):
            fall = [1]
            for i in range(order):
                fall.append(fall[-1] * (n - i))
            for p in range(size):
                for q in range(size):
                    if fall[p] * fall[q]:
                        term = (mpmath.mpf(a) * fall[p] * fall[q]
                                * power(zc, zpow, n - p) * power(wc, wpow, n - q))
                        total[p][q] += term
                        scale[p][q] += abs(term)
                        floor[p, q] += SUBNORMAL_FLOOR * (1.0 + abs(a * fall[p] * fall[q]))
        return ([[complex(total[p][q]) for q in range(size)] for p in range(size)],
                1e-12 * np.array(scale, dtype=float) + floor)


@st.composite
def windows_and_points(draw):
    """Positive disc windows with points including 0; signed tilde windows with
    zero coefficients (runs of equal a_n), as the extremality tests feed them
    to the jet; or Laurent windows of the annulus Szego / weighted Bergman
    kernels with points in the admissible band, including thin inner radii
    and steep weights, whose inner coefficients come near the double's
    underflow, and points at the inner edge of the band.  Some windows have the production length: 201 disc terms, or
    N = 200 on the annulus."""
    disc_radii = st.one_of(st.just(0.0), st.floats(0.0, 0.97))
    family = draw(st.sampled_from(["disc", "tilde", "annulus"]))
    long = draw(st.integers(0, 3)) == 0
    if family == "disc":
        size = 201 if long else draw(st.integers(1, 40))
        coeffs = draw(st.lists(st.floats(0.1, 10.0), min_size=size, max_size=size))
        kernel, radii = kc.SeriesKernel.disc(coeffs), disc_radii
    elif family == "tilde":
        runs = draw(st.lists(st.tuples(st.floats(0.1, 10.0), st.integers(1, 8)),
                             min_size=1, max_size=40 if long else 8))
        coeffs = [a for a, length in runs for _ in range(length)]
        if long:
            coeffs = (coeffs * (201 // len(coeffs) + 1))[:201]
        kernel, radii = kc.tilde_kernel(kc.SeriesKernel.disc(coeffs)), disc_radii
    else:
        r = draw(st.one_of(st.floats(0.2, 0.7), st.floats(0.05, 0.2)))
        spec = an.AnnulusSpec(r=r, N=200 if long else 50)
        if draw(st.booleans()):
            kernel = an.szego_kernel(spec)
        else:
            b = draw(st.one_of(st.floats(-2.0, 3.0), st.floats(3.0, 60.0)))
            kernel = an.weighted_bergman_kernel(spec, an.RadialWeight.power_law(b))
        inner = spec.r + kc.BOUNDARY_MARGIN + 1e-3
        radii = st.one_of(st.just(inner), st.floats(inner, 0.97))
    z, w = (draw(radii) * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
            for _ in range(2))
    return kernel, z, w


@settings(max_examples=40, deadline=None)
@given(windows_and_points())
# |w|^2 (or |z|^2) is subnormal: the computed term is one unit of 2^-1074 off,
# which a purely relative 1e-12 bound cannot allow
@example((kc.SeriesKernel.disc([1.0, 1.0, 2.0]), 0j, 2.490850251126296e-157 + 0j))
@example((kc.SeriesKernel.disc([1.0, 1.0, 1.0]),
          1.3458121342557727e-157 + 2.0959782138242404e-157j, 0j))
# a_n ~ 1e-300 at n = -142, where |w|^(2n) alone overflows a double
@example((an.weighted_bergman_kernel(an.AnnulusSpec(r=0.05, N=200),
                                     an.RadialWeight.power_law(50.0)), 0.6j, 0.075 + 0j))
# the same with both points at the inner edge: |z|^n and |w|^n each near 1e160
@example((an.weighted_bergman_kernel(an.AnnulusSpec(r=0.05, N=200),
                                     an.RadialWeight.power_law(50.0)), 0.075 + 0j, 0.075j))
# a real pair of opposite signs: the phase row is (-1)^n
@example((kc.SeriesKernel.bergman(), -0.8 + 0j, 0.8 + 0j))
# a subnormal point, whose |w| has lost bits: w / |w| is 8e-12 off the unit circle
@example((kc.SeriesKernel.disc([1.0, 1.0]), 0j, 1.2022125365e-313 + 1.872335091e-313j))
def test_deriv2_and_jet_match_mpmath(case):
    kernel, z, w = case
    J = kc.jet(kernel, w, 2)
    two_point, two_point_tol = mp_series(kernel, z, w)
    diagonal, diagonal_tol = mp_series(kernel, w, w)
    for p in range(3):
        for q in range(3):
            assert abs(kc.deriv2(kernel, z, w, p, q) - two_point[p][q]) <= two_point_tol[p, q]
            assert abs(J[p, q] - diagonal[p][q]) <= diagonal_tol[p, q]


@pytest.mark.parametrize("kernel", [
    kc.SeriesKernel.bergman(),
    kc.tilde_kernel(kc.SeriesKernel.disc([1.0, 2.0, 2.0, 2.0, 3.5] * 40)),
    an.szego_kernel(an.AnnulusSpec(r=0.3)),
    an.weighted_bergman_kernel(an.AnnulusSpec(r=0.05), an.RadialWeight.power_law(50.0)),
], ids=["bergman", "tilde", "szego", "weighted-bergman"])
def test_real_points_give_exactly_real_values(kernel):
    # with real coefficients, K(z, w) and its derivatives are real at real z, w
    for z, w in [(-0.7, -0.7), (-0.8, 0.8), (0.6, -0.45), (-0.35, -0.9), (0.5, 0.5)]:
        assert kc.eval_kernel(kernel, z, w).imag == 0.0, (z, w)
        for p in range(3):
            for q in range(3):
                assert kc.deriv2(kernel, z, w, p, q).imag == 0.0, (z, w, p, q)
        assert np.all(kc.jet(kernel, w, 2).imag == 0.0), w
    # and so is the matrix over a real cloud, a Gram or two distinct clouds
    pts = np.array([-0.7, -0.8, 0.8, 0.6, -0.45, -0.35, -0.9, 0.5])
    assert np.all(kc.kernel_matrix(kernel, pts, pts).imag == 0.0)
    assert np.all(kc.kernel_matrix(kernel, pts[:3], pts).imag == 0.0)


@settings(max_examples=60, deadline=None)
@given(windows_and_points(), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_series_tail_bound_is_largest_at_the_ends_of_a_range(case, s, t, u):
    # each end's term is convex in rho, so kernel_matrix checks only the
    # smallest and the largest rho of a cloud
    kernel = case[0]
    lo = 0.0 if kernel.inner_radius is None else (kernel.inner_radius + kc.BOUNDARY_MARGIN) ** 2
    hi = (1.0 - kc.BOUNDARY_MARGIN) ** 2
    a, b = sorted((lo + s * (hi - lo), lo + t * (hi - lo)))
    rho = min(max(a + u * (b - a), a), b)
    ends = max(kc._series_tail_bound(kernel, a), kc._series_tail_bound(kernel, b))
    assert kc._series_tail_bound(kernel, rho) <= ends * (1.0 + 1e-12)


def test_kernel_matrix_matches_mpmath_on_an_annulus_cloud():
    kernel = an.weighted_bergman_kernel(an.AnnulusSpec(r=0.3), an.RadialWeight.power_law(1.5))
    rng = np.random.default_rng(7)
    z, w = (rng.uniform(0.33, 0.95, size) * np.exp(2j * np.pi * rng.uniform(0, 1, size))
            for size in (10, 3))
    for zs, ws in ((z, z), (z, w)):
        K = kc.kernel_matrix(kernel, zs, ws)
        with mpmath.workdps(50):
            coeffs = [mpmath.mpf(a) for a in kernel.coeffs.tolist()]
            for i, zi in enumerate(zs):
                for j, wj in enumerate(ws):
                    # sum of a_n x^n, x = z conj(w), and of its moduli, by products along n
                    x = mpmath.mpc(zi) * mpmath.conj(mpmath.mpc(wj))
                    rho = abs(x)
                    power, modulus = x ** kernel.n_min, rho ** kernel.n_min
                    total, scale = mpmath.mpc(0), mpmath.mpf(0)
                    for a in coeffs:
                        total += a * power
                        scale += a * modulus
                        power, modulus = power * x, modulus * rho
                    assert abs(K[i, j] - complex(total)) <= 1e-13 * float(scale), (i, j)


@pytest.mark.parametrize("coeffs", [np.linspace(1.0, 3.0, 201),
                                    np.array([1.0, 0.5] + [0.6] * 100)])
def test_contraction_gram_matches_elementwise_kernel(coeffs):
    k = kc.SeriesKernel.disc(coeffs)
    kt = kc.tilde_kernel(k)
    pts = sample_cloud(radius=0.6)
    G = np.array([[kc.eval_kernel(kt, zi, zj) for zj in pts] for zi in pts])
    norm = np.linalg.norm(G, ord=2)
    assert np.abs(kc.kernel_matrix(kt, pts, pts) - G).max() <= 1e-12 * norm
    res = contraction_check(k, sample_points=pts)
    ref = psd_check(G, tol=1e-10 * max(1.0, norm))
    assert res.info["gram_test"] == ref.passed
    assert abs(res.min_eigenvalue - ref.min_eigenvalue) <= 1e-12 * norm


def test_contraction_gram_refuses_unresolved_or_outside_points():
    short = kc.SeriesKernel.disc(np.linspace(1.0, 2.0, 20))
    with pytest.raises(TruncationTailTooLarge):
        contraction_check(short, sample_points=[0.2, 0.9])
    with pytest.raises(PointOutsideDomain):
        contraction_check(short, sample_points=[0.2, 0.99])


def test_every_series_path_checks_the_domain():
    k = an.szego_kernel(an.AnnulusSpec(r=0.5))
    with pytest.raises(PointOutsideDomain):
        kc.jet(k, 0.51, 1)
    with pytest.raises(PointOutsideDomain):
        kc.deriv2(k, 0.7, 0.3, 1, 1)
    with pytest.raises(PointOutsideDomain):
        kc.mixed_deriv(geometric(), complex(np.nan, 0.0), 1, 1)


def test_series_kernel_arrays_are_private_and_read_only():
    ns, coeffs = np.arange(60), np.linspace(1.0, 2.0, 60)
    k = kc.SeriesKernel(kc.DISC_DIAGONAL, ns, coeffs)
    for arr in (k.ns, k.coeffs):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 5
    w = 0.4 + 0.2j
    before = kc.jet(k, w, 2)
    coeffs[:] = 7.0  # the caller's array, after the kernel was built and used
    ns[:] = 0
    assert np.array_equal(kc.jet(k, w, 2), before)
    assert np.array_equal(k.coeffs, np.linspace(1.0, 2.0, 60))


def test_jet_at_zero_is_exact():
    # J[p, p] = a_p (p!)^2 and the off-diagonal entries vanish exactly
    k = kc.SeriesKernel.disc([2.0, 3.0, 5.0, 7.0])
    J = kc.jet(k, 0.0, 2)
    assert np.array_equal(J, np.diag([2.0, 3.0, 5.0 * 4.0]).astype(complex))


@pytest.mark.parametrize("kernel", [
    kc.SeriesKernel.bergman(),
    kc.mobius_pullback(kc.SeriesKernel.bergman(), 0.2 - 0.1j),
], ids=["series", "closed-form"])
def test_normalize_at_keeps_the_curvature(kernel):
    # normalization multiplies K by |f|^2 with f holomorphic: same curvature
    nk = kc.normalize_at(kernel, 0.3 + 0.1j)
    for z in (0.3 + 0.1j, -0.2 + 0.4j, 0.5):
        assert curvature_scalar(nk, z) == pytest.approx(curvature_scalar(kernel, z),
                                                        rel=1e-8)
    # two-point derivatives away from the diagonal, against central differences
    z, w, h = 0.1 + 0.2j, -0.15 + 0.05j, 1e-5
    dz = (kc.eval_kernel(nk, z + h, w) - kc.eval_kernel(nk, z - h, w)) / (2 * h)
    dwbar = (kc.eval_kernel(nk, z, w + h) - kc.eval_kernel(nk, z, w - h)) / (2 * h)
    assert abs(kc.deriv2(nk, z, w, 1, 0) - dz) < 1e-8
    assert abs(kc.deriv2(nk, z, w, 0, 1) - dwbar) < 1e-8


def test_normalize_at_checks_sample_points_of_series_kernels():
    short = kc.SeriesKernel.disc(np.ones(20))
    with pytest.raises(TruncationTailTooLarge):
        kc.normalize_at(short, 0.85)
    with pytest.raises(PointOutsideDomain):
        kc.normalize_at(geometric(), 0.95)
