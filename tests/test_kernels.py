"""Series evaluation, jets, tilde kernels, normalization, Mobius pullbacks."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rkhs_lab import annulus as an
from rkhs_lab import kernels as kc
from rkhs_lab.caratheodory import generalized_ci_check
from rkhs_lab.curvature import curvature_matrix, curvature_scalar, frame_from_jet
from rkhs_lab.errors import (CenterOutsideDisc, ConfigError, DegenerateKernel, KernelLabError,
                             KernelVanishesNearCenter, NonFiniteValue, PointOutsideDomain,
                             TruncationTailTooLarge, UnsupportedJetOrder)
from rkhs_lab.localop import canonical_form
from rkhs_lab.positivity import contraction_check, psd_check
from rkhs_lab.specio import load_kernel
from tests.conftest import (counting, curvature_mp, disc_kernel, dual_oracle,
                            random_contractive_coeffs, rank1_points, same_bits, window_of)


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
    k = disc_kernel("(n+1)^s", 150, s=1.5)
    J = kc.jet(k, 0.3 + 0.3j, 2)
    assert np.allclose(J, J.conj().T, atol=1e-10 * abs(J[0, 0]))


def test_tilde_kernel_coefficients():
    # b_0 = a_0, b_n = a_n - a_(n-1)
    a = np.array([1.0, 2.0, 2.5, 4.0])
    kt = kc.tilde_kernel(kc.SeriesKernel.disc(a))
    assert np.allclose(kt.coeffs, [1.0, 1.0, 0.5, 1.5])
    assert kt.signed


def test_the_tilde_kernel_is_built_once_per_kernel():
    k = disc_kernel("n+1")
    assert kc.tilde_kernel(k) is kc.tilde_kernel(k)


def test_tilde_kernel_value_identity():
    k = disc_kernel("n+1")
    z, w = 0.3, 0.5 + 0.1j
    lhs = kc.eval_kernel(kc.tilde_kernel(k), z, w)
    rhs = (1.0 - z * np.conjugate(w)) * kc.eval_kernel(k, z, w)
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_normalize_at_sets_slice_to_one():
    k = disc_kernel("n+1")
    zeta = 0.2 + 0.1j
    nk = kc.normalize_at(k, zeta)
    for z in [zeta, zeta + 0.05, zeta - 0.04j]:
        assert abs(kc.eval_kernel(nk, z, zeta) - 1.0) < 1e-10
    assert abs(kc.eval_kernel(nk, zeta, zeta) - 1.0) < 1e-12


def test_normalize_rejects_vanishing_kernel():
    # coefficients alternating in a way that K(z, zeta) ~ 0 near the circle
    evil = kc.ClosedFormKernel(
        block=lambda z, w, order: np.array([[(z - 0.3) * np.conjugate(w - 0.3)]]))
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


@pytest.mark.parametrize("a", [np.nan, complex(0.0, np.nan), 1.0, 0.6 + 0.8j, -1.5],
                         ids=["nan", "nan-imag", "one", "unit-circle", "outside"])
def test_a_mobius_center_off_the_disc_is_refused(a):
    # a NaN center is off the disc too, not a NaN kernel for the curvature to meet
    with pytest.raises(CenterOutsideDisc):
        kc.mobius_pullback(geometric(), a)


def test_a_kernel_negative_on_the_diagonal_is_degenerate():
    # K(0.9, 0.9) = 1 - 3 (0.81) < 0: no curvature
    with pytest.raises(DegenerateKernel, match="K\\(w, w\\) = "):
        curvature_scalar(kc.SeriesKernel(0, [1.0, -3.0], signed=True), 0.9)


def test_mobius_pullback_derivative_consistent_with_finite_difference():
    k = disc_kernel("n+1")
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


@pytest.mark.parametrize("kernel", [disc_kernel("n+1"),
                                    kc.mobius_pullback(geometric(), 0.2 - 0.1j)],
                         ids=["series", "closed-form"])
def test_negative_orders_are_refused(kernel):
    # a negative index would wrap around to the highest order of the block
    with pytest.raises(UnsupportedJetOrder):
        kc.deriv2(kernel, 0.3, 0.2, -1, 0)
    with pytest.raises(UnsupportedJetOrder):
        kc.deriv2(kernel, 0.3, 0.2, 0, -2)
    with pytest.raises(UnsupportedJetOrder):
        kc.mixed_deriv(kernel, 0.3, 0, -1)
    with pytest.raises(UnsupportedJetOrder):
        kc.jet(kernel, 0.3, 0)


def test_mobius_pullback_refuses_annulus_kernels():
    with pytest.raises(ConfigError, match="'kind'"):
        kc.mobius_pullback(an.szego_kernel(an.AnnulusSpec(r=0.5)), 0.1)


def test_transforms_keep_the_domain_of_their_kernel():
    szego = an.szego_kernel(an.AnnulusSpec(r=0.5))
    normalized = kc.normalize_at(szego, 0.7)
    assert normalized.inner_radius == 0.5
    assert kc.normalize_at(geometric(), 0.3).inner_radius is None
    assert kc.mobius_pullback(geometric(), 0.3).inner_radius is None
    with pytest.raises(PointOutsideDomain):
        kc.eval_kernel(normalized, 0.1, 0.7)
    with pytest.raises(ConfigError, match="'kind'"):
        kc.mobius_pullback(normalized, 0.1)


def test_a_closed_form_on_the_annulus_refuses_the_hole():
    closed = kc.ClosedFormKernel(block=lambda z, w, order: np.ones((order + 1, order + 1)),
                                 inner_radius=0.5)
    assert kc.eval_kernel(closed, 0.7, 0.6) == 1.0
    with pytest.raises(PointOutsideDomain):
        kc.eval_kernel(closed, 0.1, 0.6)
    with pytest.raises(ConfigError, match="'kind'"):
        kc.mobius_pullback(closed, 0.1)


@pytest.mark.parametrize("inner_radius", [np.nan, -0.2, 1.5])
def test_a_closed_form_refuses_an_inner_radius_outside_the_unit_interval(inner_radius):
    with pytest.raises(ConfigError, match="'inner_radius'"):
        kc.ClosedFormKernel(block=lambda z, w, order: np.ones((order + 1, order + 1)),
                            inner_radius=inner_radius)


@pytest.mark.parametrize("n_min, coeffs, fields, field", [
    (0, [], {}, "'coeffs'"),
    (0, [[1.0, 2.0], [3.0, 4.0]], {}, "'coeffs'"),
    (0.5, [1.0, 1.0, 1.0], {}, "'n_min'"),
    (True, [1.0, 1.0, 1.0], {}, "'n_min'"),
    (-1, [1.0, 1.0, 1.0], {}, "'n_min'"),
    (-1, [1.0, 1.0, 1.0], {"inner_radius": 0.0}, "'inner_radius'"),
    (-1, [1.0, 1.0, 1.0], {"inner_radius": 1.0}, "'inner_radius'"),
    (-1, [1.0, 1.0, 1.0], {"inner_radius": np.nan}, "'inner_radius'"),
    (0, [1.0, np.inf, 1.0], {}, "'coeffs'"),
    (0, [1.0, np.nan, 1.0], {"signed": True}, "'coeffs'"),
    (0, [1.0, 0.0, 1.0], {}, "'coeffs'"),
    (-1, [1.0, -2.0, 1.0], {"inner_radius": 0.5}, "'coeffs'"),
], ids=["empty", "two-dimensional", "fractional-n-min", "bool-n-min", "disc-from-minus-1",
        "radius-0", "radius-1", "radius-nan", "inf", "signed-nan", "zero", "negative-laurent"])
def test_series_kernel_refuses_an_invalid_window(n_min, coeffs, fields, field):
    with pytest.raises(ConfigError, match=field):
        kc.SeriesKernel(n_min, coeffs, **fields)


def test_series_kernel_accepts_signed_and_laurent_windows():
    assert kc.SeriesKernel(0, [1.0, 0.0, -1.0], signed=True).inner_radius is None
    laurent = kc.SeriesKernel(np.int64(-3), [1.0, 2.0], inner_radius=0.5)
    assert (laurent.n_min, laurent.n_max) == (-3, -2)
    assert type(laurent.n_min) is int
    assert laurent.ns.tolist() == [-3, -2]


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
@example((disc_kernel("n+1"), -0.8 + 0j, 0.8 + 0j))
# a subnormal point, whose |w| has lost bits: w / |w| is 8e-12 off the unit circle
@example((kc.SeriesKernel.disc([1.0, 1.0]), 0j, 1.2022125365e-313 + 1.872335091e-313j))
def test_deriv2_and_jet_match_mpmath(case):
    # each against its own source: two-point sums against the window, and a
    # diagonal of the dual form against the exact 40-digit dual sums
    kernel, z, w = case
    J = kc.jet(kernel, w, 2)
    two_point, two_point_tol = (dual_block(kernel, w) if z == w and kernel.dual
                                else mp_series(kernel, z, w))
    diagonal, diagonal_tol = dual_block(kernel, w) if kernel.dual else mp_series(kernel, w, w)
    for p in range(3):
        for q in range(3):
            assert abs(kc.deriv2(kernel, z, w, p, q) - two_point[p][q]) <= two_point_tol[p, q]
            assert abs(J[p, q] - diagonal[p][q]) <= diagonal_tol[p, q]


def dual_block(kernel, w):
    """The order-2 jet of a kernel of the dual form at w from the 40-digit dual
    sums, S_pq (conj(w) / |w|)^(p - q), with tolerances 1e-13 sqrt(S_pp S_qq),
    the scale that bounds the sum of the moduli of the terms of S_pq by
    Cauchy-Schwarz."""
    sums = [float(x) for x in dual_oracle(kernel, abs(w), 2)]
    unit = complex(kc._unit(w)).conjugate()
    J = [[0j] * 3 for _ in range(3)]
    tol = np.zeros((3, 3))
    for p in range(3):
        for q in range(3):
            hi, lo = max(p, q), min(p, q)
            value = sums[hi * (hi + 1) // 2 + lo] * unit ** abs(p - q)
            J[p][q] = value if p >= q else value.conjugate()
            tol[p, q] = 1e-13 * math.sqrt(sums[p * (p + 3) // 2] * sums[q * (q + 3) // 2])
    return J, tol


def assert_curvature_matches_mpmath(kernel, w, value=None):
    """curvature_scalar at w, or the ``value`` under test given for it, against
    -(J00 J11 - |J01|^2) / J00^2 of the 40-digit diagonal sums.  A kernel of
    the dual form is held to its exact 40-digit dual sums, to 1e-13 of the
    curvature plus four roundings of the quotient at the size of its terms.  The bound
    carries the entry tolerances e of mp_series through the quotient
    (numerator to first order plus the e01^2 and e00 e11 terms, denominator
    over J00 - e00) and adds four roundings of the double quotient at the
    size of its terms."""
    if kernel.dual:
        sums = dual_oracle(kernel, abs(w), 1)
        exact = float(curvature_mp(sums))
        curv = curvature_scalar(kernel, w) if value is None else value
        size = float((sums[1] / sums[0]) ** 2 + abs(sums[2] / sums[0]))
        assert abs(curv - exact) <= 1e-13 * abs(exact) + 4 * 2.0 ** -52 * size, (curv, exact)
        return
    J, tol = mp_series(kernel, w, w, order=1)
    with mpmath.workdps(40):
        j00, j11 = mpmath.mpf(J[0][0].real), mpmath.mpf(J[1][1].real)
        a01 = abs(mpmath.mpc(J[0][1]))
        e00, e01, e11 = (mpmath.mpf(float(x)) for x in (tol[0, 0], tol[0, 1], tol[1, 1]))
        lo = j00 - e00
        assert lo > 0, "K(w, w) is not resolved"
        num = j00 * j11 - a01 ** 2
        bound = (e00 * abs(j11) + (j00 + e00) * e11 + (2 * a01 + e01) * e01
                 + abs(num) * (2 * j00 * e00 + e00 ** 2) / j00 ** 2
                 + 4 * mpmath.eps * ((j00 + e00) * (abs(j11) + e11) + (a01 + e01) ** 2)) / lo ** 2
        try:
            curv = curvature_scalar(kernel, w) if value is None else value
        except NonFiniteValue:
            # only where a sum or the curvature itself leaves the double range
            assert max(j00, abs(j11), a01, abs(num) / j00 ** 2) > 1.7e308
            return
        assert abs(curv + num / j00 ** 2) <= bound, (curv, -num / j00 ** 2, bound)


SUBNORMAL_POINT = 1.2022125365e-313 + 1.872335091e-313j
#: the window of r = 0.05, b = 50 alone: its diagonal takes the window, not the dual form
THIN_STEEP = window_of(an.weighted_bergman_kernel(an.AnnulusSpec(r=0.05),
                                                  an.RadialWeight.power_law(50.0)))


@settings(max_examples=60, deadline=None)
@given(windows_and_points())
@example((disc_kernel("n+1"), 0j, 0j))
@example((kc.SeriesKernel.disc([1.0, 1.0]), 0j, SUBNORMAL_POINT))
# a_n ~ 1e-300 at n = -142, where |w|^(2n) alone overflows a double
@example((THIN_STEEP, 0j, 0.075 + 0j))
def test_curvature_matches_mpmath(case):
    kernel, _, w = case
    assert_curvature_matches_mpmath(kernel, w)


@settings(max_examples=40, deadline=None)
@given(windows_and_points())
# the thin steep window at the inner edge of its band, where a_n ~ 1e-300 at n = -142
@example((THIN_STEEP, 0.071 + 0j, 0.075j))
@example((disc_kernel("n+1"), 0j, 0.97j))
def test_curvature_grid_values_match_mpmath(case):
    # one blocked product for the grid; every value within the bound of the one-point path
    kernel, z, w = case
    points = np.array([z, w, *np.linspace(abs(z), abs(w), 3)])
    for x, value in zip(points, curvature_scalar(kernel, points)):
        assert_curvature_matches_mpmath(kernel, x, value)


def refusal(fn, *args):
    """(type, message) of the library error that fn(*args) raises."""
    with pytest.raises(KernelLabError) as exc:
        fn(*args)
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("kernel, points, first, error", [
    (disc_kernel("n+1"), [0.5, 1.2j, 0.3, 1.5], 1, PointOutsideDomain),
    (disc_kernel("n+1"), [0.5, 0.2, complex("nan"), 1.5], 2, PointOutsideDomain),
    (load_kernel({"kind": "annulus_laurent", "r": 0.05, "weight_b": 1e300}), [0.5, 0.9], 0,
     NonFiniteValue),
    # S11 / S00 = 1 / 1e-310 at w = 0
    (kc.SeriesKernel.disc([1e-310, 1.0, 1.0]), [0.5, 0.0, 0.2], 1, NonFiniteValue),
    # S00 = -1 + 4 |w|^4 is positive at 0.8 only, and 0 at w = 0 for [0, 1, 1]
    (kc.SeriesKernel(0, [-1.0, 0.0, 4.0], signed=True), [0.8, 0.5j, 0.9], 1, DegenerateKernel),
    (kc.SeriesKernel(0, [0.0, 1.0, 1.0], signed=True), [0.5, 0.0], 1, DegenerateKernel),
], ids=["outside", "nan", "overflowing-annulus", "curvature-quotient", "negative-s00",
        "zero-s00"])
def test_a_grid_refuses_at_the_first_point_the_loop_refuses(kernel, points, first, error):
    # an array raises the error of the one-point path at its first bad point
    points = np.asarray(points, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = refusal(curvature_scalar, kernel, points[first])
        assert expected[0] is error
        assert refusal(lambda: [curvature_scalar(kernel, w) for w in points]) == expected
        assert refusal(curvature_scalar, kernel, points) == expected
        # and as a 2-D array of the same points
        assert refusal(curvature_scalar, kernel, points.reshape(1, -1)) == expected


def test_a_grid_is_the_loop_to_the_last_bits():
    # the sums differ in their summation order only; where the quotient cancels
    # far more (THIN_STEEP), the mpmath bound holds both paths instead
    kernel = disc_kernel("n+1")
    radii = np.linspace(0.0, 0.97, 2000)
    points = radii * np.exp(1j * np.linspace(0.0, 6.0, 2000))
    loop = np.array([curvature_scalar(kernel, w) for w in points])
    assert np.abs(curvature_scalar(kernel, points) / loop - 1.0).max() <= 1e-14
    # the curvature is radial: the same values at |w|
    assert np.array_equal(curvature_scalar(kernel, points),
                          curvature_scalar(kernel, [abs(w) for w in points]))
    assert curvature_scalar(kernel, points.reshape(40, 50)).shape == (40, 50)
    assert curvature_scalar(kernel, []).shape == (0,)


def test_a_grid_is_one_blocked_product(monkeypatch):
    kernel = disc_kernel("n+1")
    radii = np.linspace(0.0, 0.9, 1000)
    whole = kc._grid_sums(kernel, radii, 2)
    products = counting(monkeypatch, kc, "_grid_sums")
    points = counting(monkeypatch, kc, "_diagonal_sums")
    curvature_scalar(kernel, radii)
    assert len(products) == 1 and points == []
    # blocks of 7 radii give the same sums as blocks of 163, the default for 201 terms
    monkeypatch.setattr(kc, "_GRID_BLOCK", 7 * 201)
    assert np.allclose(kc._grid_sums(kernel, radii, 2), whole, rtol=1e-15, atol=0.0)


def test_grid_sums_enter_the_floating_point_guard_only_where_a_sum_can_overflow(monkeypatch):
    bergman, limit = disc_kernel("n+1"), kc.SeriesKernel.disc([1e308] * 201)
    radii = np.array([0.0, 0.3, 0.9])
    for kernel in (bergman, limit):
        kc._grid_sums(kernel, radii, 1)  # each kernel computes its constant rows once, here
    entered = counting(monkeypatch, np, "errstate")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kc._grid_sums(bergman, radii, 1)
        assert entered == []
        sums = kc._grid_sums(limit, radii, 1)
    assert len(entered) == 1
    assert np.isfinite(sums[:2]).all() and not np.isfinite(sums[2]).all()


def test_curvature_of_an_array_refuses_a_closed_form():
    with pytest.raises(ConfigError, match="'kernel'"):
        curvature_scalar(kc.normalize_at(disc_kernel("n+1"), 0.2), [0.1, 0.3])


@pytest.mark.parametrize("kernel", [
    geometric(),
    disc_kernel("n+1"),
    disc_kernel("(n+1)^s", s=2.7),
    kc.SeriesKernel.disc([4.0, 3.0, 5.0]),
    kc.tilde_kernel(kc.SeriesKernel.disc([0.5, 1.7, 2.0] * 20)),
], ids=["geometric", "bergman", "power-2.7", "short", "tilde"])
def test_curvature_at_zero_is_exact(kernel):
    # the sums are a_0, 0 and a_1 at w = 0; with a_0 a power of two every
    # rounding of the quotient is exact.  At a subnormal point |w|^2 and
    # |S10|^2 underflow to 0, so the sums give the same quotient.
    a = kernel.coeffs
    assert curvature_scalar(kernel, 0.0) == -(a[1] / a[0])
    assert curvature_scalar(kernel, SUBNORMAL_POINT) == -(a[1] / a[0])
    assert_curvature_matches_mpmath(kernel, SUBNORMAL_POINT)


@pytest.mark.parametrize("w", [0.075, 0.075j, -0.06 + 0.05j])
def test_curvature_at_the_inner_end_of_a_thin_steep_window(w):
    # |w|^(2n) alone overflows at n = -142, where a_n ~ 1e-300
    assert_curvature_matches_mpmath(THIN_STEEP, w)


@pytest.mark.parametrize("w, message", [
    (0.9, "moment sum d^0 d^0bar K(w, w) is not finite at w = (0.9+0j)"),
])
def test_curvature_refuses_overflowing_sums(w, message):
    # a sum that overflows
    with pytest.raises(NonFiniteValue) as exc:
        curvature_scalar(kc.SeriesKernel.disc([1e308] * 201), w)
    assert str(exc.value) == message


@pytest.mark.parametrize("fn, message", [
    (lambda k: kc.eval_kernel(k, 0.9, 0.8), "moment sum d^0 d^0bar K(z, w)"),
    (lambda k: kc.deriv2(k, 0.9, 0.8, 1, 0), "moment sum d^0 d^0bar K(z, w)"),
    (lambda k: kc.kernel_matrix(k, [0.9], [0.8]), "series sum K(z, w)"),
], ids=["eval_kernel", "deriv2", "kernel_matrix"])
def test_two_point_sums_that_overflow_are_refused(fn, message):
    # 1e308 (1 + 0.72 + ...) leaves the doubles at z = 0.9, w = 0.8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue) as exc:
            fn(kc.SeriesKernel.disc([1e308] * 201))
    assert str(exc.value) == f"{message} is not finite at z = (0.9+0j), w = (0.8+0j)"


def test_a_tail_bound_whose_power_overflows_is_infinite():
    # rho^n_min = 0.0064^-400 has no double: Python's pow raises OverflowError
    kernel = kc.SeriesKernel(-400, np.ones(801), inner_radius=0.05)
    assert kc._series_tail_bound(kernel, 0.0064) == math.inf


@pytest.mark.parametrize("w", [0.3 + 0.2j, 0])
def test_curvature_of_finite_sums_near_the_double_limit(w):
    # the sums are finite and the quotient reads only their ratios, so
    # 1e308 / (1 - z wbar) has the curvature -(1 - |w|^2)^-2 of 1 / (1 - z wbar)
    kernel = kc.SeriesKernel.disc([1e308] * 201)
    assert curvature_scalar(kernel, w) == pytest.approx(-(1.0 - abs(w) ** 2) ** -2, rel=1e-15)


@pytest.mark.parametrize("kernel, points", [
    (disc_kernel("n+1"), [0.0, 0.5, -0.3 + 0.6j, 0.9j]),
    # a short window, so that c a_n stays a normal double for every c; the
    # window alone, as its scaled copy
    (window_of(an.weighted_bergman_kernel(an.AnnulusSpec(r=0.85, N=50),
                                          an.RadialWeight.power_law(1.0))),
     [0.9, 0.93j, -0.65 + 0.65j]),
], ids=["bergman", "laurent"])
@pytest.mark.parametrize("c", [1e-300, 1e-200, 1e200, 1e300])
def test_curvature_is_scale_free(kernel, points, c):
    scaled = kc.SeriesKernel(kernel.n_min, c * kernel.coeffs, inner_radius=kernel.inner_radius)
    for w in points:
        assert curvature_scalar(scaled, w) == pytest.approx(curvature_scalar(kernel, w),
                                                             rel=1e-14)


def test_closed_form_refuses_a_non_finite_block():
    # the series block is finite, the chain-rule product with it overflows
    pulled = kc.mobius_pullback(kc.SeriesKernel.disc([1e308] * 201), 0.1 - 0.2j)
    w = 0.016422907218926683 + 0.48801206600658453j
    with pytest.raises(NonFiniteValue) as exc:
        curvature_scalar(pulled, w)
    assert str(exc.value) == f"closed-form block of order 1 is not finite at z = {w}, w = {w}"


@pytest.mark.parametrize("kernel", [
    disc_kernel("n+1"),
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


def sample_cloud(seed=2024, radius=0.6, count=50):
    """A seeded cloud of ``count`` points with |z| <= radius, uniform in area."""
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0, 1, count))
    return r * np.exp(2j * np.pi * rng.uniform(0, 1, count))


@pytest.mark.parametrize("coeffs", [np.linspace(1.0, 3.0, 201),
                                    np.array([1.0, 0.5] + [0.6] * 100)])
def test_contraction_gram_matches_elementwise_kernel(coeffs):
    k = kc.SeriesKernel.disc(coeffs)
    kt = kc.tilde_kernel(k)
    pts = sample_cloud()
    G = np.array([[kc.eval_kernel(kt, zi, zj) for zj in pts] for zi in pts])
    norm = np.linalg.norm(G, ord=2)
    assert np.abs(kc.kernel_matrix(kt, pts, pts) - G).max() <= 1e-12 * norm
    assert psd_check(G).passed == contraction_check(k).passed


@pytest.mark.parametrize("contractive", [True, False], ids=["contractive", "dip"])
@pytest.mark.parametrize("seed", range(6))
def test_sampled_tilde_gram_agrees_with_the_sign_rule(seed, contractive):
    # the tilde Gram on a cloud is positive semidefinite exactly when no tilde
    # coefficient is negative; a dip a_k < a_(k-1) at a low k makes it indefinite
    rng = np.random.default_rng(seed)
    coeffs = random_contractive_coeffs(rng)
    if not contractive:
        k = int(rng.integers(1, 4))
        coeffs[k] = coeffs[k - 1] - rng.uniform(0.01, 0.1)
    kernel = kc.SeriesKernel.disc(coeffs)
    pts = sample_cloud(seed)
    gram = psd_check(kc.kernel_matrix(kc.tilde_kernel(kernel), pts, pts))
    verdict = contraction_check(kernel)
    assert gram.passed == verdict.passed == contractive


def test_contraction_gram_refuses_unresolved_or_outside_points():
    kt = kc.tilde_kernel(kc.SeriesKernel.disc(np.linspace(1.0, 2.0, 20)))
    with pytest.raises(TruncationTailTooLarge):
        kc.kernel_matrix(kt, [0.2, 0.9], [0.2, 0.9])
    with pytest.raises(PointOutsideDomain):
        kc.kernel_matrix(kt, [0.2, 0.99], [0.2, 0.99])


def test_one_modulus_rule_for_a_point_and_an_array():
    # numpy's abs of a complex array, and its division of a complex by a float,
    # can differ from Python's (libm's hypot, a division of each part) in the
    # last bit; an array of points takes the modulus and the unit of each point
    points = sample_cloud(count=10_000, radius=0.95)
    assert np.array_equal(kc._unit(points), [kc._unit(w) for w in points.tolist()])
    assert np.array_equal(kc._moduli(points), [abs(w) for w in points.tolist()])


def test_every_series_path_checks_the_domain():
    k = an.szego_kernel(an.AnnulusSpec(r=0.5))
    with pytest.raises(PointOutsideDomain):
        kc.jet(k, 0.51, 1)
    with pytest.raises(PointOutsideDomain):
        kc.deriv2(k, 0.7, 0.3, 1, 1)
    with pytest.raises(PointOutsideDomain):
        kc.mixed_deriv(geometric(), complex(np.nan, 0.0), 1, 1)


def test_series_kernel_arrays_are_private_and_read_only():
    coeffs = np.linspace(1.0, 2.0, 60)
    k = kc.SeriesKernel(0, coeffs)
    for arr in (k.ns, k.coeffs):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 5
    w = 0.4 + 0.2j
    before = kc.jet(k, w, 2)
    coeffs[:] = 7.0  # the caller's array, after the kernel was built and used
    assert np.array_equal(kc.jet(k, w, 2), before)
    assert np.array_equal(k.coeffs, np.linspace(1.0, 2.0, 60))


def test_jet_at_zero_is_exact():
    # J[p, p] = a_p (p!)^2 and the off-diagonal entries vanish exactly
    k = kc.SeriesKernel.disc([2.0, 3.0, 5.0, 7.0])
    J = kc.jet(k, 0.0, 2)
    assert np.array_equal(J, np.diag([2.0, 3.0, 5.0 * 4.0]).astype(complex))


@pytest.mark.parametrize("kernel", [
    disc_kernel("n+1"),
    kc.mobius_pullback(disc_kernel("n+1"), 0.2 - 0.1j),
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


def row_formula_sums(kernel, w, order):
    """The diagonal sums by the two-row formula, M[p, k] = F_p(n_k) |w|^(n_k - p)
    (power 0 where F_p(n_k) = 0) and S = (M * a) @ M.T, with their tolerances:
    1e-14 times the sums of the term moduli, (|M| * |a|) @ |M|.T, plus the
    subnormal floor of mp_series for each term whose power |w|^(2 n_k - p - q)
    is below the normal range."""
    ns, a = kernel._live
    fall = np.ones((order + 1, ns.size))
    for p in range(1, order + 1):
        fall[p] = fall[p - 1] * (ns - (p - 1))
    exps = np.where(fall != 0.0, ns - np.arange(order + 1.0)[:, None], 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        M = fall * abs(w) ** exps
        subnormal = abs(w) ** (exps[:, None] + exps[None, :]) < np.finfo(float).tiny
        terms = np.where(subnormal, 1.0 + np.abs(a * fall[:, None] * fall), 0.0)
        floor = SUBNORMAL_FLOOR * terms.sum(-1)
        return (M * a) @ M.T, 1e-14 * (np.abs(M) * np.abs(a)) @ np.abs(M).T + floor


@st.composite
def diagonal_cases(draw):
    """Disc rules 1, n+1 and (n+1)^3 on short and production windows, their
    coefficients rescaled up to the double limit; signed tilde windows with
    zero and negative coefficients; Laurent windows r in [0.05, 0.2],
    b in [3, 60], with points at the inner edge of the band."""
    disc_radii = st.one_of(st.just(0.0), st.floats(0.0, 0.97))
    family = draw(st.sampled_from(["1", "n+1", "(n+1)^3", "tilde", "laurent"]))
    if family == "tilde":
        runs = draw(st.lists(st.tuples(st.floats(0.1, 10.0), st.integers(1, 8)),
                             min_size=1, max_size=40))
        coeffs = [a for a, length in runs for _ in range(length)]
        return kc.tilde_kernel(kc.SeriesKernel.disc(coeffs)), draw(disc_radii)
    if family == "laurent":  # the window alone: the row formula is the window's
        spec = an.AnnulusSpec(r=draw(st.floats(0.05, 0.2)), N=200)
        kernel = window_of(an.weighted_bergman_kernel(
            spec, an.RadialWeight.power_law(draw(st.floats(3.0, 60.0)))))
        inner = spec.r + kc.BOUNDARY_MARGIN + 1e-3
        return kernel, draw(st.one_of(st.just(inner), st.floats(inner, inner + 0.02),
                                      st.floats(inner, 0.97)))
    n_max = draw(st.one_of(st.sampled_from([0, 1, 2, 200]), st.integers(0, 200)))
    coeffs = (np.arange(n_max + 1.0) + 1.0) ** {"1": 0, "n+1": 1, "(n+1)^3": 3}[family]
    top = draw(st.sampled_from([None, 1e290, 1e300, 1.7e308]))
    if top is not None:
        coeffs = coeffs * (top / coeffs.max())
    return kc.SeriesKernel.disc(coeffs), draw(disc_radii)


@settings(max_examples=150, deadline=None)
@given(diagonal_cases(), st.floats(0.0, 2.0 * np.pi))
@example((disc_kernel("n+1"), 0.0), 0.0)
@example((disc_kernel("n+1"), 5e-324), 0.0)
@example((disc_kernel("(n+1)^s", s=3.0), 1e-200), 1.0)
@example((kc.tilde_kernel(kc.SeriesKernel.disc([1.0, 1.0, 2.0, 0.5])), 1e-200), 0.0)
# |w|^2 is subnormal: (a x) x and 4 |w|^2 round to different units of 2^-1074
@example((kc.SeriesKernel(0, [1.0, 0.0, 1.0], signed=True), 5.0809357702531545e-161), 0.0)
# a_n ~ 1e-300 at n = -142, where |w|^(2n) alone overflows a double; J00 ~ 1.6e58
@example((THIN_STEEP, 0.075), 0.0)
# coefficients at the double limit: the sums are finite at 0.3 up to order 1 and overflow at 0.9
@example((kc.SeriesKernel.disc([1e308] * 201), 0.3), 0.5)
@example((kc.SeriesKernel.disc([1e308] * 201), 0.9), 0.0)
def test_diagonal_sums_match_the_row_formula(case, theta):
    # for one point and for a grid
    kernel, radius = case
    w = radius * np.exp(1j * theta)
    for order in range(3):
        ref, tol = row_formula_sums(kernel, w, order)
        grid = kc._grid_sums(kernel, [abs(w)] * 2, order)[1]  # the grid path at |w|
        if not np.isfinite(ref).all():
            with pytest.raises(NonFiniteValue):
                kc._diagonal_sums(kernel, w, order)
            assert not np.isfinite(grid).all()
            continue
        sums = kc._diagonal_sums(kernel, w, order)
        for p in range(order + 1):
            for q in range(p + 1):
                i = p * (p + 1) // 2 + q
                assert abs(sums[i] - ref[p, q]) <= tol[p, q], (order, p, q)
                assert abs(grid[i] - ref[p, q]) <= tol[p, q], (order, p, q)


def test_diagonal_sums_enter_the_floating_point_guard_only_where_a_sum_can_overflow(
        monkeypatch):
    bergman, limit = disc_kernel("n+1"), kc.SeriesKernel.disc([1e308] * 201)
    for kernel in (bergman, limit):
        curvature_scalar(kernel, 0.1)  # each kernel computes its constant rows once, here
    entered = counting(monkeypatch, np, "errstate")
    curvature_scalar(bergman, 0.3 + 0.2j)
    curvature_scalar(bergman, 0.9)
    assert entered == []
    # the returns and the refusal of the near-limit tests, each under the guard
    for w in (0.3 + 0.2j, 0):
        assert curvature_scalar(limit, w) == pytest.approx(-(1.0 - abs(w) ** 2) ** -2,
                                                           rel=1e-15)
    with pytest.raises(NonFiniteValue) as exc:
        curvature_scalar(limit, 0.9)
    assert str(exc.value) == "moment sum d^0 d^0bar K(w, w) is not finite at w = (0.9+0j)"
    assert len(entered) == 3


def _guarded(kernel, order):
    return kc._diagonal_rows(kernel, order)[4]


def test_the_guard_rule_drops_the_guard_for_every_spec_window_from_r_0_3():
    # one bound at the two extreme admissible radii decides it: for these windows
    # no power, product or sum can overflow anywhere in the domain
    kernels = [load_kernel({"kind": "annulus_laurent", "r": r, "weight_b": b})
               for r in (0.3, 0.5, 0.7, 0.9) for b in range(-2, 4)]
    kernels += [disc_kernel("1"), disc_kernel("n+1"), disc_kernel("(n+1)^s", s=0.3),
                disc_kernel("(n+1)^s", s=3.0), disc_kernel("n+1", n_max=2000),
                kc.SeriesKernel.disc(random_contractive_coeffs(np.random.default_rng(7)))]
    for kernel in kernels:
        inner = kernel.inner_radius
        edges = [1.0 - kc.BOUNDARY_MARGIN] + ([] if inner is None else [inner + kc.BOUNDARY_MARGIN])
        for order in (1, 2):
            assert not _guarded(kernel, order), (inner, order)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for w in edges:
                    assert all(map(math.isfinite, kc._diagonal_sums(kernel, w, order)))


def test_the_guard_rule_keeps_the_guard_where_a_sum_can_overflow():
    limit = kc.SeriesKernel.disc([1e300] * 201)
    assert all(_guarded(limit, order) for order in (1, 2))
    assert all(_guarded(THIN_STEEP, order) for order in (0, 1, 2))  # r = 0.05, b = 50
    # a guarded sum that overflows is refused, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match=r"^moment sum d\^2 d\^2bar K\(w, w\)"):
            kc._diagonal_sums(limit, 0.98, 2)
        with pytest.raises(NonFiniteValue):
            curvature_scalar(kc.SeriesKernel.disc([1e308] * 201), [0.3, 0.9])


def _outcome(fn):
    """("value", the result) or (error type, message) of the library error fn() raised."""
    try:
        return "value", fn()
    except KernelLabError as exc:
        return type(exc), str(exc)


def _block_value(kernel, w):
    """K(w, w) by the general route: the order-0 moment block and, for a
    window, the tail test (a dual diagonal has no tail)."""
    value = complex(kc._block(kernel, w, w, 0)[0, 0])
    if kernel.dual is None:
        kc._refuse_tail(kc._series_tail_bound(kernel, abs(w) * abs(w)), abs(value), w, w)
    return value


def _block_jet(kernel, w):
    """The order-1 jet by the general formula of the moment block: the sums
    S_pq times the phase powers of conj(w) / |w|, conjugated above the diagonal."""
    kc.check_point(kernel, w)
    sums, unit = kc._diagonal_sums(kernel, w, 1), kc._unit(w).conjugate()
    phase = [1.0 + 0j, (1.0 + 0j) * unit]
    return np.array([[phase[p - q] * sums[p * (p + 1) // 2 + q] if q < p
                      else (phase[q - p] * sums[q * (q + 1) // 2 + p]).conjugate()
                      for q in range(2)] for p in range(2)])


def test_a_kernel_points_jet_and_value_are_the_general_formulas_to_the_bit():
    # the order-1 jet is built straight from its three sums, and K(w, w) of a
    # series kernel from its order-0 sum: the same bits, zero signs included,
    # and the same refusals as the general block route
    for kernel, w in rank1_points(29, 75):
        for fast, general in ((lambda: kc.jet(kernel, w, 1), lambda: _block_jet(kernel, w)),
                              (lambda: kc.eval_kernel(kernel, w, w),
                               lambda: _block_value(kernel, w)),
                              (lambda: kc.diagonal_values(kernel, [w]),
                               lambda: np.array([_block_value(kernel, w).real]))):
            got, want = _outcome(fast), _outcome(general)
            assert got[0] == want[0], w
            assert same_bits(got[1], want[1]) if got[0] == "value" else got == want, w


@pytest.mark.parametrize("make", [
    lambda: kc.SeriesKernel.disc([1.0, 2.0]),
    lambda: frame_from_jet(geometric(), 0.3),
    lambda: curvature_matrix(frame_from_jet(geometric(), 0.3)),
    lambda: canonical_form(frame_from_jet(geometric(), 0.3)),
    lambda: generalized_ci_check(np.array([[-2.0]]), "ball", [0.3]),
], ids=["SeriesKernel", "JetGram", "CurvatureMatrix", "LocalOperatorForm", "CIVerdict"])
def test_array_types_compare_by_identity(make):
    # a type that holds a numpy array compares and hashes as an object: the
    # generated field-wise __eq__ and __hash__ would raise on the array
    x, copy = make(), make()
    assert x == x
    assert (x == copy) is False
    assert len({x, copy, x}) == 2
