"""Metamorphic properties: transformations of the input that must leave a
verdict or a value unchanged, checked on generated kernels and points.

* Scaling a kernel by c > 0 changes no shift verdict and, up to rounding,
  no curvature: every rule is scale-free.
* Rotating the point, w -> e^(i theta) w, changes neither the curvature nor
  the curvature-inequality slack of a diagonal kernel, on the disc and on
  the annulus.
* Raising the annulus weight rho^b to rho^(b+2) changes no curvature: the
  norms give K_(b+2) = K_b / (z wbar), whose logarithms differ by a harmonic
  function.
* Every curvature routine returns finite numbers or refuses with a library
  error, without a warning, on windows whose coefficients span 1e-300 to
  1e300 and at points near either circle; an array of points refuses with
  the error of its first bad point.  So does the rank-1 local form, and so
  does every reader of the dual form of an annulus diagonal.
"""

import cmath
import math
import warnings
from functools import lru_cache

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rkhs_lab import annulus as an
from rkhs_lab import curvature as cv
from rkhs_lab import extremality as ex
from rkhs_lab import kernels as kc
from rkhs_lab import localop as lo
from rkhs_lab import positivity as ps
from rkhs_lab.errors import KernelLabError

SCALES = (1e-200, 1e-12, 1e12, 1e200)
#: relative agreement of two values that differ by rounding only
ROUNDING_RTOL = 1e-12
ANNULUS_R = (0.3, 0.5)


@st.composite
def coefficient_windows(draw):
    """Coefficients a_0 = 1, a_n = a_(n-1) (1 + s_n) with steps s_n on the grid
    k / 16, |k| <= 4: steps >= 0 give a contraction, a negative step breaks it.

    On this grid every rule the verdicts read is either exactly 0 or far from
    its threshold: a tilde coefficient is a_(n-1) s_n, a 2-hypercontraction
    term 1/a_n - 2/a_(n+1) + 1/a_(n+2) is (s_1 - s_2 + s_1 s_2) / a_(n+2), whose
    numerator is 0 only when both steps are, and the relative minor at 0 is
    s_1.  Off the grid a verdict can sit within rounding of its threshold, and
    the cancellation in the 2-hypercontraction term makes that band about
    1e-5 of CHECK_TOL wide, so there scaling may flip it, as it may any fixed
    rule's."""
    size = draw(st.integers(2, 20))
    low = draw(st.sampled_from([0, -4]))
    steps = draw(st.lists(st.integers(low, 4), min_size=size - 1, max_size=size - 1))
    return np.concatenate([[1.0], np.cumprod(1.0 + np.array(steps) / 16.0)])


def disc_points(radius=0.8):
    return st.builds(cmath.rect, st.floats(0.0, radius), st.floats(-math.pi, math.pi))


def outcome(fn):
    """fn()'s value, or the name of the library error it raised."""
    try:
        return fn()
    except KernelLabError as exc:
        return type(exc).__name__


def verdicts(kernel):
    return {"contraction": ps.contraction_check(kernel).passed,
            "two_hyper": outcome(lambda: ps.two_hypercontraction_check(kernel).passed),
            "class_at_0": outcome(lambda: ex.classify_shift(kernel, 0.0).classification)}


def rounding(kernel, w):
    """How far rounding may move the curvature at w: ROUNDING_RTOL times the
    size of the two terms (S10 / S00)^2 and S11 / S00 whose difference it is."""
    s00, s10, s11 = cv.order1_sums(kernel, w)
    return ROUNDING_RTOL * ((s10 / s00) ** 2 + s11 / s00)


@settings(max_examples=60, deadline=None)
@given(coefficient_windows(), st.sampled_from(SCALES), disc_points())
def test_scaling_the_kernel_changes_no_verdict_and_no_curvature(a, c, w):
    k, scaled = kc.SeriesKernel.disc(a), kc.SeriesKernel.disc(c * a)
    assert verdicts(scaled) == verdicts(k)
    assert abs(cv.curvature_scalar(scaled, w) - cv.curvature_scalar(k, w)) <= rounding(k, w)


@lru_cache(maxsize=None)
def annulus_case(r, b):
    spec, weight = an.AnnulusSpec(r=r), an.RadialWeight.power_law(float(b))
    return spec, weight, an.weighted_bergman_kernel(spec, weight)


@settings(max_examples=60, deadline=None)
@given(coefficient_windows(), disc_points(0.9), st.floats(-math.pi, math.pi))
def test_rotating_the_point_on_the_disc_changes_no_curvature_and_no_slack(a, w, theta):
    k, turned = kc.SeriesKernel.disc(a), w * cmath.exp(1j * theta)
    (curv, bound, slack), turned_values = cv.ci_slack(k, w), cv.ci_slack(k, turned)
    tol = rounding(k, w) + ROUNDING_RTOL * abs(bound)
    assert np.allclose(turned_values, (curv, bound, slack), rtol=0.0, atol=tol)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ANNULUS_R), st.integers(-2, 3), st.floats(0.0, 1.0),
       st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
def test_rotating_the_point_on_the_annulus_changes_no_curvature_and_no_slack(
        r, b, t, phase, theta):
    spec, weight, k = annulus_case(r, b)
    w = cmath.rect(r + 0.06 + t * (0.9 - r - 0.06), phase)
    turned = w * cmath.exp(1j * theta)
    curv = cv.curvature_scalar(k, w)
    slack = an.strict_ci_check(spec, weight, w, kernel=k)
    tol = rounding(k, w) + ROUNDING_RTOL * abs(slack + curv)  # the bound's size
    assert abs(cv.curvature_scalar(k, turned) - curv) <= tol
    assert abs(an.strict_ci_check(spec, weight, turned, kernel=k) - slack) <= tol


@st.composite
def wide_windows_and_points(draw):
    """A disc or annulus window whose coefficients 10^e_n take exponents e_n in
    [-300, 300], and 1 to 5 points: each within 0.03 of the outer edge
    1 - BOUNDARY_MARGIN, of the inner edge r + BOUNDARY_MARGIN (the center on
    the disc) or of |w| = 0.5, at any phase, so some fall outside the domain.
    An annulus window holds n = 0, which keeps K(w, w) above 1e-300."""
    size = draw(st.integers(1, 24))
    a = 10.0 ** np.array(draw(st.lists(st.floats(-300.0, 300.0), min_size=size,
                                       max_size=size)))
    inner = draw(st.sampled_from([None, *ANNULUS_R]))
    n_min = 0 if inner is None else draw(st.integers(1 - size, 0))
    edges = (1.0 - kc.BOUNDARY_MARGIN, 0.5, 0.0 if inner is None else inner + kc.BOUNDARY_MARGIN)
    point = st.builds(lambda edge, t, phase: cmath.rect(max(0.0, edge + t), phase),
                      st.sampled_from(edges), st.floats(-0.03, 0.03), st.floats(-math.pi, math.pi))
    points = draw(st.lists(point, min_size=1, max_size=5))
    return kc.SeriesKernel(n_min, a, inner), inner, points


def refusal_or_value(fn):
    """("value", fn()) or (error type, message) of the library error fn() raised."""
    try:
        return "value", fn()
    except KernelLabError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(wide_windows_and_points())
def test_the_curvature_routines_return_finite_values_or_refuse(case):
    kernel, inner, points = case
    szego = None if inner is None else an._szego(an.AnnulusSpec(r=inner))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        singles = [refusal_or_value(lambda: cv.curvature_scalar(kernel, w)) for w in points]
        array = refusal_or_value(lambda: cv.curvature_scalar(kernel, np.array(points)))
        first = next((s for s in singles if s[0] != "value"), None)
        if first is None:
            assert array[0] == "value" and np.isfinite(array[1]).all()
            assert all(math.isfinite(value) for _, value in singles)
        else:
            assert array == first
        for w in [*points, np.array(points)]:
            values = refusal_or_value(lambda: cv.ci_slack(
                kernel, w, None if szego is None else kc.diagonal_values(szego, w)))
            assert values[0] != "value" or np.isfinite(values[1]).all()
        for w in points:
            value = refusal_or_value(lambda: an.extremal_problem_value(kernel, w))
            assert value[0] != "value" or math.isfinite(value[1])


@settings(max_examples=200, deadline=None)
@given(wide_windows_and_points())
# the normalized Gram overflows: s^2 = 1e245 times 1e64
@example((kc.SeriesKernel.disc([1e-245, 1e64]), None, [0j]))
def test_the_rank1_local_form_returns_finite_values_or_refuses(case):
    # the scalar chain of a kernel point: the jet Gram, its factor t and R = t t*,
    # the tt* residual and the curvature matrix; no OverflowError from a Python **
    kernel, _, points = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w in points:
            form = refusal_or_value(lambda: lo.canonical_form(lo.jet_gram(kernel, w)))
            assert form[0] != "value" or (np.isfinite(form[1].t).all()
                                          and np.isfinite(form[1].R).all())
            residual = refusal_or_value(lambda: lo.verify_tt_identity(kernel, w))
            assert residual[0] != "value" or math.isfinite(residual[1])
            curvature = refusal_or_value(
                lambda: cv.curvature_matrix(cv.frame_from_jet(kernel, w)).matrix)
            assert curvature[0] != "value" or np.isfinite(curvature[1]).all()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((0.1, *ANNULUS_R, 0.7)), st.floats(-3.0, 3.0), st.floats(0.0, 1.0),
       st.floats(-math.pi, math.pi))
def test_raising_the_weight_by_two_changes_no_curvature(r, b, t, phase):
    # ||z^n||^2 of rho^(b+2) is ||z^(n+1)||^2 of rho^b, out to 0.02 of both circles
    _, _, k = annulus_case(r, b)
    _, _, raised = annulus_case(r, b + 2.0)
    lo, hi = r + kc.BOUNDARY_MARGIN, 1.0 - kc.BOUNDARY_MARGIN
    radius = lo + t * (hi - lo)
    w = cmath.rect(radius, phase)
    if not lo <= abs(w) <= hi:  # the rotation rounds |w| past an edge
        w = radius
    assert abs(cv.curvature_scalar(raised, w) - cv.curvature_scalar(k, w)) <= rounding(k, w)
    radii = np.linspace(lo, hi, 40)
    grid, raised_grid = cv.curvature_scalar(k, radii), cv.curvature_scalar(raised, radii)
    tol = [rounding(k, x) for x in radii]
    assert (np.abs(raised_grid - grid) <= tol).all()


@st.composite
def dual_kernels_and_points(draw):
    """A spec kernel of the dual form, the Szego kernel or the weighted Bergman
    kernel of rho^b, on r in [0.01, 0.95] with b in [-60, 60] or b = -1e3, 1e3
    or 1e300, and 1 to 4 points within 0.03 of either edge of the domain, so
    some fall outside it."""
    r = draw(st.floats(0.01, 0.95))
    b = draw(st.one_of(st.floats(-60.0, 60.0), st.sampled_from([-1e3, 1e3, 1e300])))
    edges = (r + kc.BOUNDARY_MARGIN, 1.0 - kc.BOUNDARY_MARGIN)
    point = st.builds(lambda edge, t, phase: cmath.rect(edge + t, phase),
                      st.sampled_from(edges), st.floats(-0.03, 0.03), st.floats(-math.pi, math.pi))
    return r, b, draw(st.booleans()), draw(st.lists(point, min_size=1, max_size=4))


def finite(outcome):
    """Whether a refusal_or_value outcome is a library refusal or finite values."""
    kind, value = outcome
    if kind != "value":
        return True
    values = [value] if isinstance(value, (float, complex)) else value
    return bool(np.isfinite(np.asarray(values, dtype=complex)).all())


@settings(max_examples=150, deadline=None)
@given(dual_kernels_and_points())
@example((0.01, -1e3, False, [0.5]))  # every window coefficient underflows
@example((0.5, 1e300, False, [0.52, 0.98]))
@example((0.05, 1e300, True, [0.5, 0.9j]))
def test_the_dual_readers_return_finite_values_or_refuse(case):
    r, b, szego, points = case
    spec, weight = an.AnnulusSpec(r=r, N=50), an.RadialWeight.power_law(b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        built = refusal_or_value(lambda: an.szego_kernel(spec) if szego
                                 else an.weighted_bergman_kernel(spec, weight))
        if built[0] != "value":
            return
        kernel, array = built[1], np.array(points)
        s = an.szego_kernel(spec)
        singles = [refusal_or_value(lambda: cv.curvature_scalar(kernel, w)) for w in points]
        first = next((one for one in singles if one[0] != "value"), None)
        grid = refusal_or_value(lambda: cv.curvature_scalar(kernel, array))
        assert grid == first if first else finite(grid) and all(map(finite, singles))
        calls = [lambda: kc.diagonal_values(kernel, array),
                 lambda: cv.ci_slack(kernel, array, kc.diagonal_values(s, array)),
                 lambda: an.character_equivalence(spec, b, b + 1.0, grid_points=5)
                 .max_curvature_diff]
        for w in points:
            calls += [lambda w=w: kc.eval_kernel(kernel, w, w), lambda w=w: kc.jet(kernel, w, 2),
                      lambda w=w: an.extremal_problem_value(kernel, w),
                      lambda w=w: lo.canonical_form(lo.jet_gram(kernel, w)).t]
            if not szego:
                calls.append(lambda w=w: an.strict_ci_check(spec, weight, w, kernel=kernel))
        for call in calls:
            assert finite(refusal_or_value(call))
