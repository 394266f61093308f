"""F_K functional, the trichotomy, and the uniqueness pipeline replay."""

import cmath
import itertools
import json
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkhs_lab import curvature as cv
from rkhs_lab import extremality as ex
from rkhs_lab import kernels as kc
from rkhs_lab import positivity as ps
from rkhs_lab.errors import (ConfigError, NonFiniteValue, NotAContraction, NotPositiveDefinite,
                             PointOutsideDomain)
from rkhs_lab.extremality import (FK_RTOL, classify_shift, normalized_pullback_coeffs,
                                  uniqueness_pipeline_check)
from rkhs_lab.localop import canonical_form, jet_gram
from rkhs_lab.positivity import (contraction_check, shift_kernel,
                                two_hypercontraction_check)
from rkhs_lab.specio import load_kernel
from tests.conftest import counting, disc_kernel, random_contractive_coeffs


def geometric():
    return kc.SeriesKernel.disc(np.ones(201))


def bergman():
    return disc_kernel("n+1")


def case2():
    # a = (1, 1, 2, 4, 8, ...): extremal at 0 but not 2-hypercontractive
    return kc.SeriesKernel.disc(np.array([1.0, 1.0] + [2.0 * 2 ** k
                                                       for k in range(60)]))


def fk_value(kernel, zeta):
    """F_K of the shift kernel at zeta, as classify_shift reports it."""
    return classify_shift(kernel, zeta).fk_value


def test_fk_vanishes_only_for_equality():
    assert abs(fk_value(geometric(), 0.0)) < 1e-12
    assert abs(fk_value(geometric(), 0.4 + 0.2j)) < 1e-10
    assert fk_value(bergman(), 0.0) == pytest.approx(1.0)  # tilde K = 1/(1-z wbar)


def test_fk_requires_contraction():
    with pytest.raises(NotAContraction):
        fk_value(kc.SeriesKernel.disc(np.array([1.0, 0.5, 0.3])), 0.0)


def test_dependence_against_fk():
    # the dependence of the tilde jet vectors, |F_K| <= FK_RTOL Ktilde^2, is
    # scale-free, although F_K underflows for a small kernel
    for scale, (make, dependent) in itertools.product(
            (1e-200, 1.0, 1e100), ((geometric, True), (bergman, False), (case2, False))):
        kernel = kc.SeriesKernel.disc(make().coeffs * scale)
        report = classify_shift(kernel, 0.3)
        assert (abs(report.fk_relative) <= FK_RTOL) == dependent
        assert (report.classification == "ExtremalEverywhere") == dependent


def test_dependence_applies_the_rule_of_the_classification():
    # F_K / Ktilde^2 = 5.9e-8 is above FK_RTOL although it is small against
    # j11 / j00 = 144: the verdict reads |F_K| <= FK_RTOL Ktilde^2
    a = np.ones(201)
    a[6:] = 1e13
    kernel = kc.SeriesKernel.disc(a)
    report = classify_shift(kernel, 0.5)
    assert report.fk_relative == pytest.approx(5.898e-8, rel=1e-3)
    assert report.fk_relative > FK_RTOL
    assert report.classification == "NotExtremal"


def test_trichotomy_backward_shift():
    r = classify_shift(geometric(), 0.0)
    assert r.classification == "ExtremalEverywhere"
    assert r.equivalent_to_backward_shift
    r = classify_shift(geometric(), 0.5)
    assert r.classification == "ExtremalEverywhere"


def test_trichotomy_case2_at_zero_only():
    r = classify_shift(case2(), 0.0)
    assert r.classification == "ExtremalAtZeroOnly"
    assert not r.equivalent_to_backward_shift
    assert abs(r.fk_value) < 1e-12


def test_trichotomy_bergman_not_extremal():
    r = classify_shift(bergman(), 0.0)
    assert r.classification == "NotExtremal"


def test_equality_off_origin_forces_unit_weights(rng):
    # contractive shifts with fk = 0 away from 0 must have all weights 1
    hits = 0
    for _ in range(200):
        a = random_contractive_coeffs(rng)
        k = kc.SeriesKernel.disc(a)
        zeta = complex(rng.uniform(0.05, 0.6), rng.uniform(-0.3, 0.3))
        if abs(fk_value(k, zeta)) < 1e-9 * kc.eval_kernel(kc.tilde_kernel(k),
                                                          zeta, zeta).real ** 2:
            hits += 1
            w = np.sqrt(a[:-1] / a[1:])
            assert np.abs(w - 1.0).max() < 1e-8
    # random perturbed kernels should essentially never hit equality
    assert hits == 0


def test_pipeline_unit_weights_pass_everywhere():
    for zeta in [0.0, 0.3, 0.6, 0.2 + 0.25j]:
        rep = uniqueness_pipeline_check(geometric(), zeta)
        assert rep.passed, rep.failed_step
        assert rep.failed_step is None
        assert "polynomial-density" in rep.assumptions


@pytest.mark.parametrize("kernel, zeta", [
    (geometric(), 0.3),
    (bergman(), 0.0),
    (kc.SeriesKernel.disc(np.linspace(2.0, 1.0, 201)), 0.3),
], ids=["geometric", "bergman", "non-contractive"])
def test_pipeline_steps_report_python_bools(kernel, zeta):
    # the steps that compare numpy scalars held a numpy bool, which json refuses
    rep = uniqueness_pipeline_check(kernel, zeta)
    assert all(type(step.passed) is bool for step in rep.steps)
    json.dumps([(step.name, step.passed) for step in rep.steps])


def test_pipeline_bergman_fails_at_curvature_equality():
    rep = uniqueness_pipeline_check(bergman(), 0.0)
    assert not rep.passed
    assert rep.failed_step == "curvature-equality-at-zero"


def test_pipeline_case2_fails_at_two_hypercontraction():
    rep = uniqueness_pipeline_check(case2(), 0.0)
    assert not rep.passed
    assert rep.failed_step == "two-hypercontraction"


def test_normalized_pullback_is_gram_of_monomial_images():
    # for the geometric kernel the conjugated, normalized kernel is itself
    C = normalized_pullback_coeffs(geometric(), 0.3, 40)
    assert np.abs(C - np.eye(41)).max() < 1e-12


@pytest.mark.parametrize("zeta", [0.0, 0.3, 0.5, 0.2 + 0.3j, -0.45j])
@pytest.mark.parametrize("coeffs", [
    np.ones(201), np.arange(1.0, 202.0), np.arange(1.0, 202.0) ** 0.6,
    random_contractive_coeffs(np.random.default_rng(7)),
    np.array([1.0, 1.0] + [2.0 * 2 ** k for k in range(60)]),
], ids=["geometric", "bergman", "power-0.6", "seeded", "case-2"])
def test_normalized_pullback_matches_closed_form_transforms(coeffs, zeta):
    # C[p, q] is the Taylor coefficient d^p d^qbar L(0, 0) / (p! q!) of the
    # pulled-back kernel normalized at 0, which the closed-form transforms give
    kernel = shift_kernel(kc.SeriesKernel.disc(coeffs))
    truncation = uniqueness_pipeline_check(kernel, zeta).truncation
    C = normalized_pullback_coeffs(kernel, zeta, truncation)
    L = kc.normalize_at(kc.mobius_pullback(kernel, np.conjugate(zeta)), 0.0)
    fact = np.array([1.0, 1.0, 2.0])
    oracle = kc.jet(L, 0.0, 2) / np.outer(fact, fact)
    assert np.abs(C[:3, :3] - oracle).max() <= 1e-12 * np.abs(oracle).max()
    # F is lower triangular, so truncation 1 gives the corner the pipeline reads first
    corner = normalized_pullback_coeffs(kernel, zeta, 1)
    assert np.abs(corner - C[:2, :2]).max() <= 1e-15 * np.abs(C[:2, :2]).max()


def reference_pullback(coeffs, zeta, truncation):
    """The pullback coefficients in complex arithmetic, with one np.convolve
    per row psi^n: the reference the doubled rows are held to."""
    size = truncation + 1
    a = np.asarray(coeffs, dtype=float) / coeffs[0]
    zeta = complex(zeta)
    psi = np.convolve([np.conjugate(zeta), 1.0], np.power(-zeta, np.arange(size)))[:size]
    P = np.zeros((a.size, size), dtype=complex)
    P[0, 0] = 1.0
    for n in range(1, a.size):
        P[n] = np.convolve(P[n - 1], psi)[:size]
    C = (P.T * a) @ P.conj()
    u = C[:, 0].copy()
    v = ex._series_inverse(u)
    F = np.zeros((size, size), dtype=complex)
    for i in range(size):
        F[i, :i + 1] = v[i::-1]
    return u[0].real * (F @ C @ F.conj().T)


@pytest.mark.parametrize("zeta", [0.3, 0.2 + 0.25j])
@pytest.mark.parametrize("count", [1, 2, 3, 201])
def test_pullback_of_a_short_kernel_matches_the_convolution_loop(count, zeta):
    # the doubling starts from rows psi^0 and psi^1; a kernel with fewer
    # coefficients than that has fewer rows
    coeffs = np.arange(1.0, count + 1.0) ** 0.6
    C = normalized_pullback_coeffs(kc.SeriesKernel.disc(coeffs), zeta, 40)
    ref = reference_pullback(coeffs, zeta, 40)
    assert np.abs(C - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("zeta", [0.3, 0.5, 0.2 + 0.25j, -0.45j])
def test_pullback_rows_match_a_40_digit_oracle(zeta):
    # psi(z) = (z + conj(zeta)) / (1 + zeta z) and its powers psi^n, n <= 200,
    # on the first 40 Taylor coefficients; psi is inner, so |psi^n|_2 = 1
    cols, count = 40, 201
    real = not complex(zeta).imag
    with mpmath.workdps(40):
        z = mpmath.mpf(zeta) if real else mpmath.mpc(zeta)
        psi = [mpmath.conj(z)] + [(-z) ** k * mpmath.conj(z) + (-z) ** (k - 1)
                                  for k in range(1, cols)]
        row, oracle = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (cols - 1), []
        for _ in range(count):
            oracle.append([complex(x) for x in row])
            row = [mpmath.fsum(row[j] * psi[i - j] for j in range(i + 1)) for i in range(cols)]
        psi = np.array([complex(x) for x in psi])
    rows = ex._power_rows(psi.real if real else psi, count)
    assert np.abs(rows - np.array(oracle)).max() <= 1e-14


@pytest.mark.parametrize("zeta", [0, 0.0, 0.3, complex(0.3, 0.0), np.float64(0.3), -0.3],
                         ids=["int-0", "0.0", "0.3", "complex-0.3", "float64-0.3", "-0.3"])
def test_a_real_zeta_gives_real_pullback_coefficients(zeta):
    for coeffs in (np.ones(201), np.arange(1.0, 202.0), np.arange(1.0, 202.0) ** 0.6):
        C = normalized_pullback_coeffs(kc.SeriesKernel.disc(coeffs), zeta, 60)
        assert C.dtype == np.float64
        ref = reference_pullback(coeffs, zeta, 60)
        assert np.abs(C - ref).max() <= 1e-13 * np.abs(ref).max()


def test_pipeline_gram_decrease_on_monomials():
    # Hardy monomial Gram is the identity; the decrease chain is tight
    rep = uniqueness_pipeline_check(geometric(), 0.0)
    step = next(s for s in rep.steps if s.name == "gram-decrease-chain")
    assert step.passed


@pytest.mark.parametrize("zeta", [1.5, 1.0, np.nan, complex(np.nan, 0.0)],
                         ids=["outside", "boundary", "nan", "complex-nan"])
def test_pipeline_refuses_a_point_off_the_disc(zeta):
    with pytest.raises(PointOutsideDomain):
        uniqueness_pipeline_check(geometric(), zeta)


@pytest.mark.parametrize("scale", [1e-300, 1.7e308])
def test_pipeline_does_not_depend_on_scale(scale):
    # C is normalized, so c K replays as K does, also where the sums of c K
    # alone would overflow
    for zeta in (0.0, 0.3, 0.2 + 0.25j):
        for coeffs in (np.ones(201), np.arange(1.0, 202.0) / 201.0):
            scaled = kc.SeriesKernel.disc(scale * coeffs)
            plain = kc.SeriesKernel.disc(coeffs)
            assert (uniqueness_pipeline_check(scaled, zeta).failed_step
                    == uniqueness_pipeline_check(plain, zeta).failed_step)


def test_pipeline_refuses_pullback_sums_past_the_double_range():
    # a_n / a_0 = 1.7e308 for n >= 1: the sums of C overflow, a typed refusal
    kernel = kc.SeriesKernel.disc(np.concatenate([[1.0], np.full(200, 1.7e308)]))
    with pytest.raises(NonFiniteValue, match="zeta = 0.3"):
        uniqueness_pipeline_check(kernel, 0.3)


@pytest.mark.parametrize("zeta", [0.0, 0.3])
def test_the_pullback_refuses_coefficients_over_a0_past_the_double_range(zeta):
    # a_1 / a_0 = 1e310 overflows before any sum is taken: a typed refusal
    # naming zeta, with no overflow warning, on both branches
    kernel = kc.SeriesKernel.disc([1e-300, 1e10, 1e10])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match=re.escape(f"a_n / a_0 coefficients at "
                                                           f"zeta = {zeta} ")):
            normalized_pullback_coeffs(kernel, zeta, 2)


@pytest.mark.parametrize("truncation", [-1, 2.5, True, np.float64(3.0)])
def test_the_pullback_refuses_a_truncation_that_is_not_a_count(truncation):
    with pytest.raises(ConfigError, match="'truncation'"):
        normalized_pullback_coeffs(geometric(), 0.3, truncation)


def test_the_pullback_runs_the_entry_checks_of_the_pipeline():
    # a Laurent kernel would have its a_(n_min) read as a_0; 1.5 is off the disc
    annulus = load_kernel({"kind": "annulus_laurent", "r": 0.5})
    with pytest.raises(ConfigError, match="'kind'"):
        normalized_pullback_coeffs(annulus, 0.7)
    for zeta in (1.5, np.nan):
        with pytest.raises(PointOutsideDomain):
            normalized_pullback_coeffs(geometric(), zeta)
    assert normalized_pullback_coeffs(geometric(), 0.3, np.int64(0)).shape == (1, 1)


@pytest.mark.parametrize("zeta", [-0.3, 0.2 + 0.25j])
def test_pipeline_refusal_names_the_callers_zeta(zeta):
    # C is built at |zeta|; the refusal still names the point asked about
    kernel = kc.SeriesKernel.disc(np.concatenate([[1.0], np.full(200, 1.7e308)]))
    with pytest.raises(NonFiniteValue, match=re.escape(f"zeta = {zeta} ")):
        uniqueness_pipeline_check(kernel, zeta)


def test_pipeline_refuses_a_normalization_past_the_double_range():
    # at zeta = 0.05 the sums of C stay finite, but C[0, 0] F C F^T does not:
    # a typed refusal, not an overflow warning and a failed monomial-gram step
    kernel = kc.SeriesKernel.disc(np.concatenate([[1.0], np.full(200, 1.7e308)]))
    with pytest.raises(NonFiniteValue, match="normalized pullback coefficients at zeta = 0.05 "):
        uniqueness_pipeline_check(kernel, 0.05)


@pytest.mark.parametrize("zeta", [0.0, 0.3, 0.2 + 0.25j])
def test_pipeline_runs_on_one_factor_and_one_decrease_check(monkeypatch, zeta):
    # the library's definite test gives G = C^-1, and the chain is its
    # Gram-decrease check; the pipeline forms no inverse or condition number itself
    assert ex.inverse_factor is ps.inverse_factor
    assert ex.gram_decrease_check is ps.gram_decrease_check
    if not zeta:
        # C = diag(a_n / a_0) at the origin: one factor and one decrease check,
        # each of the diagonal vectors, and no LAPACK call at all
        diagonal = [counting(monkeypatch, ex, name) for name in
                    ("inverse_factor", "gram_decrease_check")]
        dense = [counting(monkeypatch, np.linalg, name) for name in
                 ("cholesky", "inv", "eigvalsh")]
        assert uniqueness_pipeline_check(geometric(), zeta).passed
        assert [len(calls) for calls in diagonal] == [1, 1]
        assert all(arg.ndim == 1 for calls in diagonal for arg in calls[0])
        assert [len(calls) for calls in dense] == [0] * 3
        return
    factors, inside = [], []

    def factor(G):
        factors.append(G)
        inside.append(G)
        try:
            return ps.inverse_factor(G)
        finally:
            inside.pop()

    monkeypatch.setattr(ex, "inverse_factor", factor)
    decreases = counting(monkeypatch, ex, "gram_decrease_check")
    inv = np.linalg.inv
    inverses = []
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(bool(inside)) or inv(a))
    eigensolves = counting(monkeypatch, np.linalg, "eigvalsh")
    assert uniqueness_pipeline_check(geometric(), zeta).passed
    assert (len(factors), len(decreases)) == (1, 1)
    # the triangular inverse inside the one factor, the eigensolve inside psd_check
    assert inverses and all(inverses)
    assert len(eigensolves) == 1
    # a complex zeta replays at |zeta|, so both run in real LAPACK
    assert factors[0].dtype == eigensolves[0][0].dtype == np.float64


def test_pipeline_refusal_of_the_factor_fails_the_monomial_gram_step(monkeypatch):
    monkeypatch.setattr(ps, "COND_LIMIT", 1.0)
    rep = uniqueness_pipeline_check(geometric(), 0.3)
    assert rep.failed_step == "monomial-gram"
    step = rep.steps[-1]
    assert step.name == "monomial-gram" and not step.passed
    assert "exceeds 1e+00" in step.detail


def test_pipeline_curvature_step_is_the_rank1_quotient(monkeypatch):
    quotients = counting(monkeypatch, cv, "rank1_curvature")
    for kernel in (geometric(), bergman()):
        uniqueness_pipeline_check(kernel, 0.3)
    assert len(quotients) == 2
    assert all(w == 0.0 for *_, w in quotients)


@pytest.mark.parametrize("zeta", [0.3, 0.5])
@pytest.mark.parametrize("kernel", [bergman(), disc_kernel("(n+1)^s", s=0.6)],
                         ids=["bergman", "power-0.6"])
def test_a_pipeline_stopped_by_the_curvature_step_builds_only_the_corner(monkeypatch,
                                                                         kernel, zeta):
    # the corner C[:2, :2] decides the curvature step: two columns of psi^n
    rows = counting(monkeypatch, ex, "_power_rows")
    assert uniqueness_pipeline_check(kernel, zeta).failed_step == "curvature-equality-at-zero"
    assert [psi.size for psi, _ in rows] == [2]


def test_a_passing_pipeline_builds_one_full_pullback_per_point(monkeypatch):
    pullbacks = counting(monkeypatch, ex, "_pullback_at_modulus")
    for zeta in (0.0, 0.3, 0.5, 0.2 + 0.25j):
        pullbacks.clear()
        rep = uniqueness_pipeline_check(geometric(), zeta)
        assert rep.passed
        assert [truncation for *_, truncation in pullbacks] == [1, rep.truncation]


def gram_step_coeffs(rng, i):
    """Seeded coefficients that pass contraction and the corner (a_1 = a_0 to
    1e-8); kinds 0 and 3 pass 2-hypercontraction too, kinds 1 and 2, whose
    jumps of a let the Gram steps fail, do not (:func:`past_two_hyper`)."""
    n = np.arange(201.0)
    kind = i % 4
    if kind == 0:  # 1/a convex: the orthonormality step passes or fails
        return 1.0 + 10 ** rng.uniform(-14, -9) * n ** rng.uniform(0.3, 1.0)
    if kind == 3:  # a short list, continued by its last coefficient
        return 1.0 + 10 ** rng.uniform(-13, -9) * n[:rng.integers(3, 120)] ** 0.5
    # a jump of a lets a_n fall by up to 1e-10 of it under the contraction
    # rule: the chain fails; a jump past 1e10 fails the condition bound instead
    a = np.ones(201)
    jump = 10 ** rng.uniform(2, 4) if kind == 1 else 10 ** rng.uniform(6, 12)
    if kind == 1:
        a[2:] -= rng.uniform(0.0, 0.9) * 1e-10 * (jump - 1.0)
    a[rng.integers(2, 200):] = jump
    return 10 ** rng.uniform(10, 13) * a


def past_two_hyper(monkeypatch):
    """Let every kernel past the 2-hypercontraction step.  With a_1 = a_0 and
    1/a convex, a contraction is constant, so under the scale-free rule no
    kernel whose Gram steps fail reaches them; the jumps of gram_step_coeffs
    stop at that step, and reach the Gram steps only with it passed."""
    passed = ps.CheckResult(passed=True, info={"min_expression": 0.0})
    monkeypatch.setattr(ex, "two_hypercontraction_check", lambda kernel: passed)


def dense_gram_steps(c):
    """The Gram steps on the dense C = diag(c): the LAPACK factor, the dense
    decrease check and the orthonormality rule on G = P P^T."""
    try:
        P = ps.inverse_factor(np.diag(c))
    except NotPositiveDefinite as exc:
        return [("monomial-gram", False, str(exc))]
    G = P @ P.T
    k = c.size - 2
    dec = ps.gram_decrease_check(G[:k, :k], G[1:k + 1, 1:k + 1])
    steps = [("gram-decrease-chain", dec.passed,
              f"min eig of G_v - G_Av = {dec.info['min_eigenvalue']:.3e}")]
    if dec.passed:
        norms = np.abs(np.diag(G) - 1.0).max()
        off = float(np.abs(G - np.diag(np.diag(G))).max())
        steps.append(("monomial-orthonormality", bool(norms <= ex.STEP_TOL and off <= ex.STEP_TOL),
                      f"max |norm-1| = {norms:.3e}, max off-diagonal = {off:.3e}"))
    return steps


def origin_diagonal(kernel):
    """The diagonal c = a_n / a_0 of the pipeline's C at 0."""
    return np.diagonal(normalized_pullback_coeffs(shift_kernel(kernel), 0.0))


@pytest.mark.parametrize("cond_limit", [ps.COND_LIMIT, 1.0], ids=["default", "limit-1"])
def test_the_gram_steps_at_the_origin_report_as_the_dense_route(monkeypatch, cond_limit):
    # at zeta = 0 the pipeline factors and checks C = diag(c) on its diagonal;
    # every step reports what the LAPACK route on the dense C reports
    monkeypatch.setattr(ps, "COND_LIMIT", cond_limit)
    rng = np.random.default_rng(30)
    kernels = [geometric(), kc.SeriesKernel.disc(1.0 + np.arange(201.0) * 1e-10)]
    kernels += [kc.SeriesKernel.disc(gram_step_coeffs(rng, i)) for i in range(200)]
    stops = [uniqueness_pipeline_check(k, 0.0).failed_step for k in kernels[2:]]
    assert {stop for i, stop in enumerate(stops) if i % 4 in (1, 2)} == {"two-hypercontraction"}
    past_two_hyper(monkeypatch)
    outcomes = []
    for kernel in kernels:
        want = dense_gram_steps(origin_diagonal(kernel))
        for zeta in (0.0, 0j, -0.0):
            steps = [(s.name, s.passed, s.detail)
                     for s in uniqueness_pipeline_check(kernel, zeta).steps]
            assert [passed for _, passed, _ in steps[:4]] == [True] * 4
            assert steps[4:] == want
        outcomes.append(steps[-1][0] if not steps[-1][1] else "passed")
    if cond_limit == 1.0:
        assert set(outcomes) == {"monomial-gram"}
    else:
        # a_n = 1 + n 1e-10 fails orthonormality: max |1/a_n - 1| = 1.5e-8
        assert outcomes[:2] == ["passed", "monomial-orthonormality"]
        assert set(outcomes) == {"passed", "monomial-orthonormality", "gram-decrease-chain",
                                 "monomial-gram"}


@pytest.mark.parametrize("coeffs", [
    np.ones(201), np.arange(1.0, 202.0), np.arange(1.0, 202.0) ** 0.6,
    random_contractive_coeffs(np.random.default_rng(31)),
    [1.0, 1.0] + [2.0 * 2 ** k for k in range(60)], [2.0, 3.0, 5.0]],
    ids=["geometric", "bergman", "power-0.6", "seeded", "case-2", "short"])
@pytest.mark.parametrize("truncation", [150, 10])
def test_the_pullback_at_the_origin_is_the_diagonal_of_the_coefficients(coeffs, truncation):
    # the premise of the diagonal route: C(0) = diag(a_n / a_0), exactly, its
    # diagonal padded with zeros past a list shorter than the window
    a = np.asarray(coeffs, dtype=float)
    c = np.zeros(truncation + 1)
    c[:min(a.size, c.size)] = a[:truncation + 1] / a[0]
    for zeta in (0.0, 0j, -0.0):
        C = normalized_pullback_coeffs(kc.SeriesKernel.disc(a), zeta, truncation)
        assert C.dtype == np.float64 and np.array_equal(C, np.diag(c))


def returned(monkeypatch, name):
    """The results of ``ex.name``, recorded through a monkeypatched wrapper."""
    results, original = [], getattr(ex, name)

    def wrapper(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(ex, name, wrapper)
    return results


def test_the_gram_steps_at_the_origin_hold_to_an_exact_rational_oracle(monkeypatch):
    # min over n < k of 1/c_n - 1/c_(n+1) and max |1/c_n - 1|, in exact
    # rationals of the float c_n, within 4 ulps of the largest 1/c_n
    factors = returned(monkeypatch, "inverse_factor")
    chains = returned(monkeypatch, "gram_decrease_check")
    rng = np.random.default_rng(32)
    kernels = [geometric(), kc.SeriesKernel.disc(1.0 + np.arange(201.0) * 1e-10)]
    kernels += [kc.SeriesKernel.disc(gram_step_coeffs(rng, i)) for i in range(24)
                if i % 4 != 2]  # not the condition refusals, which stop before the chain
    past_two_hyper(monkeypatch)
    for kernel in kernels:
        factors.clear()
        chains.clear()
        steps = {s.name: s.detail for s in uniqueness_pipeline_check(kernel, 0.0).steps}
        g = [1 / Fraction(c) for c in origin_diagonal(kernel).tolist()]
        k = len(g) - 2
        least = min(g[n] - g[n + 1] for n in range(k))
        ulps = 4 * Fraction(float(np.spacing(float(max(g)))))
        (chain,), (p,) = chains, factors
        assert p.ndim == 1  # the factor of the diagonal, as a vector
        assert abs(Fraction(chain.info["min_eigenvalue"]) - least) <= ulps
        assert (steps["gram-decrease-chain"]
                == f"min eig of G_v - G_Av = {chain.info['min_eigenvalue']:.3e}")
        if "monomial-orthonormality" in steps:
            worst = max(abs(x - 1) for x in g)
            norms = float(np.abs(p * p - 1.0).max())  # max |g - 1| of the reported g = p p
            assert abs(Fraction(norms) - worst) <= ulps
            assert steps["monomial-orthonormality"] == (f"max |norm-1| = {norms:.3e}, "
                                                        "max off-diagonal = 0.000e+00")


@pytest.mark.parametrize("row", [np.array([2.0]), np.arange(1.0, 6.0),
                                 np.array([1.0, 2j, -0.5 + 1j])], ids=["1", "5", "complex"])
def test_toeplitz_is_the_read_only_lower_triangular_matrix_of_the_row(row):
    T = ex._toeplitz(row)
    size = row.size
    explicit = np.array([[row[i - j] if j <= i else 0.0 for j in range(size)]
                         for i in range(size)])
    assert T.dtype == row.dtype and np.array_equal(T, explicit)
    assert not T.flags.writeable
    with pytest.raises(ValueError):
        T[0, 0] = 0.0


def test_shift_verdicts_build_no_sampled_gram(monkeypatch):
    # every contractivity verdict, contraction_check's included, is the sign
    # rule on the tilde coefficients; none samples the tilde Gram
    calls = counting(monkeypatch, kc, "kernel_matrix")
    for zeta in (0.0, 0.3):
        classify_shift(geometric(), zeta)
        uniqueness_pipeline_check(geometric(), zeta)
    two_hypercontraction_check(geometric())
    assert len(calls) == 0
    grams = counting(monkeypatch, ps, "psd_check"), counting(monkeypatch, np.linalg, "eigvalsh")
    contraction_check(geometric())
    assert [len(c) for c in (calls, *grams)] == [0, 0, 0]


def test_classification_evaluates_no_curvature(monkeypatch):
    # the trichotomy reads F_K and the weights; the curvature is not part of it
    calls = []
    curvature_scalar = cv.curvature_scalar

    def counting(*args):
        calls.append(args)
        return curvature_scalar(*args)

    monkeypatch.setattr(cv, "curvature_scalar", counting)
    for kernel in (geometric(), bergman(), case2()):
        for zeta in (0.0, 0.3):
            classify_shift(kernel, zeta)
    assert calls == []


@pytest.mark.parametrize("coeffs", [[1.0, 1.0] + [2.0 * 2 ** k for k in range(60)],
                                    [1.0, 2.0, 3.0]], ids=["case-2", "1-2-3"])
def test_short_list_is_continued_by_its_last_coefficient(coeffs):
    short = kc.SeriesKernel.disc(np.array(coeffs))
    padded = kc.SeriesKernel.disc(np.array(coeffs + [coeffs[-1]] * (201 - len(coeffs))))
    for zeta in (0.0, 0.3):
        assert classify_shift(short, zeta) == classify_shift(padded, zeta)
        assert uniqueness_pipeline_check(short, zeta) == uniqueness_pipeline_check(padded, zeta)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["1", "n+1", "(n+1)^s"]), st.floats(0.2, 3.0),
       st.floats(0.05, 0.85), st.floats(-np.pi, np.pi))
def test_a_rotation_of_the_point_changes_no_verdict(rule, s, r, theta):
    # a diagonal kernel is rotation invariant, K(e^(it) z, e^(it) w) = K(z, w),
    # so every verdict at r e^(i theta) is the verdict at r, with no reference value
    kernel = disc_kernel(rule, s=s) if rule == "(n+1)^s" else disc_kernel(rule)
    z = cmath.rect(r, theta)
    assert cv.curvature_scalar(kernel, z) == pytest.approx(cv.curvature_scalar(kernel, r),
                                                           rel=1e-12)
    slack_z, slack_r = cv.ci_slack(kernel, z), cv.ci_slack(kernel, r)
    assert np.abs(np.subtract(slack_z, slack_r)).max() <= 1e-12 * abs(slack_r[1])
    class_z, class_r = classify_shift(kernel, z), classify_shift(kernel, r)
    assert class_z.classification == class_r.classification
    assert class_z.fk_relative == pytest.approx(class_r.fk_relative, rel=1e-12, abs=1e-15)
    steps_z, steps_r = (uniqueness_pipeline_check(kernel, w).steps for w in (z, r))
    assert [(t.name, t.passed) for t in steps_z] == [(t.name, t.passed) for t in steps_r]
    form_z, form_r = (canonical_form(jet_gram(kernel, w)) for w in (z, r))
    assert np.allclose(form_z.R, form_r.R, rtol=1e-12, atol=0.0)
    assert np.allclose(np.abs(form_z.t), np.abs(form_r.t), rtol=1e-12, atol=0.0)
