"""Acceptance gate: nine criteria, one printed PASS/FAIL line each.

Criterion 8's middle clause (curvature grids for adjacent integer exponents
separated by more than 1e-3 on the r = 0.5 annulus) is recorded as expected
to fail: the two curvature functions genuinely differ by only ~2.4e-10
across the whole annulus (converged high-precision computation; see
/root/notes/decisions.md).  The assertion is kept so the failure stays
visible rather than silently waived.
"""

import time

import numpy as np
import pytest

from rkhs_lab import annulus as an
from rkhs_lab import kernels as kc
from rkhs_lab.curvature import curvature_scalar, mobius_rule_check
from rkhs_lab.extremality import (classify_shift, fk_value,
                                  uniqueness_pipeline_check)
from rkhs_lab.localop import (canonical_form, gram_from_matrix,
                              verify_tt_identity, verify_tt_identity_gram)
from tests.conftest import (random_contractive_coeffs, random_contractive_kernel,
                            synthetic_normalized_gram)

RNG = np.random.default_rng(987654321)


def report(num, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"criterion {num}: {tag}" + (f" ({detail})" if detail else ""))
    return passed


def test_criterion_1_extremal_curvature_closed_form():
    start = time.perf_counter()
    k = kc.SeriesKernel.disc(np.ones(201))
    grid = np.linspace(0.0, 0.92, 50)
    worst = 0.0
    for w in grid:
        expected = -(1.0 - w * w) ** -2
        worst = max(worst, abs(curvature_scalar(k, complex(w)) - expected)
                    / abs(expected))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    assert report(1, ok, f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_local_form_identity():
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        k = random_contractive_kernel(RNG)
        for w in (0.0, 0.3, 0.6):
            worst = max(worst, verify_tt_identity(k, complex(w)))
    for _ in range(10):
        for n in (1, 2):
            G = synthetic_normalized_gram(RNG, m=2, n=n)
            jg = gram_from_matrix(G, m=2, n=n)
            form = canonical_form(jg)
            R_oracle = np.linalg.inv(jg.G)[n:, n:]
            resid = (np.linalg.norm(form.t @ form.t.conj().T - R_oracle, 2)
                     / np.linalg.norm(R_oracle, 2))
            worst = max(worst, resid, verify_tt_identity_gram(jg, form))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    assert report(2, ok, f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_curvature_inequality():
    grid = np.linspace(0.0, 0.85, 12)
    violations = 0
    worst_excess = -np.inf
    for _ in range(200):
        k = random_contractive_kernel(RNG)
        for w in grid:
            bound = -(1.0 - w * w) ** -2
            excess = curvature_scalar(k, complex(w)) - bound
            worst_excess = max(worst_excess, excess)
            if excess > 1e-8:
                violations += 1
    ok = violations == 0
    assert report(3, ok, f"worst curvature excess {worst_excess:.2e}")


def test_criterion_4_extremality_trichotomy():
    geo = kc.SeriesKernel.disc(np.ones(201))
    ra = classify_shift(geo, 0.0)
    ok = ra.classification == "ExtremalEverywhere" and ra.equivalent_to_backward_shift

    case2 = kc.SeriesKernel.disc(np.array([1.0, 1.0] + [2.0 * 2 ** j
                                                        for j in range(60)]))
    rb = classify_shift(case2, 0.0)
    ok = ok and rb.classification == "ExtremalAtZeroOnly"
    ok = ok and not rb.equivalent_to_backward_shift

    counterexamples = 0
    for _ in range(500):
        a = random_contractive_coeffs(RNG)
        k = kc.SeriesKernel.disc(a)
        zeta = complex(RNG.uniform(0.05, 0.6), RNG.uniform(-0.4, 0.4))
        norm = kc.eval_kernel(kc.tilde_kernel(k), zeta, zeta).real
        if abs(fk_value(k, zeta)) <= 1e-9 * norm ** 2:
            weights = np.sqrt(a[:-1] / a[1:])
            if np.abs(weights - 1.0).max() > 1e-8:
                counterexamples += 1
    ok = ok and counterexamples == 0
    assert report(4, ok, f"{counterexamples} counterexamples in 500 shifts")


def test_criterion_5_uniqueness_pipeline():
    geo = kc.SeriesKernel.disc(np.ones(201))
    ok = True
    for zeta in (0.0, 0.3, 0.5):
        rep = uniqueness_pipeline_check(geo, zeta)
        ok = ok and rep.passed

    berg = kc.SeriesKernel.disc_rule(lambda n: n + 1.0, 200)
    rep = uniqueness_pipeline_check(berg, 0.0)
    ok = ok and rep.failed_step == "curvature-equality-at-zero"

    case2 = kc.SeriesKernel.disc(np.array([1.0, 1.0] + [2.0 * 2 ** j
                                                        for j in range(60)]))
    rep = uniqueness_pipeline_check(case2, 0.0)
    ok = ok and rep.failed_step == "two-hypercontraction"

    # Gram-decrease chain on monomial Grams: identity minus identity, to 1e-12
    rep = uniqueness_pipeline_check(geo, 0.0)
    step = next(s for s in rep.steps if s.name == "gram-decrease-chain")
    eig = float(step.detail.split("=")[-1])
    ok = ok and step.passed and eig >= -1e-12
    assert report(5, ok, f"gram-decrease min eig {eig:.2e}")


def test_criterion_6_extremal_problem_formula():
    start = time.perf_counter()
    worst = 0.0

    berg = kc.SeriesKernel.disc_rule(lambda n: (n + 1.0) / np.pi, 200)
    closed = an.extremal_problem_value(berg, 0.0)
    worst = max(worst, abs(closed - np.pi / 2.0),
                abs(closed - an.extremal_problem_ls(berg, 0.0)))

    hardy = kc.SeriesKernel.disc(np.full(201, 1.0 / (2.0 * np.pi)))
    worst = max(worst, abs(an.extremal_problem_value(hardy, 0.0)
                           - an.extremal_problem_ls(hardy, 0.0)))

    configs = [(0.3, 0.0, 0.5), (0.3, 1.0, -0.6), (0.5, 0.0, 0.7),
               (0.5, 1.0, 0.65), (0.5, 2.0, -0.75), (0.5, -1.0, 0.8),
               (0.6, 0.0, 0.75), (0.6, 2.0, 0.8), (0.7, 0.0, 0.85),
               (0.7, -1.0, -0.8)]
    for r, b, w in configs:
        kern = an.weighted_bergman_kernel(an.AnnulusSpec(r=r),
                                          an.RadialWeight.power_law(b))
        closed = an.extremal_problem_value(kern, complex(w))
        ls = an.extremal_problem_ls(kern, complex(w))
        worst = max(worst, abs(closed - ls) / abs(closed))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    assert report(6, ok, f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_7_strict_ci_on_annulus():
    spec = an.AnnulusSpec(r=0.5)
    grid = np.linspace(0.55, 0.9, 20)
    worst = np.inf
    for b in (0.0, 1.0, 2.0, -1.0):
        weight = an.RadialWeight.power_law(b)
        kern = an.weighted_bergman_kernel(spec, weight)
        for x in grid:
            worst = min(worst, an.strict_ci_check(spec, weight, complex(x),
                                                  kernel=kern))
    hardy_worst = min(an.hardy_ci_slack(spec, complex(x)) for x in grid)
    ok = worst > 0.0 and hardy_worst > 0.0
    assert report(7, ok, f"min Bergman slack {worst:.2e}, "
                         f"min Hardy slack {hardy_worst:.2e}")


def test_criterion_8_character_corollary():
    spec = an.AnnulusSpec(r=0.5)

    def grid_diff(b1, b2):
        return an.character_equivalence(spec, b1, b2).max_curvature_diff

    agree_ok = all(grid_diff(b, b + 2.0) <= 1e-8 for b in (-2.0, 0.0, 1.0))
    differ = max(grid_diff(b, b + 1.0) for b in (-2.0, 0.0, 1.0, 2.0))
    differ_ok = differ > 1e-3

    pairs_ok = True
    bs = [-2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
    for i, b1 in enumerate(bs):
        for b2 in bs[i:]:
            if not an.character_equivalence(spec, b1, b2).agree:
                pairs_ok = False

    ok = agree_ok and differ_ok and pairs_ok
    detail = (f"b/b+2 agree: {agree_ok}; max b/b+1 grid diff {differ:.2e} "
              f"(needs > 1e-3); verdicts agree: {pairs_ok}")
    report(8, ok, detail)
    assert agree_ok
    # expected failure: inequivalent weights have curvature gap ~2.4e-10 at
    # r = 0.5, orders below both the 1e-3 and the 1e-8 thresholds
    assert differ_ok and pairs_ok, (
        "unattainable as specified: the true b vs b+1 curvature gap at r=0.5 "
        f"is {differ:.2e}; see decisions ledger")


def test_criterion_9_mobius_covariance():
    worst = 0.0
    for _ in range(50):
        k = random_contractive_kernel(RNG)
        a = complex(RNG.uniform(-0.45, 0.45), RNG.uniform(-0.45, 0.45))
        z = complex(RNG.uniform(-0.45, 0.45), RNG.uniform(-0.45, 0.45))
        worst = max(worst, mobius_rule_check(k, a, z))
    ok = worst <= 1e-6
    assert report(9, ok, f"max covariance residual {worst:.2e}")
