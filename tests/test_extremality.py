"""F_K functional, the trichotomy, and the uniqueness pipeline replay."""

import numpy as np
import pytest

from rkhs_lab import kernels as kc
from rkhs_lab.errors import NotAContraction
from rkhs_lab.extremality import (classify_shift, dependence_test, fk_value,
                                  normalized_pullback_coeffs,
                                  uniqueness_pipeline_check)
from rkhs_lab.positivity import (contraction_check, shift_kernel,
                                two_hypercontraction_check)
from tests.conftest import random_contractive_coeffs


def geometric():
    return kc.SeriesKernel.disc(np.ones(201))


def bergman():
    return kc.SeriesKernel.disc_rule(lambda n: n + 1.0, 200)


def case2():
    # a = (1, 1, 2, 4, 8, ...): extremal at 0 but not 2-hypercontractive
    return kc.SeriesKernel.disc(np.array([1.0, 1.0] + [2.0 * 2 ** k
                                                       for k in range(60)]))


def test_fk_vanishes_only_for_equality():
    assert abs(fk_value(geometric(), 0.0)) < 1e-12
    assert abs(fk_value(geometric(), 0.4 + 0.2j)) < 1e-10
    assert fk_value(bergman(), 0.0) == pytest.approx(1.0)  # tilde K = 1/(1-z wbar)


def test_fk_requires_contraction():
    with pytest.raises(NotAContraction):
        fk_value(kc.SeriesKernel.disc(np.array([1.0, 0.5, 0.3])), 0.0)


def test_dependence_against_fk():
    assert dependence_test(geometric(), 0.3)
    assert not dependence_test(bergman(), 0.3)


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


def test_pipeline_gram_decrease_on_monomials():
    # Hardy monomial Gram is the identity; the decrease chain is tight
    rep = uniqueness_pipeline_check(geometric(), 0.0)
    step = next(s for s in rep.steps if s.name == "gram-decrease-chain")
    assert step.passed


def test_shift_verdicts_build_no_sampled_gram(monkeypatch):
    # contractivity preconditions use the tilde-coefficient signs; only
    # contraction_check samples the tilde Gram, once
    calls = []
    kernel_matrix = kc.kernel_matrix

    def counting(*args, **kwargs):
        calls.append(args)
        return kernel_matrix(*args, **kwargs)

    monkeypatch.setattr(kc, "kernel_matrix", counting)
    for zeta in (0.0, 0.3):
        classify_shift(geometric(), zeta)
        uniqueness_pipeline_check(geometric(), zeta)
        fk_value(geometric(), zeta)
        dependence_test(geometric(), zeta)
    two_hypercontraction_check(geometric())
    assert len(calls) == 0
    contraction_check(geometric())
    assert len(calls) == 1


@pytest.mark.parametrize("coeffs", [[1.0, 1.0] + [2.0 * 2 ** k for k in range(60)],
                                    [1.0, 2.0, 3.0]], ids=["case-2", "1-2-3"])
def test_short_list_is_continued_by_its_last_coefficient(coeffs):
    short = kc.SeriesKernel.disc(np.array(coeffs))
    padded = kc.SeriesKernel.disc(np.array(coeffs + [coeffs[-1]] * (201 - len(coeffs))))
    for zeta in (0.0, 0.3):
        assert classify_shift(short, zeta) == classify_shift(padded, zeta)
        assert uniqueness_pipeline_check(short, zeta) == uniqueness_pipeline_check(padded, zeta)
