"""Canonical local forms: block Cholesky, the t tbar^t = -curvature^-1 identity."""

import numpy as np
import pytest

from rkhs_lab import kernels as kc
from rkhs_lab.curvature import JetGram
from rkhs_lab.errors import NormalizationMissing, NotPositiveDefinite
from rkhs_lab.localop import (canonical_form, function_of_local, gram_from_matrix,
                              jet_gram, verify_tt_identity,
                              verify_tt_identity_gram)
from tests.conftest import random_contractive_kernel, synthetic_normalized_gram


def test_geometric_tt_identity_exact():
    k = kc.SeriesKernel.disc(np.ones(201))
    for w in [0.0, 0.3, 0.6, 0.2 + 0.4j]:
        assert verify_tt_identity(k, w) < 1e-12


def test_tt_identity_random_kernels(rng):
    for _ in range(20):
        k = random_contractive_kernel(rng)
        for w in (0.0, 0.3, 0.6):
            assert verify_tt_identity(k, complex(w)) < 1e-8


def test_canonical_form_shape_and_triangularity():
    k = kc.SeriesKernel.disc_rule(lambda n: n + 1.0, 200)
    form = canonical_form(jet_gram(k, 0.25))
    # m = 1, n = 1: single 2x2 nilpotent block, strictly upper triangular
    N1 = form.N[0]
    assert N1.shape == (2, 2)
    assert N1[1, 1] == 0
    assert N1[1, 0] == 0
    assert abs(N1[0, 1]) > 0


def test_synthetic_gram_m2_inputs(rng):
    # direct block-inversion oracle: R = (G^-1)[n:, n:]
    for n in (1, 2):
        for _ in range(5):
            G = synthetic_normalized_gram(rng, m=2, n=n)
            gram = gram_from_matrix(G, m=2, n=n)
            form = canonical_form(gram)
            R_oracle = np.linalg.inv(G)[n:, n:]
            resid = np.linalg.norm(form.t @ form.t.conj().T - R_oracle, 2)
            assert resid <= 1e-8 * np.linalg.norm(R_oracle, 2)
            assert verify_tt_identity_gram(gram, form) <= 1e-8


def test_R_is_tt_star_and_the_inverse_block(rng):
    jets = [jet_gram(kc.SeriesKernel.disc_rule(lambda n: (n + 1.0) ** s, 200), w).G
            for s in (0.0, 1.0, 2.5) for w in (0.0, 0.4, 0.3 - 0.5j)]
    cases = [(G, 1, 1) for G in jets] + [
        (synthetic_normalized_gram(rng, m=m, n=n, cond_scale=4.0), m, n)
        for m in (1, 2) for n in (1, 2) for _ in range(3)]
    for G, m, n in cases:
        form = canonical_form(JetGram(G=G, m=m, n=n))
        R_oracle = np.linalg.inv(G)[n:, n:]
        assert np.abs(form.R - R_oracle).max() <= 1e-14 * np.abs(R_oracle).max()
        assert np.all(form.R.diagonal().imag == 0.0)


@pytest.mark.parametrize("delta, accepted", [(2e-6, True), (2e-12, False), (-0.5, False)],
                         ids=["cond-1e6", "cond-1e12", "indefinite"])
def test_canonical_form_conditioning(rng, delta, accepted):
    # G = [[I, C], [C^H, I]] with C = (1 - delta) U, U unitary, has eigenvalues
    # delta and 2 - delta: cond(G) = (2 - delta) / delta, indefinite for delta < 0
    n = 2
    U, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    C = (1.0 - delta) * U
    gram = JetGram(G=np.block([[np.eye(n), C], [C.conj().T, np.eye(n)]]), m=1, n=n)
    if accepted:
        assert canonical_form(gram).t.shape == (n, n)
    else:
        with pytest.raises(NotPositiveDefinite):
            canonical_form(gram)


def test_unnormalized_gram_rejected(rng):
    G = synthetic_normalized_gram(rng, m=1, n=2)
    G[0, 0] = 2.0  # break the top-left identity block
    from rkhs_lab.localop import JetGram

    with pytest.raises(NormalizationMissing):
        canonical_form(JetGram(G=G, m=1, n=2))


def test_function_of_local_block_structure():
    k = kc.SeriesKernel.disc(np.ones(201))
    w = 0.3
    form = canonical_form(jet_gram(k, w))
    # f(N_w) for f(z) = z^2 has f(w) I on the diagonal and f'(w) t off it
    f_val, df_val = w ** 2, 2 * w
    F = function_of_local(form, w, f_val, [df_val])
    assert F[0, 0] == pytest.approx(f_val)
    assert F[1, 1] == pytest.approx(f_val)
    assert F[1, 0] == 0
    assert F[0, 1] == pytest.approx(df_val * form.t[0, 0])


def test_curvature_from_local_form_matches_scalar():
    from rkhs_lab.curvature import curvature_scalar

    k = kc.SeriesKernel.disc_rule(lambda n: (n + 1.0) ** 3, 200)
    w = 0.2 - 0.3j
    form = canonical_form(jet_gram(k, w))
    # R = -1/curvature in the rank-1 case
    assert form.R[0, 0].real == pytest.approx(-1.0 / curvature_scalar(k, w), rel=1e-10)
