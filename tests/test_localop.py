"""Canonical local forms: block Cholesky, the t tbar^t = -curvature^-1 identity."""

import mpmath
import numpy as np
import pytest

from rkhs_lab import caratheodory as ca
from rkhs_lab import curvature as cv
from rkhs_lab import kernels as kc
from rkhs_lab import localop as lo
from rkhs_lab import positivity as ps
from rkhs_lab.curvature import JetGram, curvature_matrix, curvature_scalar, frame_from_jet
from rkhs_lab.errors import NonFiniteValue, NotPositiveDefinite, PointOutsideDomain
from rkhs_lab.localop import (canonical_form, jet_gram, verify_tt_identity,
                              verify_tt_identity_gram)
from rkhs_lab.specio import load_kernel
from tests.conftest import (counting, disc_kernel, dual_oracle, random_contractive_kernel, rank1_points,
                            same_bits, synthetic_normalized_gram)


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
    k = disc_kernel("n+1")
    form = canonical_form(jet_gram(k, 0.25))
    # m = 1, n = 1: the nilpotent part N1 = [[0, t], [0, 0]] is one 2x2
    # strictly upper triangular block, nonzero where t is
    assert form.t.shape == (1, 1)
    assert abs(form.t[0, 0]) > 0


@pytest.mark.parametrize("w", [0.0, 0.3, 0.3 + 0.2j, -0.5j, 0.7])
def test_one_frame_normalization_for_kernel_and_matrix(w):
    # the kernel route and the matrix route make the same frame change, so
    # both give R = -1/curvature
    k = disc_kernel("n+1")
    by_kernel = canonical_form(jet_gram(k, w))
    by_matrix = canonical_form(JetGram(kc.jet(k, w, 1), 1, 1))
    assert np.array_equal(by_matrix.t, by_kernel.t)
    assert np.array_equal(by_matrix.R, by_kernel.R)
    assert by_matrix.R[0, 0].real == pytest.approx(-1.0 / curvature_scalar(k, w), rel=1e-12)


def test_curvature_matrix_does_not_depend_on_the_frame_scale(rng):
    # a constant frame change gamma -> gamma s takes every block G_ij to
    # s^H G_ij s, the congruence by S = diag(s, ..., s); the frames made
    # orthonormal differ by a unitary, so the curvature eigenvalues agree
    for m in (1, 2):
        for n in (1, 2):
            for _ in range(5):
                dim = (m + 1) * n
                B = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                G = B @ B.conj().T + 0.5 * np.eye(dim)
                s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2.0 * np.eye(n)
                S = np.kron(np.eye(m + 1), s)
                ev = np.linalg.eigvalsh(curvature_matrix(JetGram(G, m, n)).matrix)
                ev_changed = np.linalg.eigvalsh(
                    curvature_matrix(JetGram(S.conj().T @ G @ S, m, n)).matrix)
                assert np.abs(ev_changed - ev).max() <= 1e-12 * np.abs(ev).max()


REFUSE_NON_FINITE = {
    "gram_from_matrix": lambda G: JetGram(G, 1, 2),  # a JetGram built from the raw matrix
    "curvature_matrix": lambda G: curvature_matrix(JetGram(G=G, m=1, n=2)),
    "generalized_ci_check": lambda G: ca.generalized_ci_check(-G, "ball", [0.1, 0.2], n=2),
}


@pytest.mark.parametrize("call", REFUSE_NON_FINITE.values(), ids=REFUSE_NON_FINITE.keys())
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)],
                         ids=["nan", "inf", "-inf", "nan-imag"])
@pytest.mark.parametrize("where", [(0, 0), (1, 2), (3, 3)], ids=["metric", "mixed", "derivative"])
def test_non_finite_matrix_is_refused(call, entry, where):
    G = np.eye(4, dtype=complex)
    G[where] = entry
    with pytest.raises(NonFiniteValue):
        call(G)


def test_synthetic_gram_m2_inputs(rng):
    # direct block-inversion oracle: R = (G^-1)[n:, n:]
    for n in (1, 2):
        for _ in range(5):
            G = synthetic_normalized_gram(rng, m=2, n=n)
            gram = JetGram(G, m=2, n=n)
            form = canonical_form(gram)
            R_oracle = np.linalg.inv(G)[n:, n:]
            resid = np.linalg.norm(form.t @ form.t.conj().T - R_oracle, 2)
            assert resid <= 1e-8 * np.linalg.norm(R_oracle, 2)
            assert verify_tt_identity_gram(gram, form) <= 1e-8


def test_R_is_tt_star_and_the_inverse_block(rng):
    jets = [jet_gram(disc_kernel("(n+1)^s", s=s), w).G
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


def test_jet_gram_normalizes_the_metric_block(rng):
    # a Gram whose metric block h is not I is made orthonormal when it is built
    for m, n in ((1, 1), (1, 2), (2, 2)):
        dim = (m + 1) * n
        B = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        G = B @ B.conj().T + 0.5 * np.eye(dim)
        assert np.abs(G[:n, :n] - np.eye(n)).max() > 0.1
        gram = JetGram(G, m, n)
        assert np.abs(gram.G[:n, :n] - np.eye(n)).max() <= 1e-14
        assert canonical_form(gram).t.shape == (m * n, m * n)


def test_one_frame_normalization_per_local_point(monkeypatch):
    # the metric block is made I once, when the JetGram is built; neither the
    # curvature matrix nor the tt* check normalizes again
    calls = []
    inv_sqrt = cv._inv_sqrt_hermitian

    def counting(h):
        calls.append(h)
        return inv_sqrt(h)

    monkeypatch.setattr(cv, "_inv_sqrt_hermitian", counting)
    k = disc_kernel("n+1")
    verify_tt_identity(k, 0.3)
    assert len(calls) == 1
    curvature_matrix(frame_from_jet(k, 0.3))
    assert len(calls) == 2


def _matrix_route(jet):
    """JetGram's G, the curvature matrix, t, R and the tt* residual of a kernel
    point by the general numpy formulas: the block product s G_ij s, the Schur
    complement, LAPACK's factor, t t* and eigvalsh of the stacked pair."""
    s = jet[:1, :1].real ** -0.5
    H = (s @ jet.reshape(2, 1, 2, 1).swapaxes(1, 2) @ s).swapaxes(1, 2).reshape(2, 2)
    curvature = -(H[1:, 1:] - H[1:, :1] @ H[:1, 1:])
    t = np.linalg.inv(np.linalg.cholesky(H).conj().T)[1:, 1:]
    R = t @ t.conj().T
    np.fill_diagonal(R, R.diagonal().real)
    target = np.linalg.inv(-curvature)
    resid, scale = np.abs(np.linalg.eigvalsh(np.stack((R - target, target)))).max(axis=1)
    return H, curvature, t, R, float(resid / scale)


def test_the_rank1_chain_is_the_general_formulas_to_the_bit():
    # a kernel point's jet Gram, curvature matrix, t, R = t t* and residual are
    # taken in Python scalars, with the bits of the matrix route, zero signs too
    checked = 0
    for kernel, w in rank1_points(29, 75):
        try:
            jet = kc.jet(kernel, w, 1)
        except PointOutsideDomain:
            continue
        gram = JetGram(jet, 1, 1)
        form = canonical_form(gram)
        H, curvature, t, R, residual = _matrix_route(jet)
        assert same_bits(gram.G, H), w
        assert same_bits(curvature_matrix(gram).matrix, curvature), w
        assert same_bits(form.t, t) and same_bits(form.R, R), w
        assert verify_tt_identity_gram(gram, form) == residual, w
        assert same_bits(jet_gram(kernel, w).G, H), w
        checked += 1
    assert checked > 250


def test_a_rank1_jet_gram_of_more_variables_is_the_block_product_to_the_bit(rng):
    # n = 1 scales every entry by the float s twice, for any m
    for m in (1, 2, 3):
        for _ in range(30):
            B = rng.normal(size=(m + 1, m + 1)) + 1j * rng.normal(size=(m + 1, m + 1))
            G = (B @ B.conj().T) * 10.0 ** rng.uniform(-100.0, 100.0)
            s = G[:1, :1].real ** -0.5
            blocks = G.reshape(m + 1, 1, m + 1, 1).swapaxes(1, 2)
            want = (s @ blocks @ s).swapaxes(1, 2).reshape(m + 1, m + 1)
            assert same_bits(JetGram(G, m, 1).G, want)


def test_a_jet_gram_that_overflows_when_normalized_is_refused():
    # h = 1e-245 makes s^2 = 1e245, and 1e64 s^2 is not a double
    kernel = kc.SeriesKernel.disc([1e-245, 1e64])
    for call in (lambda: jet_gram(kernel, 0.0), lambda: verify_tt_identity(kernel, 0.0),
                 lambda: JetGram(np.diag([1e-245, 1e64]), 1, 1),
                 lambda: JetGram(np.diag([1e-245, 1e-245, 1e64, 1e64]), 1, 2)):
        with pytest.raises(NonFiniteValue, match="^the normalized Gram has a non-finite entry$"):
            call()


def test_a_scalar_local_point_makes_no_lapack_call(monkeypatch):
    # a rank-1 point takes the 1 x 1 metric root, the 2 x 2 factor and the
    # 1 x 1 residual in closed form; an m = 2, n = 2 Gram still factors through
    # LAPACK: one eigh for its metric root, one cholesky and one inv for its
    # factor, one inv and one eigvalsh for its residual
    calls = {name: counting(monkeypatch, np.linalg, name)
             for name in ("eigh", "cholesky", "inv", "eigvalsh")}
    assert verify_tt_identity(disc_kernel("n+1"), 0.3 + 0.2j) < 1e-12
    assert {name: len(c) for name, c in calls.items()} == {
        "eigh": 0, "cholesky": 0, "inv": 0, "eigvalsh": 0}
    rng = np.random.default_rng(2)  # the shared rng fixture keeps its draws for other tests
    gram = JetGram(synthetic_normalized_gram(rng, m=2, n=2), 2, 2)
    assert verify_tt_identity_gram(gram, canonical_form(gram)) < 1e-8
    assert {name: len(c) for name, c in calls.items()} == {
        "eigh": 1, "cholesky": 1, "inv": 2, "eigvalsh": 1}


def test_canonical_form_is_one_call_of_the_definite_test(monkeypatch):
    # the Cholesky factor and the conditioning rule live in positivity alone
    assert lo.inverse_factor is ps.inverse_factor
    assert not hasattr(lo, "COND_LIMIT")
    calls = []

    def counting(G):
        calls.append(G)
        return ps.inverse_factor(G)

    monkeypatch.setattr(lo, "inverse_factor", counting)
    gram = jet_gram(disc_kernel("n+1"), 0.3)
    canonical_form(gram)
    assert len(calls) == 1 and calls[0] is gram.G


def test_curvature_from_local_form_matches_scalar():
    from rkhs_lab.curvature import curvature_scalar

    k = disc_kernel("(n+1)^s", s=3)
    w = 0.2 - 0.3j
    form = canonical_form(jet_gram(k, w))
    # R = -1/curvature in the rank-1 case
    assert form.R[0, 0].real == pytest.approx(-1.0 / curvature_scalar(k, w), rel=1e-10)


def _mp_local_form(kernel, w):
    """(t, R) of the rank-1 local form at w from the 40-digit diagonal sums of
    the kernel's own source, its window or the exact dual sums of a kernel of
    the dual form: the Cholesky factor of the 2 x 2 jet Gram made orthonormal
    at w has l11^2 = (J00 J11 - |J01|^2) / J00^2, and t = 1 / l11."""
    with mpmath.workdps(40):
        r = mpmath.mpf(abs(w))
        if kernel.dual:
            j00, j01, j11 = dual_oracle(kernel, abs(w), 1)
        else:
            terms = [(mpmath.mpf(a), int(n)) for a, n in zip(kernel.coeffs, kernel.ns)]
            j00 = mpmath.fsum(a * r ** (2 * n) for a, n in terms)
            j01 = mpmath.fsum(a * n * r ** (2 * n - 1) for a, n in terms)
            j11 = mpmath.fsum(a * n * n * r ** (2 * n - 2) for a, n in terms)
        t = j00 / mpmath.sqrt(j00 * j11 - j01 ** 2)
        return t, t * t


@pytest.mark.parametrize("kernel, radii", [
    (disc_kernel("n+1"), (0.0, 0.85)),
    (disc_kernel("(n+1)^s", s=1.7), (0.0, 0.85)),
    (load_kernel({"kind": "annulus_laurent", "r": 0.5, "weight_b": 1}), (0.55, 0.9)),
], ids=["n+1", "(n+1)^1.7", "annulus-b1"])
def test_rank1_local_form_matches_a_40_digit_cholesky(kernel, radii):
    # t itself, against an independent factor: the tt* residual cannot see an
    # error of t, since t and its target come from the same normalized Gram
    rng = np.random.default_rng(29)
    radius = rng.uniform(*radii, 30)
    for w in radius * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 30)):
        form = canonical_form(jet_gram(kernel, w))
        t, R = _mp_local_form(kernel, w)
        assert form.t.imag == 0.0 and form.R.imag == 0.0
        assert abs(form.t[0, 0].real - t) <= 1e-13 * t, w
        assert abs(form.R[0, 0].real - R) <= 1e-13 * R, w
