import numpy as np
import pytest

from rkhs_lab import kernels as kc
from rkhs_lab.specio import load_kernel

SEED = 20240817


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(SEED)


def disc_kernel(rule, n_max=200, **fields):
    """Disc kernel of a spec coefficient rule: "1", "n+1", or "(n+1)^s" with s=..."""
    return load_kernel({"kind": "disc_diagonal", "coeff_rule": rule, "n_max": n_max, **fields})


def counting(monkeypatch, module, name):
    """Calls of ``module.name``, counted through a monkeypatched wrapper."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def random_contractive_coeffs(rng, size=201, max_step=0.02):
    """a_0 = 1 and a_n nondecreasing: tilde coefficients a_n - a_(n-1) >= 0."""
    steps = rng.uniform(0.0, max_step, size - 1)
    return np.concatenate([[1.0], np.cumprod(1.0 + steps)])


def random_contractive_kernel(rng, size=201):
    return kc.SeriesKernel.disc(random_contractive_coeffs(rng, size))


def synthetic_normalized_gram(rng, m, n, cond_scale=1.0):
    """PSD Gram of a (m+1)-jet frame of rank n with top-left block I_n."""
    dim = (m + 1) * n
    B = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    G = B @ B.conj().T + cond_scale * np.eye(dim)
    # congruence by block-diag(h^-1/2, I) normalizes the top-left block
    from scipy.linalg import block_diag, fractional_matrix_power

    h = G[:n, :n]
    hinvs = fractional_matrix_power(h, -0.5)
    D = block_diag(hinvs, np.eye(dim - n))
    G = D @ G @ D.conj().T
    G[:n, :n] = np.eye(n)  # kill roundoff so the invariant holds exactly
    return G


#: the kernels of the rank-1 parity tests: three disc rules and an annulus
RANK1_SPECS = ({"kind": "disc_diagonal", "coeff_rule": "1"},
               {"kind": "disc_diagonal", "coeff_rule": "n+1"},
               {"kind": "disc_diagonal", "coeff_rule": "(n+1)^s", "s": 1.7},
               {"kind": "annulus_laurent", "r": 0.5, "weight_b": 1})


def rank1_points(seed, count):
    """(kernel, w) pairs: ``count`` seeded points per kernel of RANK1_SPECS,
    a few of them outside the domain, and the points on the axes, where the
    sign of a zero shows."""
    rng = np.random.default_rng(seed)
    pairs = []
    for spec in RANK1_SPECS:
        kernel = load_kernel(spec)
        inner = spec.get("r", 0.0)
        radii = rng.uniform(inner, 1.0, count)
        points = [complex(x) for x in radii * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))]
        axes = [complex(x) for r in (0.0, 0.55, 0.97) for x in (r, -r, r * 1j, -r * 1j)]
        pairs += [(kernel, w) for w in points + axes]
    return pairs


def same_bits(a, b) -> bool:
    """Whether two arrays or numbers hold the same dtype, shape and bytes (so
    -0.0 and 0.0 differ)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
