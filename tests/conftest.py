import mpmath
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


def window_of(kernel):
    """The Laurent window of an annulus kernel as a hand-built kernel, whose
    diagonal sums then come from the window too, not from the dual form."""
    return kc.SeriesKernel(kernel.n_min, kernel.coeffs, kernel.inner_radius)


def dual_sums_mp(r, b, rho, order, szego=False, dps=40):
    """The diagonal sums S_pq = sum_n a_n F_p(n) F_q(n) rho^(2n - p - q), q <= p <= order,
    packed row by row, of the weighted Bergman kernel of rho^b (or the Szego
    kernel) on the annulus r < |z| < 1 at |w| = rho, to ``dps`` digits.

    K(w, w) is the Poisson-summed dual of its Laurent series: with L = ln(1/r),
    s = -2 ln rho and u_k = (pi / 2L)(s + 2 pi i k),
    K_b = rho^-(2 + b) pi / (4 L^2) sum_k e^(i pi b k) csc^2 u_k and
    S = rho^-1 / (4L) sum_k (-1)^k csc u_k.  |k| runs up to where q~^|k|
    (q~ = exp(-2 pi^2 / L); sqrt(q~) for S) is below 10^-(dps + 10).  A factor
    n of the series is theta = t d/dt = -d/ds (t = rho^2), and the derivatives
    in s are mpmath's numerical ones, so nothing is shared with the library's
    recurrences."""
    with mpmath.workdps(dps):
        r, b, rho = mpmath.mpf(r), mpmath.mpf(b), mpmath.mpf(rho)
        L = mpmath.log(1 / r)
        decay = mpmath.pi ** 2 / L * (1 if szego else 2)
        top = int(mpmath.ceil((dps + 10) * mpmath.log(10) / decay))
        c = mpmath.pi / (2 * L)

        def kernel(s):
            total = 0
            for k in range(-top, top + 1):
                u = c * (s + 2j * mpmath.pi * k)
                total += ((-1) ** k / mpmath.sin(u) if szego
                          else mpmath.expj(mpmath.pi * b * k) / mpmath.sin(u) ** 2)
            if szego:
                return (mpmath.exp(s / 2) / (4 * L) * total).real
            return (mpmath.exp((2 + b) * s / 2) * mpmath.pi / (4 * L ** 2) * total).real

        theta = [(-1) ** j * d for j, d in
                 enumerate(mpmath.diffs(kernel, -2 * mpmath.log(rho), 2 * order))]

        def falling(p):  # F_p(theta), ascending in theta
            poly = [mpmath.mpf(1)]
            for i in range(p):
                poly = [(poly[j - 1] if j else 0) - (i * poly[j] if j < len(poly) else 0)
                        for j in range(len(poly) + 1)]
            return poly

        sums = []
        for p in range(order + 1):
            for q in range(p + 1):
                total = 0
                for i, x in enumerate(falling(p)):
                    for j, y in enumerate(falling(q)):
                        total += x * y * theta[i + j]
                sums.append(total / rho ** (p + q))
        return sums


def laurent_sums_mp(r, b, rho, order, szego=False, top=600, dps=40):
    """The sums of :func:`dual_sums_mp` as the Laurent series itself, over the
    terms n = -top..top, a_n = (2n + 2 + b) / (2 pi (1 - r^(2n + 2 + b))) (1 / (2 pi L)
    where 2n + 2 + b = 0) or, for the Szego kernel, 1 / (2 pi (1 + r^(2n + 1)))."""
    pairs = [(p, q) for p in range(order + 1) for q in range(p + 1)]
    with mpmath.workdps(dps):
        r, b, rho = mpmath.mpf(r), mpmath.mpf(b), mpmath.mpf(rho)
        sums = [mpmath.mpf(0)] * len(pairs)
        for n in range(-top, top + 1):
            if szego:
                a = 1 / (2 * mpmath.pi * (1 + r ** (2 * n + 1)))
            else:
                e = 2 * n + 2 + b
                a = e / (2 * mpmath.pi * (1 - r ** e)) if e else 1 / (2 * mpmath.pi * mpmath.log(1 / r))
            fall = [1]
            for i in range(order):
                fall.append(fall[-1] * (n - i))
            for i, (p, q) in enumerate(pairs):
                sums[i] += a * fall[p] * fall[q] * rho ** (2 * n - p - q)
        return sums


def dual_oracle(kernel, rho, order):
    """:func:`dual_sums_mp` of an annulus kernel built with its dual form."""
    e, b = kernel.dual
    return dual_sums_mp(kernel.inner_radius, b, rho, order, szego=e == 1)


def curvature_mp(sums):
    """(S10 / S00)^2 - S11 / S00 of 40-digit sums [S00, S10, S11, ...]."""
    with mpmath.workdps(40):
        return (sums[1] / sums[0]) ** 2 - sums[2] / sums[0]
