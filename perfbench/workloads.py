"""The three workloads: seeded op generators with an oracle for every op.

Every input (coefficients, specs, points, seeds) is generated here from the
workload seed; rkhs_lab receives only those.  Library calls go through the
module objects (``cv.curvature_scalar``, not a name bound at import), so
the spans the tracer installs in those modules see them.

Why these workloads:

* cli-batch: users run batch checks through the ``rkhs-lab`` command.
  Interpreter start and ``import rkhs_lab`` dominate each call and the
  numerical layers do little, so lazy imports move it and a faster series
  layer barely does.
* curvature-grids: one-point diagonal jets at scale, on power-series and
  Laurent windows.  The kernels.jet, curvature and annulus layers do most of
  the work; the sampled Gram does none.
* shift-verdicts: two-point and closed-form use of the same kernels layer
  (eval_kernel, deriv2) through positivity and extremality, so a gain for
  diagonal jets that costs two-point or closed-form calls shows here.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import tempfile
import traceback
from collections import namedtuple
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from harness import Op
from rkhs_lab import annulus as an
from rkhs_lab import caratheodory as ca
from rkhs_lab import cli
from rkhs_lab import curvature as cv
from rkhs_lab import extremality as ex
from rkhs_lab import kernels as kc
from rkhs_lab import localop as lo
from rkhs_lab import positivity as ps
from rkhs_lab import specio
from rkhs_lab.errors import KernelLabError

TIMED_STREAM = 0
WARMUP_STREAM = 1
PROBE_TERMS = 200
PROBE_REPS = 1200
PROBE_IMPORTS = "import numpy, scipy.linalg, click"

RADII = (0.3, 0.5, 0.7)
B_LOW, B_HIGH = -2, 3  # integer weight exponents b, inclusive
DISC_RADIUS = 0.9
ANNULUS_OUTER = 0.9
ANNULUS_MARGIN = 0.06  # inner edge of the band where the Laurent window converges

GEOMETRIC = {"kind": "disc_diagonal", "coeff_rule": "1"}
BERGMAN = {"kind": "disc_diagonal", "coeff_rule": "n+1"}
CASE_2 = [1.0, 1.0] + [2.0 * 2.0 ** j for j in range(60)]  # ExtremalAtZeroOnly

CURVATURE_RTOL = 1e-10
CI_TOL = 1e-8
TT_TOL = 1e-8
EXTREMAL_RTOL = 1e-8
MOBIUS_TOL = 1e-6
NORMALIZE_RTOL = 1e-8
QUAD_RTOL = 1e-10
CHARACTER_TOL = 1e-9

CHARACTER_DEFECT = {
    1: "character_equivalence finds b and b+1 equivalent at r=0.5: the curvature "
       "gap (~4e-10) is below its 1e-8 threshold",
    2: "character_equivalence finds b and b+2 inequivalent at r=0.7: the curvature "
       "gap (~2e-7) is above its 1e-8 threshold",
}


# ---------------------------------------------------------------------------
# input generation

def disc_points(rng, count, radius):
    rho = rng.uniform(0.0, radius, count)
    return rho * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))


def annulus_points(rng, count, r):
    rho = rng.uniform(r + ANNULUS_MARGIN, ANNULUS_OUTER, count)
    return rho * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))


def contractive_coeffs(rng, size=201, max_step=0.02):
    """a_0 = 1, a_n non-decreasing: the tilde coefficients are non-negative."""
    return np.concatenate([[1.0], np.cumprod(1.0 + rng.uniform(0.0, max_step, size - 1))])


def noncontractive_coeffs(rng, size=201, max_step=0.02):
    steps = rng.uniform(-max_step, max_step, size - 1)
    steps[rng.integers(size - 1)] = -max_step  # at least one decrease
    return np.concatenate([[1.0], np.cumprod(1.0 + steps)])


def custom(coeffs) -> dict:
    return {"kind": "disc_diagonal", "coeff_rule": "custom-list",
            "coeffs": [float(c) for c in coeffs]}


def annulus_spec(r, b) -> dict:
    return {"kind": "annulus_laurent", "r": r, "weight_b": b}


def radius_and_exponent(rng):
    return float(rng.choice(RADII)), int(rng.integers(B_LOW, B_HIGH + 1))


class Workload:
    """Seeded op stream: cycles of every kind, shuffled within a cycle."""

    kinds: tuple = ()
    probe_reps = PROBE_REPS  # the probe takes about a tenth of a typical op

    def build(self, kind: str, rng) -> Op:
        raise NotImplementedError

    def ops(self, seed: int, stream: int = TIMED_STREAM):
        for cycle in itertools.count():
            rng = np.random.default_rng([seed, stream, cycle])
            for kind in rng.permutation(len(self.kinds)):
                yield self.build(self.kinds[kind], rng)

    def warmup_ops(self, seed: int) -> list:
        """One op of each kind, from inputs the timed phase never uses."""
        return list(itertools.islice(self.ops(seed, WARMUP_STREAM), len(self.kinds)))

    def probe(self) -> None:
        """Reference work that never calls rkhs_lab, timed after every op:
        Python-level loops over small numpy series, like the kernel layers
        (about 15 ms at PROBE_REPS on a 2-CPU Xeon VM)."""
        n = np.arange(PROBE_TERMS, dtype=float)
        for k in range(self.probe_reps):
            w = complex(0.3 + 0.01 * (k % 50), 0.2)
            np.cumsum((abs(w) ** 2) ** n * (n + 1.0))
            sum(i * i for i in range(40))

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# oracles

def curvature_bound(points):
    return -(1.0 - np.abs(points) ** 2) ** -2


def closed_form(factor):
    """Curvature of (1 - z wbar)^-factor is -factor (1 - |w|^2)^-2."""
    def check(values, points):
        expected = factor * curvature_bound(points)
        worst = float(np.max(np.abs(values - expected) / np.abs(expected)))
        if worst > CURVATURE_RTOL:
            return f"curvature off the closed form by {worst:.2e} relative"
        return None
    return check


def curvature_inequality(values, points):
    excess = float(np.max(values - curvature_bound(points)))
    if excess > CI_TOL:
        return f"curvature inequality violated by {excess:.2e}"
    return None


def expected_verdicts(a) -> dict:
    """Verdicts a diagonal shift with coefficients a must get, derived from
    the coefficients alone; "class" is at 0 and at a point away from 0."""
    a = np.asarray(a, dtype=float)
    tilde = np.diff(a)
    contractive = bool(tilde.min() >= -1e-10 * max(1.0, a[0], np.abs(tilde).max()))
    weights = np.sqrt(a[:-1] / a[1:])
    hyponormal = bool(np.diff(weights).min() >= -1e-10)
    inv = 1.0 / a
    two_hyper = bool((inv[:-2] - 2.0 * inv[1:-1] + inv[2:]).min() >= -1e-10)
    backward_shift = bool(np.all(np.abs(weights - 1.0) <= 1e-8))
    if not contractive:
        no = "NotAContraction"
        return {"contraction": False, "hyponormal": hyponormal, "two_hyper": no,
                "class": [no, no], "pipeline": ["contraction"] * 3}
    # F_K(0) = a_0 (a_1 - a_0): equality at the origin iff a_1 = a_0
    if a[1] == a[0]:
        at_zero = ("ExtremalEverywhere" if backward_shift or hyponormal
                   else "ExtremalAtZeroOnly")
    else:
        at_zero = "NotExtremal"
    # equality away from the origin forces the backward shift
    away = "ExtremalEverywhere" if backward_shift else "NotExtremal"
    if not two_hyper:
        step = "two-hypercontraction"
    elif backward_shift:
        step = None
    else:
        step = "curvature-equality-at-zero"
    return {"contraction": True, "hyponormal": hyponormal, "two_hyper": two_hyper,
            "class": [at_zero, away], "pipeline": [step] * 3}


def typed(fn):
    """Result of fn(), or the name of the typed library error it raised."""
    try:
        return fn()
    except KernelLabError as exc:
        return type(exc).__name__


# ---------------------------------------------------------------------------
# curvature-grids

# Grid sizes give every kind but the single quad build about the same cost
# (~165 ms on a 2-CPU Xeon VM), so the latency percentiles do not hinge on
# which kinds one run happens to end with.
DISC_GRID = 600
STRICT_CI_GRID = 115
EXTREMAL_GRID = 150
TT_GRID = 110
TT_RADIUS = 0.85
CARA_GRID = 11
CHARACTER_GRID = 100


class CurvatureGrids(Workload):
    kinds = ("disc-geometric", "disc-bergman", "disc-power", "disc-random",
             "annulus-strict-ci", "annulus-extremal", "local-op-tt",
             "caratheodory-ci", "character-b+1", "character-b+2", "quad-bergman")

    def build(self, kind, rng):
        if kind == "disc-geometric":
            return self.disc(kind, GEOMETRIC, rng, closed_form(1.0))
        if kind == "disc-bergman":
            return self.disc(kind, BERGMAN, rng, closed_form(2.0))
        if kind == "disc-power":
            spec = {"kind": "disc_diagonal", "coeff_rule": "(n+1)^s",
                    "s": float(rng.uniform(0.3, 3.0))}
            return self.disc(kind, spec, rng, curvature_inequality)
        if kind == "disc-random":
            return self.disc(kind, custom(contractive_coeffs(rng)), rng,
                             curvature_inequality)
        if kind == "annulus-strict-ci":
            return self.strict_ci(rng)
        if kind == "annulus-extremal":
            return self.extremal(rng)
        if kind == "local-op-tt":
            return self.local_op(rng)
        if kind == "caratheodory-ci":
            return self.caratheodory(rng)
        if kind.startswith("character-b+"):
            return self.character(kind, int(kind[-1]), rng)
        return self.quad_bergman(rng)

    @staticmethod
    def disc(kind, spec, rng, oracle):
        points = disc_points(rng, DISC_GRID, DISC_RADIUS)

        def call():
            k = specio.load_kernel(spec)
            return np.array([cv.curvature_scalar(k, w) for w in points])

        return Op(kind, call, lambda values: oracle(values, points), points=points.size)

    @staticmethod
    def strict_ci(rng):
        r, b = radius_and_exponent(rng)
        points = annulus_points(rng, STRICT_CI_GRID, r)

        def call():
            k = specio.load_kernel(annulus_spec(r, b))
            spec, weight = an.AnnulusSpec(r=r), an.RadialWeight.power_law(float(b))
            return [(cv.curvature_scalar(k, w), an.strict_ci_check(spec, weight, w, kernel=k))
                    for w in points]

        def check(rows):
            curv, slack = np.array(rows).T
            if not (slack > 0.0).all():
                return f"strict CI slack {slack.min():.3e} is not > 0 (r={r}, b={b})"
            if not (curv < 0.0).all():
                return f"curvature {curv.max():.3e} is not negative (r={r}, b={b})"
            return None

        return Op("annulus-strict-ci", call, check, points=points.size)

    @staticmethod
    def extremal(rng):
        r, b = radius_and_exponent(rng)
        points = annulus_points(rng, EXTREMAL_GRID, r)

        def call():
            k = specio.load_kernel(annulus_spec(r, b))
            return np.array([(an.extremal_problem_value(k, w), an.extremal_problem_ls(k, w))
                             for w in points])

        def check(rows):
            worst = float(np.max(np.abs(rows[:, 0] - rows[:, 1]) / np.abs(rows[:, 0])))
            if worst > EXTREMAL_RTOL:
                return f"closed form and least squares differ by {worst:.2e} (r={r}, b={b})"
            return None

        return Op("annulus-extremal", call, check, points=points.size)

    @staticmethod
    def local_op(rng):
        spec = {"kind": "disc_diagonal", "coeff_rule": "(n+1)^s",
                "s": float(rng.uniform(0.3, 2.0))}
        points = disc_points(rng, TT_GRID, TT_RADIUS)

        def call():
            k = specio.load_kernel(spec)
            residuals = []
            for w in points:
                lo.canonical_form(lo.jet_gram(k, w))
                residuals.append(lo.verify_tt_identity(k, w))
            return np.array(residuals)

        def check(residuals):
            if residuals.max() > TT_TOL:
                return f"tt* residual {residuals.max():.2e} > {TT_TOL:.0e}"
            return None

        return Op("local-op-tt", call, check, points=points.size)

    @staticmethod
    def caratheodory(rng):
        spec = custom(contractive_coeffs(rng))
        points = disc_points(rng, CARA_GRID, TT_RADIUS)

        def call():
            k = specio.load_kernel(spec)
            rows = []
            for w in points:
                K = cv.curvature_matrix(cv.frame_from_jet(k, w)).matrix
                verdict = ca.generalized_ci_check(K, "ball", [w])
                rows.append((verdict.passed, verdict.worst_margin, K[0, 0].real))
            return rows

        def check(rows):
            for (passed, margin, k00), w in zip(rows, points):
                # for a 1x1 curvature every unit vector has margin K00 + (1-|w|^2)^-2
                expected = k00 - curvature_bound(w)
                if not passed or abs(margin - expected) > 1e-9 * max(1.0, abs(k00)):
                    return f"Caratheodory CI at w={w:.3f}: passed={passed}, margin {margin:.3e}"
            return None

        return Op("caratheodory-ci", call, check, points=points.size)

    @staticmethod
    def character(kind, offset, rng):
        # every radius in every op: whether an op meets a known defect then
        # depends on its kind alone, not on the seed or the run length
        b = int(rng.integers(B_LOW, B_HIGH + 1))

        def call():
            return [an.character_equivalence(an.AnnulusSpec(r=r), float(b), float(b + offset),
                                             grid_points=CHARACTER_GRID)
                    for r in RADII]

        def check(verdicts):
            for r, verdict in zip(RADII, verdicts):
                # characters of rho^b are (-1)^b: equal exactly when b1 - b2 is even
                if verdict.predicted != (offset % 2 == 0):
                    return f"predicted equivalence {verdict.predicted} for b={b}, b+{offset}"
                if not verdict.agree:
                    return (f"measured {verdict.measured} against predicted {verdict.predicted} "
                            f"(r={r}, b={b}, b+{offset}, gap {verdict.max_curvature_diff:.1e})")
            return None

        return Op(kind, call, check, points=2 * CHARACTER_GRID * len(RADII),
                  known_defect=CHARACTER_DEFECT[offset])

    @staticmethod
    def quad_bergman(rng):
        r, b = radius_and_exponent(rng)

        def call():
            weight = an.RadialWeight.from_profile(lambda rho: rho ** b)
            return an.weighted_bergman_kernel(an.AnnulusSpec(r=r), weight)

        def check(k):
            # closed form of |z^n|^2 = 2 pi int_r^1 rho^(2n+1+b) drho
            e = 2.0 * k.ns + 2.0 + b
            with np.errstate(divide="ignore", invalid="ignore"):
                norm = np.where(e == 0.0, np.log(1.0 / r), (1.0 - r ** e) / e)
            worst = float(np.max(np.abs(k.coeffs * 2.0 * np.pi * norm - 1.0)))
            if worst > QUAD_RTOL:
                return f"quad coefficients off the power-law closed form by {worst:.2e}"
            return None

        return Op("quad-bergman", call, check)


# ---------------------------------------------------------------------------
# shift-verdicts

PIPELINE_POINTS = (0.0, 0.3, 0.5)


def small_point(rng, lo_radius, hi_radius):
    return complex(rng.uniform(lo_radius, hi_radius)
                   * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))


class ShiftVerdicts(Workload):
    # Sparse tilde series make the geometric and case-2 verdict sets about
    # twice as fast as the others.  Four slow kinds of six keep the median
    # inside the slow cluster instead of at its edge.
    kinds = ("contractive", "power", "non-contractive", "geometric", "bergman", "case-2")
    probe_reps = 6 * PROBE_REPS

    def warmup_ops(self, seed):
        """Every op runs the same verdict set; the geometric shift takes it
        down the deepest path (every pipeline step), so one op warms it all."""
        return [self.build("geometric", np.random.default_rng([seed, WARMUP_STREAM]))]

    def build(self, kind, rng):
        if kind == "contractive":
            a = contractive_coeffs(rng)
            spec = custom(a)
        elif kind == "power":
            # (n+1)^s, 0 < s <= 1: 2-hypercontractive, stops at curvature equality
            a = (np.arange(201.0) + 1.0) ** rng.uniform(0.2, 1.0)
            spec = custom(a)
        elif kind == "non-contractive":
            a = noncontractive_coeffs(rng)
            spec = custom(a)
        elif kind == "geometric":
            a, spec = np.ones(201), GEOMETRIC
        elif kind == "bergman":
            a, spec = np.arange(1.0, 202.0), BERGMAN
        else:
            a = np.array(CASE_2)
            spec = custom(a)
        zeta = small_point(rng, 0.05, 0.6)
        mob_a, mob_z = small_point(rng, 0.0, 0.3), small_point(rng, 0.0, 0.3)
        norm_zeta, norm_z = small_point(rng, 0.0, 0.4), small_point(rng, 0.0, 0.4)
        gram_seed = int(rng.integers(2 ** 31))
        expected = expected_verdicts(a)

        def call():
            k = specio.load_kernel(spec)
            curv = cv.curvature_scalar(k, norm_z)
            normalized = cv.curvature_scalar(kc.normalize_at(k, norm_zeta), norm_z)
            return {
                "contraction": ps.contraction_check(k, seed=gram_seed).passed,
                "hyponormal": ps.hyponormal_check(k).passed,
                "two_hyper": typed(lambda: ps.two_hypercontraction_check(k).passed),
                "class": [typed(lambda z=z: ex.classify_shift(k, z).classification)
                          for z in (0.0, zeta)],
                "pipeline": [ex.uniqueness_pipeline_check(k, z).failed_step
                             for z in PIPELINE_POINTS],
                "mobius": cv.mobius_rule_check(k, mob_a, mob_z),
                "normalize": abs(normalized - curv) / abs(curv),
            }

        def check(out):
            for key, want in expected.items():
                if out[key] != want:
                    return f"{key}: got {out[key]!r}, expected {want!r}"
            if out["mobius"] > MOBIUS_TOL:
                return f"Mobius covariance residual {out['mobius']:.2e}"
            if out["normalize"] > NORMALIZE_RTOL:
                return f"normalize_at changed the curvature by {out['normalize']:.2e}"
            return None

        return Op(kind, call, check)


# ---------------------------------------------------------------------------
# cli-batch

CliResult = namedtuple("CliResult", "rc stdout stderr")
CLI_ENTRY = "import sys; from rkhs_lab.cli import main; sys.exit(main(prog_name='rkhs-lab'))"
CLI_TIMEOUT_S = 120
CLI_GRID = 10  # grid steps of every grid command, as in the README examples
TRACEBACK = b"Traceback (most recent call last)"

OUTSIDE_DEFECT = ("curvature at |w| = 1.2 exits 0 with a value: the jet path "
                  "skips the domain check")
ANNULUS_CHECK_DEFECT = ("check on an annulus_laurent spec dies with a ValueError "
                        "traceback instead of a JSON diagnostic")


def csv_rows(stdout: bytes):
    lines = stdout.decode().splitlines()
    return [line.split(",") for line in lines[1:]]


def json_diagnostic(stderr: bytes) -> bool:
    lines = stderr.decode(errors="replace").strip().splitlines()
    try:
        return "error" in json.loads(lines[-1])
    except (IndexError, ValueError, TypeError):
        return False


class CliBatch(Workload):
    """Sequential ``rkhs-lab`` invocations, as subprocesses or in process.

    Each call is a fresh interpreter, so one warm-up call fills the bytecode
    cache that every later call reads; there is no per-command warm state.
    """

    kinds = ("curvature-disc", "local-op", "check-file", "extremal", "ci-check-readme",
             "annulus-character", "curvature-annulus", "ci-check-annulus",
             "annulus-szego", "annulus-bergman", "annulus-strict-ci",
             "bad-json", "missing-file", "check-annulus", "curvature-outside")

    def __init__(self, root: Path, env: dict, in_process: bool):
        self.root, self.env, self.in_process = root, env, in_process
        out = root / "perfbench" / "out"
        out.mkdir(parents=True, exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix="cli-", dir=out))
        self.references = {}
        self.files = itertools.count()

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)

    def warmup_ops(self, seed):
        return list(itertools.islice(self.ops(seed, WARMUP_STREAM), 1))

    def probe(self):
        """A fresh interpreter that imports what rkhs_lab imports first,
        but not rkhs_lab: interpreter start and import, like every call."""
        subprocess.run([sys.executable, "-c", PROBE_IMPORTS], cwd=self.root, env=self.env,
                       capture_output=True, check=True, timeout=CLI_TIMEOUT_S)

    # -- running

    def spawn(self, argv) -> CliResult:
        proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], cwd=self.root,
                              env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S)
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    @staticmethod
    def invoke(argv) -> CliResult:
        res = CliRunner().invoke(cli.main, argv, prog_name="rkhs-lab")
        err = res.stderr_bytes
        if res.exception is not None and not isinstance(res.exception, SystemExit):
            err += "".join(traceback.format_exception(*res.exc_info)).encode()
        return CliResult(res.exit_code, res.stdout_bytes, err)

    def reference(self, argv) -> CliResult:
        key = tuple(argv)
        if key not in self.references:
            self.references[key] = self.invoke(argv)
        return self.references[key]

    def make_op(self, kind, argv, expect_rc=0, extra=None, known_defect=None):
        def call():
            return self.invoke(argv) if self.in_process else self.spawn(argv)

        def check(res):
            if TRACEBACK in res.stderr:
                return "printed a traceback"
            if res.rc != expect_rc:
                return f"exit {res.rc}, expected {expect_rc}"
            if res.rc == 1 and not json_diagnostic(res.stderr):
                return "exit 1 without a JSON diagnostic on stderr"
            if not self.in_process and res.stdout != self.reference(argv).stdout:
                return "stdout differs from the in-process CliRunner output"
            return extra(res.stdout) if extra else None

        return Op(kind, call, check, known_defect=known_defect)

    # -- inputs and oracles

    def build(self, kind, rng):
        r, b = radius_and_exponent(rng)
        band = f"{r + ANNULUS_MARGIN:.2f}:{ANNULUS_OUTER}:{CLI_GRID}"
        ann = json.dumps(annulus_spec(r, b))
        geo = json.dumps(GEOMETRIC)
        if kind == "curvature-disc":
            stop = round(float(rng.uniform(0.8, 0.9)), 4)

            def closed(stdout):
                rows = np.array(csv_rows(stdout), dtype=float)
                return closed_form(1.0)(rows[:, 1], rows[:, 0])

            return self.make_op(kind, ["curvature", "--kernel", geo, "--grid",
                                       f"0:{stop}:{CLI_GRID}", "--out", "-"], extra=closed)
        if kind == "local-op":
            w = small_point(rng, 0.0, 0.6)

            def local(stdout):
                out = json.loads(stdout)
                if out["residual"] > TT_TOL:
                    return f"tt* residual {out['residual']:.2e}"
                return closed_form(2.0)(np.array([out["curvature"]]), np.array([w]))

            return self.make_op(kind, ["local-op", "--kernel", json.dumps(BERGMAN),
                                       "--at", repr(w), "--out", "-"], extra=local)
        if kind == "check-file":
            # (n+1)^s with 0 < s <= 1: contractive, and 1/a_n is convex
            n = np.arange(201.0)
            path = self.scratch / f"spec-{next(self.files)}.json"
            path.write_text(json.dumps(custom((n + 1.0) ** rng.uniform(0.2, 1.0))))

            def passed(stdout):
                verdicts = json.loads(stdout)["verdicts"]
                bad = [name for name, v in verdicts.items() if not v["passed"]]
                return f"verdicts failed: {bad}" if bad else None

            return self.make_op(kind, ["check", "--kernel", str(path), "--tests",
                                       "contraction,2hyper", "--seed",
                                       str(int(rng.integers(2 ** 31)))], extra=passed)
        if kind == "extremal":
            zeta = small_point(rng, 0.0, 0.6)

            def everywhere(stdout):
                got = json.loads(stdout)["classification"]
                return None if got == "ExtremalEverywhere" else f"classified {got}"

            return self.make_op(kind, ["extremal", "--kernel", geo, "--at", repr(zeta)],
                                extra=everywhere)
        if kind == "ci-check-readme":
            return self.make_op(kind, ["ci-check", "--kernel", json.dumps(annulus_spec(0.5, 0)),
                                       "--grid", f"0.55:0.9:{CLI_GRID}", "--out", "-"])
        if kind == "annulus-character":
            def character(stdout):
                gamma = complex(json.loads(stdout)["gamma"])
                if abs(gamma - (-1) ** b) > CHARACTER_TOL:
                    return f"gamma {gamma} for rho^{b}, expected {(-1) ** b}"
                return None

            return self.make_op(kind, ["annulus", "--task", "character", "--r", str(r),
                                       "--weight", f"rho^{b}"], extra=character)
        if kind == "curvature-annulus":
            return self.make_op(kind, ["curvature", "--kernel", ann, "--grid", band])
        if kind == "ci-check-annulus":
            return self.make_op(kind, ["ci-check", "--kernel", ann, "--domain", "annulus",
                                       "--r", str(r), "--weight", f"rho^{b}",
                                       "--grid", band], extra=positive_slack)
        if kind == "annulus-szego":
            return self.make_op(kind, ["annulus", "--task", "szego", "--r", str(r),
                                       "--grid", band])
        if kind == "annulus-bergman":
            return self.make_op(kind, ["annulus", "--task", "bergman", "--r", str(r),
                                       "--weight", f"rho^{b}", "--grid", band])
        if kind == "annulus-strict-ci":
            return self.make_op(kind, ["annulus", "--task", "strict-ci", "--r", str(r),
                                       "--weight", f"rho^{b}", "--grid", band],
                                extra=positive_slack)
        if kind == "bad-json":
            cut = int(rng.integers(1, len(geo) - 1))
            return self.make_op(kind, ["curvature", "--kernel", geo[:cut]], expect_rc=1)
        if kind == "missing-file":
            return self.make_op(kind, ["curvature", "--kernel",
                                       str(self.scratch / f"missing-{next(self.files)}.json")],
                                expect_rc=1)
        if kind == "check-annulus":
            return self.make_op(kind, ["check", "--kernel", ann], expect_rc=1,
                                known_defect=ANNULUS_CHECK_DEFECT)
        return self.make_op(kind, ["curvature", "--kernel", geo, "--grid", "1.2:1.2:1"],
                            expect_rc=1, known_defect=OUTSIDE_DEFECT)


def positive_slack(stdout):
    header = stdout.decode().splitlines()[0].split(",")
    col = header.index("slack")
    slack = np.array([float(row[col]) for row in csv_rows(stdout)])
    if not (slack > 0.0).all():
        return f"slack {slack.min():.3e} is not > 0"
    return None


def make(name: str, root: Path, env: dict, in_process_cli: bool = False) -> Workload:
    if name == "cli-batch":
        return CliBatch(root, env, in_process_cli)
    if name == "curvature-grids":
        return CurvatureGrids()
    if name == "shift-verdicts":
        return ShiftVerdicts()
    raise ValueError(f"unknown workload {name!r}")
