"""Spans around the calls into each rkhs_lab layer, recorded from outside.

Layers are the modules.  ``Tracer.install`` replaces each listed public
function, in every ``rkhs_lab`` module namespace that binds it, by a wrapper
that records one span (name, start, end, parent, op id) in typed-array
columns.  Spans stay in memory and are written out once, when the run ends.
A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import subprocess
import sys
import time
from array import array

import numpy as np

LAYERS = {
    "specio": ("load_kernel",),
    "kernels": ("jet", "eval_kernel", "deriv2", "mixed_deriv", "tilde_kernel"),
    "curvature": ("curvature_scalar", "curvature_matrix", "mobius_rule_check"),
    "localop": ("jet_gram", "canonical_form", "verify_tt_identity"),
    "positivity": ("contraction_check", "psd_check"),
    "extremality": ("uniqueness_pipeline_check", "normalized_pullback_coeffs",
                    "classify_shift"),
    "annulus": ("weighted_bergman_kernel", "monomial_norm_sq", "szego_kernel",
                "strict_ci_check", "extremal_problem_ls", "character_equivalence"),
    "caratheodory": ("generalized_ci_check",),
}
CLI_COMMANDS = ("curvature", "local-op", "check", "extremal", "ci-check", "annulus")
IMPORTS = {"import.rkhs_lab_ms": "rkhs_lab", "import.scipy_integrate_ms": "scipy.integrate",
           "import.scipy_stats_ms": "scipy.stats"}
INTERPRETER_RUNS = 5

# (metric, unit, better) for every per-layer metric, in report order
PER_LAYER = (
    [(name, "ms", "lower") for name in IMPORTS]
    + [("cli.interpreter_ms", "ms", "lower")]
    + [(f"cli.{c}.{m}", u, "lower") for c in CLI_COMMANDS
       for m, u in (("calls", "count"), ("self_ms", "ms"))]
    + [("cli.failed", "count", "lower")]
    + [(f"{layer}.{fn}.{m}", u, "lower") for layer, fns in LAYERS.items()
       for fn in fns for m, u in (("calls", "count"), ("self_ms", "ms"))]
    + [(f"{layer}.failed", "count", "lower") for layer in LAYERS]
    + [("positivity.gram_evals_per_verdict", "evals/verdict", "lower"),
       ("annulus.szego_builds_per_point", "builds/point", "lower"),
       ("trace.overhead_ratio", "ratio", "higher")]
)


class Tracer:
    def __init__(self):
        self.names = [f"cli.{c}" for c in CLI_COMMANDS] + [
            f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
        self.start, self.end = array("d"), array("d")
        self.name, self.parent, self.op = array("i"), array("i"), array("i")
        self.failed = [0] * len(self.names)
        self.stack = []
        self.op_id = -1
        self.undo = []

    def wrap(self, fn, name: str):
        nid = self.names.index(name)
        start, end, names, parent, op = self.start, self.end, self.name, self.parent, self.op
        stack, failed, clock = self.stack, self.failed, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception:
                failed[nid] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "rkhs_lab" or n.startswith("rkhs_lab.")]
        for layer, fns in LAYERS.items():
            home = importlib.import_module(f"rkhs_lab.{layer}")
            for fn in fns:
                orig = getattr(home, fn)
                traced = self.wrap(orig, f"{layer}.{fn}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, traced)
                            self.undo.append((mod, attr, orig))
        cli = importlib.import_module("rkhs_lab.cli")
        for command in CLI_COMMANDS:
            cmd = cli.main.commands[command]
            self.undo.append((cmd, "callback", cmd.callback))
            cmd.callback = self.wrap(cmd.callback, f"cli.{command}")

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self.undo):
            setattr(obj, attr, orig)
        self.undo.clear()

    def columns(self) -> dict:
        # copies, so the arrays stay free to grow
        return {"start": np.array(self.start, dtype=float),
                "end": np.array(self.end, dtype=float),
                "name": np.array(self.name, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "op": np.array(self.op, dtype=np.int32)}

    def dump(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())

    def rollup(self) -> dict:
        """Per-function calls and self time, per-layer failures and ratios."""
        c = self.columns()
        n_names = len(self.names)
        dur = c["end"] - c["start"]
        child = c["parent"] >= 0
        child_time = np.bincount(c["parent"][child], weights=dur[child], minlength=dur.size)
        self_ms = 1e3 * np.bincount(c["name"], weights=dur - child_time, minlength=n_names)
        calls = np.bincount(c["name"], minlength=n_names)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_ms"] = float(self_ms[i])
        for layer in ["cli", *LAYERS]:
            out[f"{layer}.failed"] = sum(f for name, f in zip(self.names, self.failed)
                                         if name.startswith(layer + "."))

        def per_parent(child_name, parent_name):
            cid, pid = self.names.index(child_name), self.names.index(parent_name)
            parents = c["parent"][(c["name"] == cid) & child]
            hits = int(np.count_nonzero(c["name"][parents] == pid))
            return hits / calls[pid] if calls[pid] else 0.0

        out["positivity.gram_evals_per_verdict"] = per_parent(
            "kernels.eval_kernel", "positivity.contraction_check")
        out["annulus.szego_builds_per_point"] = per_parent(
            "annulus.szego_kernel", "annulus.strict_ci_check")
        return out


def import_split(root, env) -> dict:
    """Import times from ``python -X importtime -c 'import rkhs_lab'``.

    A module's time is the cumulative time of its own line; scipy loads
    submodules lazily, so when a module has no line of its own its time is
    the sum over its shallowest submodule lines.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import rkhs_lab"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import rkhs_lab failed:\n{proc.stderr[-2000:]}")
    rows = []  # (module, depth, cumulative ms)
    for line in proc.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            rows.append((name.strip(), len(name) - len(name.lstrip()), int(parts[1]) / 1e3))
    out = {}
    for metric, module in IMPORTS.items():
        hits = [(depth, ms) for name, depth, ms in rows
                if name == module or name.startswith(module + ".")]
        top = min((depth for depth, _ in hits), default=None)
        out[metric] = sum(ms for depth, ms in hits if depth == top)
    return out


def interpreter_ms(env) -> float:
    """Median wall time of a bare ``python -c pass``."""
    times = []
    for _ in range(INTERPRETER_RUNS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        times.append(1e3 * (time.perf_counter() - t))
    return statistics.median(times)
