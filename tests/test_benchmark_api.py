"""Every library name that the benchmark in perfbench/ traces or calls exists,
every library call it makes binds to its callee's signature, a real result
of each call has the attributes it reads off that result, and every option it
passes to a CLI command is declared by that command, so removing a name, an
attribute or an option or changing a signature fails here rather than in a
benchmark run.  The benchmark files are parsed, not imported."""

import ast
import importlib
import inspect
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from rkhs_lab import annulus as an
from rkhs_lab import caratheodory as ca
from rkhs_lab import curvature as cv
from rkhs_lab import extremality as ex
from rkhs_lab import positivity as ps
from rkhs_lab import specio
from rkhs_lab.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
#: the module aliases of perfbench/workloads.py
ALIASES = {"cv": "curvature", "lo": "localop", "an": "annulus", "ca": "caratheodory",
           "ps": "positivity", "ex": "extremality", "kc": "kernels"}
#: every module name that workloads.py calls through: the aliases and specio
CALLED = {**ALIASES, "specio": "specio"}


def traced_layers():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py assigns no LAYERS")


WORKLOADS = ast.parse((PERFBENCH / "workloads.py").read_text())


def workload_attributes():
    return sorted({(ALIASES[node.value.id], node.attr) for node in ast.walk(WORKLOADS)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in ALIASES})


def dotted(node):
    """["an", "RadialWeight", "power_law"] for the callee an.RadialWeight.power_law,
    None for a callee that is not a dotted name."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        head = dotted(node.value)
        return head and head + [node.attr]
    return None


def workload_calls():
    """(module name, attribute path, positional count, keyword names) of every
    call that workloads.py makes on a library module, once per distinct shape."""
    calls = set()
    for node in ast.walk(WORKLOADS):
        path = isinstance(node, ast.Call) and dotted(node.func)
        if path and path[0] in CALLED and len(path) > 1:
            assert not any(isinstance(a, ast.Starred) for a in node.args), path
            assert all(k.arg for k in node.keywords), path
            calls.add((path[0], tuple(path[1:]), len(node.args),
                       tuple(k.arg for k in node.keywords)))
    return sorted(calls)


TRACED = [(layer, name) for layer, names in traced_layers().items() for name in names]


@pytest.mark.parametrize("module, name", TRACED + workload_attributes())
def test_benchmark_names_exist(module, name):
    assert hasattr(importlib.import_module(f"rkhs_lab.{module}"), name)


def test_benchmark_reads_every_alias():
    assert len(TRACED) >= 20
    assert {module for module, _ in workload_attributes()} == set(ALIASES.values())


CALLS = workload_calls()


@pytest.mark.parametrize("alias, path, positional, keywords", CALLS,
                         ids=[f"{a}.{'.'.join(p)}/{n}/{','.join(k)}" for a, p, n, k in CALLS])
def test_benchmark_calls_bind_to_their_signatures(alias, path, positional, keywords):
    callee = reduce(getattr, path, importlib.import_module(f"rkhs_lab.{CALLED[alias]}"))
    inspect.signature(callee).bind(*range(positional), **dict.fromkeys(keywords))


def test_benchmark_calls_cover_the_library_calls():
    calls = {(alias, ".".join(path)) for alias, path, _, _ in CALLS}
    assert {("an", "strict_ci_check"), ("an", "AnnulusSpec"),
            ("an", "RadialWeight.power_law"), ("specio", "load_kernel")} <= calls
    assert len(calls) >= 20


def bergman():
    return specio.load_kernel({"kind": "disc_diagonal", "coeff_rule": "n+1"})


#: the attributes that workloads.py reads off the result of each library call
RESULTS = {
    "ca.generalized_ci_check": (lambda: ca.generalized_ci_check(np.array([[-2.0]]), "ball", [0.3]),
                                ("passed", "worst_margin")),
    "an.character_equivalence": (lambda: an.character_equivalence(an.AnnulusSpec(r=0.5), 1.0, 3.0,
                                                                  grid_points=4),
                                 ("predicted", "measured", "agree", "max_curvature_diff")),
    "ex.classify_shift": (lambda: ex.classify_shift(bergman(), 0.3), ("classification",)),
    "ex.uniqueness_pipeline_check": (lambda: ex.uniqueness_pipeline_check(bergman(), 0.0),
                                     ("failed_step",)),
    "ps.contraction_check": (lambda: ps.contraction_check(bergman(), seed=7), ("passed",)),
    "ps.hyponormal_check": (lambda: ps.hyponormal_check(bergman()), ("passed",)),
    "ps.two_hypercontraction_check": (lambda: ps.two_hypercontraction_check(bergman()),
                                      ("passed",)),
    "cv.curvature_matrix": (lambda: cv.curvature_matrix(cv.frame_from_jet(bergman(), 0.3)),
                            ("matrix",)),
    "an.weighted_bergman_kernel": (
        lambda: an.weighted_bergman_kernel(an.AnnulusSpec(r=0.5, N=50),
                                           an.RadialWeight.from_profile(lambda rho: rho)),
        ("ns", "coeffs")),
}


@pytest.mark.parametrize("call", RESULTS)
def test_benchmark_results_have_the_attributes_it_reads(call):
    make, attributes = RESULTS[call]
    result = make()
    for name in attributes:
        assert hasattr(result, name), f"{call} result has no {name}"


def test_the_result_attributes_are_the_ones_workloads_read():
    read = {node.attr for node in ast.walk(WORKLOADS) if isinstance(node, ast.Attribute)}
    calls = {f"{alias}.{'.'.join(path)}" for alias, path, _, _ in CALLS}
    for call, (_, attributes) in RESULTS.items():
        assert call in calls
        assert set(attributes) <= read, call


def workload_cli_options():
    """(command, option) of every "--option" string in an argv list literal of
    workloads.py whose first element names a CLI command."""
    options = set()
    for node in ast.walk(WORKLOADS):
        if (isinstance(node, ast.List) and node.elts and isinstance(node.elts[0], ast.Constant)
                and node.elts[0].value in main.commands):
            options.update((node.elts[0].value, elt.value) for elt in node.elts[1:]
                           if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                           and elt.value.startswith("--"))
    return sorted(options)


CLI_OPTIONS = workload_cli_options()


def test_benchmark_cli_options_cover_every_command():
    assert {command for command, _ in CLI_OPTIONS} == set(main.commands)
    assert len(CLI_OPTIONS) >= 20


@pytest.mark.parametrize("command, option", CLI_OPTIONS,
                         ids=[f"{c}/{o}" for c, o in CLI_OPTIONS])
def test_benchmark_cli_options_are_declared(command, option):
    declared = {opt for param in main.commands[command].params
                for opt in param.opts + param.secondary_opts}
    assert option in declared, f"rkhs-lab {command} declares no {option}"
