"""Every library name that the benchmark in perfbench/ traces or calls exists,
so removing one fails here rather than in a benchmark run.  The benchmark
files are parsed, not imported."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
#: the module aliases of perfbench/workloads.py
ALIASES = {"cv": "curvature", "lo": "localop", "an": "annulus", "ca": "caratheodory",
           "ps": "positivity", "ex": "extremality", "kc": "kernels"}


def traced_layers():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py assigns no LAYERS")


def workload_attributes():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    return sorted({(ALIASES[node.value.id], node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in ALIASES})


TRACED = [(layer, name) for layer, names in traced_layers().items() for name in names]


@pytest.mark.parametrize("module, name", TRACED + workload_attributes())
def test_benchmark_names_exist(module, name):
    assert hasattr(importlib.import_module(f"rkhs_lab.{module}"), name)


def test_benchmark_reads_every_alias():
    assert len(TRACED) >= 20
    assert {module for module, _ in workload_attributes()} == set(ALIASES.values())
