"""README's "Verdict tolerances" table names constants that exist, with their
values, and every `module.name` that README cites for a module of the package
resolves."""

import importlib
import pkgutil
import re
from functools import reduce
from pathlib import Path

import pytest

import rkhs_lab

README = Path(__file__).resolve().parent.parent / "README.md"
ROW = re.compile(r"^\| `(\w+)\.(\w+)` \| ([^|]+) \|")
MODULES = sorted(module.name for module in pkgutil.iter_modules(rkhs_lab.__path__))
CITED = re.compile(rf"`({'|'.join(MODULES)})((?:\.\w+)+)")


def tolerance_rows():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Verdict tolerances", 1)[1].split("\n## ", 1)[0]
    return [m.groups() for m in map(ROW.match, section.splitlines()) if m]


def test_the_table_has_rows():
    assert len(tolerance_rows()) >= 10


@pytest.mark.parametrize("module, name, value", tolerance_rows(),
                         ids=lambda x: x if isinstance(x, str) else None)
def test_tolerance_row_matches_the_library(module, name, value):
    mod = importlib.import_module(f"rkhs_lab.{module}")
    assert hasattr(mod, name), f"rkhs_lab.{module} has no {name}"
    assert getattr(mod, name) == float(value.strip())


def cited_names():
    return sorted(set(CITED.findall(README.read_text(encoding="utf-8"))))


def test_readme_cites_library_names():
    assert len(cited_names()) >= 30


@pytest.mark.parametrize("module, path", cited_names(), ids=lambda x: x.lstrip("."))
def test_every_cited_name_resolves(module, path):
    reduce(getattr, path[1:].split("."), importlib.import_module(f"rkhs_lab.{module}"))
