"""README's "Verdict tolerances" table names constants that exist, with their values."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
ROW = re.compile(r"^\| `(\w+)\.(\w+)` \| ([^|]+) \|")


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
