"""Every library error is raised and asserted: each ``KernelLabError``
subclass in ``errors.py`` is raised somewhere under src/ and appears in a
``pytest.raises(...)`` under tests/."""

import ast
import inspect
from pathlib import Path

from rkhs_lab import errors

TESTS = Path(__file__).resolve().parent
SRC = Path(errors.__file__).resolve().parent


def _names(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def raised_names() -> set:
    """Names in the arguments of every ``pytest.raises`` call under tests/; where
    the argument is a variable, the names in the test's parametrize decorators,
    whose cases give it its value."""
    names = set()
    for path in sorted(TESTS.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for call in ast.walk(func):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "raises" and _names(call.func.value) == {"pytest"}
                        and call.args):
                    names |= _names(call.args[0])
                    if isinstance(call.args[0], ast.Name):
                        names |= set().union(*map(_names, func.decorator_list))
    return names


def src_raised_names() -> set:
    """Names of the exceptions in every ``raise Name(...)`` under src/."""
    return {node.exc.func.id for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name)}


def library_errors() -> set:
    return {name for name, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, errors.KernelLabError) and cls is not errors.KernelLabError}


def test_every_library_error_is_asserted_by_a_test():
    library = library_errors()
    assert len(library) >= 15
    assert library - raised_names() == set()


def test_every_library_error_is_raised_in_src():
    # a class merged away but still defined is an orphan
    assert library_errors() - src_raised_names() == set()
