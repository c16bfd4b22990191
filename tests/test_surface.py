"""The public surface: the package exports exactly its modules' lists, every
exported name resolves and has a caller, and every benchmark-traced function
resolves."""

import ast
import importlib
from pathlib import Path

import lgphase

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
PACKAGE = Path(lgphase.__file__).resolve().parent
MODULES = ("cli", "cones", "errors", "generate", "linalg", "orbifold", "phases", "report")


def traced_functions():
    """Keys of the ``WRAPPED`` dict in the benchmark's tracer, read without importing it."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no WRAPPED dict in {SPANS}")


def test_package_exports_the_module_lists():
    expected = ["__version__"]
    for module in MODULES:
        if module != "cli":
            expected += importlib.import_module(f"lgphase.{module}").__all__
    assert lgphase.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_exported_name_resolves():
    missing = [name for name in lgphase.__all__ if not hasattr(lgphase, name)]
    assert missing == []
    for module in MODULES:
        mod = importlib.import_module(f"lgphase.{module}")
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == [], module


def test_every_exported_name_has_a_caller():
    # a caller loads the name bare or as ``<module>.name``; docstrings, the
    # ``__all__`` strings and attributes of other objects (``cm.rank``) do not count
    loads = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name) and node.value.id in MODULES):
                loads.add(f"{node.value.id}.{node.attr}")
    uncalled = [
        f"{module}.{name}"
        for module in MODULES
        for name in importlib.import_module(f"lgphase.{module}").__all__
        if name not in loads and f"{module}.{name}" not in loads
    ]
    assert uncalled == []


def test_every_traced_function_resolves():
    names = traced_functions()
    assert names
    for name in names:
        module, *path = name.split(".")
        owner = importlib.import_module(f"lgphase.{module}")
        for attr in path:
            assert hasattr(owner, attr), name
            owner = getattr(owner, attr)
        assert callable(owner), name
