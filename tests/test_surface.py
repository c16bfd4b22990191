"""The public surface: every exported name and every benchmark-traced function resolves."""

import ast
import importlib
from pathlib import Path

import lgphase

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_functions():
    """Keys of the ``WRAPPED`` dict in the benchmark's tracer, read without importing it."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no WRAPPED dict in {SPANS}")


def test_every_exported_name_resolves():
    missing = [name for name in lgphase.__all__ if not hasattr(lgphase, name)]
    assert missing == []
    for module in ("cli", "cones", "errors", "generate", "linalg", "orbifold", "phases", "report"):
        mod = importlib.import_module(f"lgphase.{module}")
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == [], module


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
