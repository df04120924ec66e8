"""The benchmark's imports from subreco still resolve, and its calls still bind.

perfbench is run from its own checkout and is not changed with the library,
so a deleted or renamed public name would break it only at benchmark time.
These tests read its sources with ``ast`` and never import or run them.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def subreco_imports(path: Path) -> list[tuple[str, str]]:
    """``(module, name)`` for each ``from subreco... import name`` in ``path``."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "subreco"
        for alias in node.names
    ]


@pytest.mark.parametrize("name", ["workloads.py", "tracing.py"])
def test_every_imported_name_exists(name):
    imports = subreco_imports(PERFBENCH / name)
    assert imports, f"{name} imports nothing from subreco"
    missing = [
        f"{module}.{attr}"
        for module, attr in imports
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing, f"perfbench/{name} imports names subreco no longer has: {missing}"


def subreco_calls(path: Path) -> list[tuple[str, int, object, int, list[str]]]:
    """``(text, line, callee, positional count, keyword names)`` for each call
    in ``path`` on a name imported from subreco, or on a method of an imported
    class; calls that pass ``*args`` or ``**kwargs`` are left out."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {
        alias.asname or alias.name: getattr(importlib.import_module(node.module), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "subreco"
        for alias in node.names
    }
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            callee = imported[func.id]
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and isinstance(imported.get(func.value.id), type)
        ):
            callee = getattr(imported[func.value.id], func.attr)
        else:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            continue
        calls.append((ast.unparse(func), node.lineno, callee, len(node.args),
                      [k.arg for k in node.keywords]))
    return calls


@pytest.mark.parametrize("name", ["workloads.py", "tracing.py"])
def test_every_call_binds_to_its_signature(name):
    calls = subreco_calls(PERFBENCH / name)
    assert calls, f"{name} calls nothing from subreco"
    unbound = []
    for text, line, callee, positional, keywords in calls:
        try:
            inspect.signature(callee).bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"line {line}: {text}: {exc}")
    assert not unbound, f"perfbench/{name} calls subreco with arguments it no longer takes: {unbound}"
