"""The benchmark's imports from subreco still resolve.

perfbench is run from its own checkout and is not changed with the library,
so a deleted or renamed public name would break it only at benchmark time.
These tests read its sources with ``ast`` and never import or run them.
"""

import ast
import importlib
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
