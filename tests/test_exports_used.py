"""Every name the package exports has a caller outside the tests.

A name that only the tests reach is code the package keeps for its own
tests; it should be deleted or moved into them.  A caller is a reference in
the package's other modules, the demos, the benchmark or README's Python
blocks, read with ``ast``, so a definition or a comment is no caller.  The
sources are parsed, never imported or run.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "subreco"
# the writers that pair with the loaders the CLI reads: a user writes a graph
# or a formula for an instance file's ``graph-file`` or ``cnf-file`` line
ALLOWED = {"write_cnf", "write_edge_list"}


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def referenced_names(source: str) -> set[str]:
    """Names Python source loads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def caller_sources() -> list[str]:
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return [p.read_text(encoding="utf-8") for p in paths] + re.findall(
        r"```python\n(.*?)```", readme, flags=re.DOTALL
    )


def test_every_export_has_a_caller_outside_the_tests():
    called = set().union(*map(referenced_names, caller_sources()))
    exported = exported_names()
    uncalled = sorted(exported - called - ALLOWED)
    assert not uncalled, f"exported names with no caller outside tests/: {uncalled}"
    # an exception that gained a caller, or lost its export, leaves the list
    assert ALLOWED <= exported - called
