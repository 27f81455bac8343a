"""Every name the package exports is used: by another module of the package
or by a README example.  A public name that only its tests reach is dead
code with a test suite."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nonlocalflow"


def _used_names(tree: ast.AST) -> set[str]:
    """Names read in ``tree``, bare or as attributes; a def, a class or an
    assignment of a name does not use it."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            used.update(alias.name for alias in node.names)
    return used


def test_every_export_is_used_outside_the_package_init():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _used_names(ast.parse(path.read_text()))
    readme = (ROOT / "README.md").read_text()
    for code in re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL):
        used |= _used_names(ast.parse(code))
    assert sorted(exported - used) == []
