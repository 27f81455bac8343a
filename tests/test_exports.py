"""Every name the package exports is used: by another module of the package
or by a README example.  A public name that only its tests reach is dead
code with a test suite.  Likewise every parameter default is overridden by
some call there, or it is a setting with one value in use."""

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


# Parameters with a default that no call sets, each with its reason.
UNSET_DEFAULTS = {
    "harness.check_stability_initial.K": "the negative controls pass a rate below the certified 2C",
    "cli.main.argv": "the console script calls main() and argparse reads sys.argv",
}


def _defaults(path: Path):
    """(module.function.param, function name, position or None) for every
    parameter with a default; the position counts from the first argument a
    call passes, so a method's ``self`` is not counted."""
    module = path.stem
    found = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                skip = in_class and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list
                )
                first_default = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first_default:], first_default):
                    found.append((f"{module}.{child.name}.{arg.arg}", child.name, i - skip))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((f"{module}.{child.name}.{arg.arg}", child.name, None))
                visit(child, False)
            else:
                visit(child, isinstance(child, ast.ClassDef))

    visit(ast.parse(path.read_text()), False)
    return found


def _passed(tree: ast.AST, passed: set) -> None:
    """Add (callee name, position) and (callee name, keyword) for every
    argument a call in ``tree`` passes; a ``*`` or ``**`` argument passes
    every position or keyword."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
            passed.add((name, "*"))
        passed.update((name, i) for i in range(len(node.args)))
        passed.update((name, k.arg) for k in node.keywords)


def test_every_default_is_passed_by_some_call():
    """A parameter whose default every call keeps is a setting with one
    value in use: it belongs in a constant."""
    passed = set()
    for path in PACKAGE.glob("*.py"):
        _passed(ast.parse(path.read_text()), passed)
    readme = (ROOT / "README.md").read_text()
    for code in re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL):
        _passed(ast.parse(code), passed)
    unset = set()
    for path in PACKAGE.glob("*.py"):
        for qualified, name, position in _defaults(path):
            param = qualified.rsplit(".", 1)[1]
            if not {(name, position), (name, param), (name, "*")} & passed:
                unset.add(qualified)
    assert sorted(unset - UNSET_DEFAULTS.keys()) == []
    assert sorted(UNSET_DEFAULTS.keys() - unset) == []


def test_only_the_suite_loads_numpy_random():
    """The checks draw from the package's Halton sampler; only the suite's
    random W1 instances come from numpy.random, as test-oracle data."""
    pattern = re.compile(r"\bnp\.random\b|\bnumpy\.random\b|from numpy import [^\n]*\brandom\b")
    found = [
        f"{path.name}:{n}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "suite.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert found == []
