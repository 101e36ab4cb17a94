"""The library stays stdlib-only: every absolute import in src/commclass
names a standard-library module or commclass itself.  Modules are parsed,
never imported, so an import behind a function or a condition is seen too."""

import ast
import os
import sys

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "commclass")


def _absolute_imports(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_library_imports_only_the_standard_library():
    modules = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "torus.py" in modules
    outside = []
    for name in modules:
        path = os.path.join(PACKAGE, name)
        for lineno, module in _absolute_imports(path):
            top = module.split(".")[0]
            if top != "commclass" and top not in sys.stdlib_module_names:
                outside.append(f"{name}:{lineno}: {module}")
    assert not outside, outside
