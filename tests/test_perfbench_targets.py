"""The per-layer tracer of perfbench/ wraps library names by module and
attribute; a traced name that no longer exists breaks only traced runs, so
every entry of its TARGETS table is resolved here.  The tracer file is read
as text and never imported."""

import ast
import importlib
import os

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def _targets():
    with open(TRACER) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("no TARGETS table in perfbench/tracer.py")


def test_every_traced_name_resolves():
    targets = _targets()
    assert len(targets) > 30
    for module, attribute in targets:
        obj = importlib.import_module(f"commclass.{module}")
        for part in attribute.split("."):
            assert hasattr(obj, part), f"commclass.{module}.{attribute}"
            obj = getattr(obj, part)
        assert callable(obj), f"commclass.{module}.{attribute}"
