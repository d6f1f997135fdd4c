"""Every exported name resolves and is used: a deleted name must leave no
stale export, and an export that no route, demo or benchmark uses is dead
code."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import whitenoise_transport

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(whitenoise_transport.__path__)
                 if m.name != "__main__")
# independent reference implementations that only tests call on purpose
ORACLES = {"msd_by_kernel_differences", "laplace_kernel_1d", "laplace_transform_numeric"}


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"whitenoise_transport.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
    exec(f"from whitenoise_transport.{name} import *", {})


def test_package_star_import():
    namespace = {}
    exec("from whitenoise_transport import *", namespace)
    assert "dephasing_rate" in namespace and "run_classical" in namespace


class _Uses(ast.NodeVisitor):
    """Names loaded, attributes read and string literals (perfbench looks
    functions up by name); definitions, imports and ``__all__`` lists are
    not uses."""

    def __init__(self):
        self.names = set()

    def visit_Assign(self, node):
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self.names.add(node.value)


def test_every_export_is_used_outside_the_tests():
    namespace = {}
    exec("from whitenoise_transport import *", namespace)
    exported = {name for name, val in namespace.items() if inspect.isfunction(val) or inspect.isclass(val)}
    uses = _Uses()
    for folder in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            uses.visit(ast.parse(path.read_text(), filename=str(path)))
    assert sorted(exported - uses.names - ORACLES) == []
