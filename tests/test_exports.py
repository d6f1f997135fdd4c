"""Every exported name resolves: a deleted name must leave no stale export."""

import importlib
import pkgutil

import pytest

import whitenoise_transport

MODULES = sorted(m.name for m in pkgutil.iter_modules(whitenoise_transport.__path__)
                 if m.name != "__main__")


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
