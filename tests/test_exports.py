"""Every exported name of the package resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import recallci

MODULES = sorted(info.name for info in pkgutil.iter_modules(recallci.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"recallci.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, (name, missing)


def test_package_imports_resolve():
    tree = ast.parse(Path(recallci.__file__).read_text(encoding="utf-8"))
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"recallci.{node.module}")
            missing += [
                (node.module, alias.name) for alias in node.names if not hasattr(module, alias.name)
            ]
            missing += [alias.name for alias in node.names if not hasattr(recallci, alias.name)]
    assert not missing
