"""The package's public names: a deletion must not leave a stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import fastpolar

MODULES = {m.name: importlib.import_module(f"fastpolar.{m.name}")
           for m in pkgutil.iter_modules(fastpolar.__path__)}


def test_every_listed_name_resolves():
    stale = [(name, attr) for name, module in MODULES.items()
             for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert stale == []


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(fastpolar.__file__).read_text())
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imports and all(node.level == 1 for node in tree.body
                           if isinstance(node, ast.ImportFrom))
    unlisted = [(name, attr) for name, attr in imports if attr not in MODULES[name].__all__]
    assert unlisted == []
