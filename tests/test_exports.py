"""The package's public names: a deletion must not leave a stale export."""

import ast
import importlib
import pkgutil
import re
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


def test_only_codec_imports_inside_a_function():
    # module-level imports only, so an import cycle fails at import time.
    # codec reaches the SC walker lazily until sc_decode* moves next to it,
    # which waits for the benchmark to stop resolving fp.codec.sc_decode_batch
    # (ROADMAP item 1)
    lazy = []
    for path in sorted(Path(fastpolar.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        nested = {node for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))}
        lazy += [(path.stem, getattr(node, "module", None), alias.name)
                 for node in sorted(nested, key=lambda node: node.lineno)
                 for alias in node.names]
    assert lazy == [("codec", "fastsc", "_decode_node")]


def _raise_texts():
    """(module, function, the string constants of the function's raise statements)."""
    for path in sorted(Path(fastpolar.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.stem, fn.name, [
                    str(c.value) for node in ast.walk(fn) if isinstance(node, ast.Raise)
                    for c in ast.walk(node) if isinstance(c, ast.Constant)]


def test_shared_input_rules_raise_from_one_function():
    # the bit, integer and CRC-fit rules live in crc, which every module can import,
    # and each decoder rule next to what it guards; a second function
    # raising one of these messages would be a copy free to drift
    homes = {"must hold only the bits 0 and 1": ("crc", "check_bits"),
             "must be an integer": ("crc", "check_integer"),
             "the exact f-update was removed": ("codec", "check_minsum"),
             "crc must be None or a CrcSpec": ("listdec", "check_crc"),
             "CRC does not fit in": ("crc", "check_fits"),
             "decoder must be one of": ("sim", "check_decoder"),
             "applies only to the list decoders": ("sim", "check_decoder")}
    raisers = {rule: [] for rule in homes}
    for module, name, texts in _raise_texts():
        for rule in homes:
            if any(rule in text for text in texts):
                raisers[rule].append((module, name))
    assert raisers == {rule: [home] for rule, home in homes.items()}


def test_no_function_but_check_integer_raises_a_bound():
    # "n must be >= 0" or "K must be in [0, N]" raised anywhere else would be
    # a second integer rule; check_integer words its bounds outside its raise
    bound = re.compile(r"must be (>=|>|<=|<|in \[|in \()")
    assert [(module, name) for module, name, texts in _raise_texts()
            if any(bound.search(text) for text in texts)] == []
