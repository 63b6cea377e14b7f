"""The package's public names: a deletion must not leave a stale export."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
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
    # the bit, bool, integer, CRC-spec and CRC-fit rules live in crc, which every
    # module can import, the sigma rule (SimConfig's SNRs too) in construction,
    # and each decoder rule next to what it guards; a second function
    # raising one of these messages would be a copy free to drift
    homes = {"must hold only the bits 0 and 1": ("crc", "check_bits"),
             "must be true or false": ("crc", "check_bool"),
             "must be an integer": ("crc", "check_integer"),
             "2/sigma": ("construction", "_channel_mean"),
             "the exact f-update was removed": ("codec", "check_minsum"),
             "CrcSpec": ("crc", "check_spec"),
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


def test_no_function_reads_field_annotations():
    # a check keyed on a dataclass field's declared type ran apart from the
    # field's own rule, and again for a field whose rule had already run
    reads = [(path.stem, node.attr)
             for path in sorted(Path(fastpolar.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in ("type", "__annotations__")
             or isinstance(node, ast.Name) and node.id == "get_type_hints"]
    assert reads == []


def test_library_runs_without_scipy(tmp_path):
    # numpy is the only dependency: with scipy unimportable the package imports,
    # builds a code whose cut needs the scalar re-solve, and the CLI prices it
    path = str(tmp_path / "code.json")
    script = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              "from fastpolar.cli import main\n"
              "from fastpolar.construction import construct_code, save_descriptor\n"
              f"save_descriptor(construct_code(10, 512), {path!r})\n"
              f"main(['latency', '--code', {path!r}, '--csv'])\n")
    env = {**os.environ, "PYTHONPATH": str(Path(fastpolar.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "decoder,node_set,steps"
