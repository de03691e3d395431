"""The package's layout: each public name is declared once, in its module's
`__all__`, every file the package writes goes through `qvlab.writers`, and
importing the package loads no scipy module."""

import ast
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import qvlab
from qvlab import branch, constructions, disk2d, func1d, qspace

MODULES = (qspace, func1d, constructions, branch, disk2d)


def test_exports_are_the_union_of_the_module_lists():
    exported = {
        name
        for name, value in vars(qvlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == {name for module in MODULES for name in module.__all__}


def test_no_name_is_declared_twice():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)


def test_every_public_definition_is_exported():
    for module in MODULES:
        defined = {
            name
            for name, value in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
        }
        assert defined - set(module.__all__) == set(), module.__name__


def test_constants_are_exported():
    assert qvlab.MAX_LEVEL == constructions.MAX_LEVEL
    assert qvlab.RemovedInterval is constructions.RemovedInterval


def file_writes(module_path):
    """The `json.dump` calls, `csv` imports and `open` calls with a mode
    other than reading in one source file, as (line, what) pairs."""
    found = []
    for node in ast.walk(ast.parse(Path(module_path).read_text())):
        if isinstance(node, ast.Import) and any(alias.name == "csv" for alias in node.names):
            found.append((node.lineno, "import csv"))
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            found.append((node.lineno, "from csv"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "dump":
            if isinstance(node.func.value, ast.Name) and node.func.value.id == "json":
                found.append((node.lineno, "json.dump"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if any(not (isinstance(m, ast.Constant) and set(m.value) <= set("rbt")) for m in modes):
                found.append((node.lineno, "open for writing"))
    return found


def test_only_writers_writes_files():
    package = Path(qvlab.__file__).parent
    writes = {path.name: file_writes(path) for path in sorted(package.glob("*.py"))}
    assert [what for _, what in writes.pop("writers.py")] == ["open for writing", "open for writing"]
    assert {name: found for name, found in writes.items() if found} == {}


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is for the tests alone
    src = str(Path(qvlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, qvlab, qvlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
