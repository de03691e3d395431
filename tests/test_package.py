"""The package's layout: each public name is declared once, in its module's
`__all__`, every file the package writes goes through `qvlab.writers`, only
the CLI and the audit report use those writers, importing the package
loads no scipy, `multiprocessing` or `concurrent` module, and no guard lets NaN through a bare comparison."""

import ast
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

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


def imports_writers(module_path):
    """Whether one source file imports `qvlab.writers` or a name from it."""
    for node in ast.walk(ast.parse(Path(module_path).read_text())):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".writers", "qvlab.writers"):
                return True
            if module in (".", "qvlab") and any(alias.name == "writers" for alias in node.names):
                return True
        elif isinstance(node, ast.Import) and any(alias.name == "qvlab.writers" for alias in node.names):
            return True
    return False


def test_only_the_cli_and_the_audit_report_use_the_writers():
    # a library module computes; the CLI declares each file layout but the
    # audit report's, which `func1d.MinimalityReport` writes
    package = Path(qvlab.__file__).parent
    users = [path.name for path in sorted(package.glob("*.py")) if imports_writers(path)]
    assert users == ["cli.py", "func1d.py"]


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is for the tests alone.  verify-all
    # forks its workers with `os`, so no process-pool machinery is imported either.
    src = str(Path(qvlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    roots = ("scipy", "multiprocessing", "concurrent")
    code = f"import sys, qvlab, qvlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in {roots}))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def holds_bare_ordering(node):
    """Whether an expression holds a `<`, `<=`, `>` or `>=` outside every
    `not (...)`.  NaN fails each of them, so `if x < 0: raise` lets NaN
    through and `if not x >= 0: raise` refuses it.  A comparison inside a
    call is that call's argument (an array mask for `np.any`, a generator
    for `any`), not the guard's own test, and is not looked into."""
    if isinstance(node, ast.Call) or (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)):
        return False
    if isinstance(node, ast.Compare) and any(isinstance(op, ORDERINGS) for op in node.ops):
        return True
    return any(holds_bare_ordering(child) for child in ast.iter_child_nodes(node))


def bare_guards(source):
    """(line, test) of each `if` in `source` whose body raises and whose test
    holds a bare ordering comparison."""
    return [
        (node.lineno, ast.unparse(node.test))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.If)
        and any(isinstance(statement, ast.Raise) for statement in node.body)
        and holds_bare_ordering(node.test)
    ]


def test_no_guard_lets_nan_through():
    # a boundary check is a `qvlab._checks` validator or a test written to fail on NaN
    package = Path(qvlab.__file__).parent
    found = {path.name: bare_guards(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert {name: guards for name, guards in found.items() if guards} == {}


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("if x < 0:\n    raise ValueError(x)", True),
        ("if n <= 1 or a >= b:\n    raise ValueError", True),
        ("if q >= 2 and not r <= c:\n    raise ValueError", True),
        ("if x:\n    pass\nelif x > 1:\n    raise ValueError", True),
        ("if not x >= 0:\n    raise ValueError(x)", False),
        ("if not (0 < x < 1):\n    raise ValueError(x)", False),
        ("_checks.real('x', x)", False),
        ("if x < 0:\n    x = 0", False),
        ("if x == 0 or s != t:\n    raise ValueError", False),
        ("if np.any(a >= b):\n    raise ValueError", False),
    ],
    ids=["bare", "bare-in-or", "bare-beside-not", "elif", "not", "not-chained", "validator", "no-raise", "equality",
         "in-a-call"],
)
def test_the_guard_lint_on_snippets(source, flagged):
    # a negative control: the lint above cannot pass by matching nothing
    assert bool(bare_guards(source)) == flagged
