"""The package's layout: each public name is declared once, in its module's
`__all__`, every file the package writes goes through `qvlab.writers`, only
the CLI and the audit report use those writers, only `func1d.audit_intervals`
makes the standard audit family, importing the package loads no scipy,
`multiprocessing` or `concurrent` module, and no guard lets NaN through a
bare comparison.  Every public function has a caller in the package or
the demos, every public method and property a reader there, and every
defaulted parameter of a public function a call there that sets it."""

import ast
import inspect
import os
import subprocess
import symtable
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


def reads(source, filename):
    """The names a file's code reads as globals, at module level or in a
    function or class body where no local binds them (so a parameter that
    shares a public name is no read of it), and the attributes it reads off
    a name it imports from qvlab (`cons.cantor_level`)."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("qvlab"))
        for alias in node.names
    }
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in imported
    }
    tables = [symtable.symtable(source, filename, "exec")]
    while tables:
        table = tables.pop()
        top = table.get_type() == "module"
        names.update(s.get_name() for s in table.get_symbols() if s.is_referenced() and (top or s.is_global()))
        tables.extend(table.get_children())
    return names


def caller_files():
    """The package's source files and the demos: the code whose reads count as callers."""
    package = Path(qvlab.__file__).resolve().parent
    return [*sorted(package.glob("*.py")), *sorted((package.parents[1] / "demos").glob("*.py"))]


def test_every_public_function_has_a_caller():
    # each function in a library module's `__all__` is read somewhere in the
    # package or the demos, not in the tests alone; classes and exceptions
    # are return types and error classes, and exempt
    files = caller_files()
    called = set().union(*(reads(path.read_text(), str(path)) for path in files))
    uncalled = [
        f"{module.__name__}.{name}"
        for module in MODULES
        for name in module.__all__
        if inspect.isfunction(getattr(module, name)) and name not in called
    ]
    assert any(path.parent.name == "demos" for path in files)
    assert uncalled == []


def public_members():
    """(qualified name, member name, source file, definition lines) of each
    method and property that a public class of a library module defines."""
    for module in MODULES:
        for class_name in module.__all__:
            cls = getattr(module, class_name)
            if not inspect.isclass(cls):
                continue
            for name, value in vars(cls).items():
                function = value.fget if isinstance(value, property) else getattr(value, "__func__", value)
                if name.startswith("_") or not inspect.isfunction(function):
                    continue
                lines, start = inspect.getsourcelines(function)
                yield f"{cls.__qualname__}.{name}", name, Path(inspect.getsourcefile(function)).resolve(), range(
                    start, start + len(lines))


def test_every_public_member_has_a_reader():
    # each method or property of a public class is read as an attribute in
    # the package, outside its own definition, or in the demos
    attributes = [
        (path, node.lineno, node.attr)
        for path in caller_files()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    members = list(public_members())
    unread = [
        qualified
        for qualified, name, source, own in members
        if not any(attr == name and not (path == source and line in own) for path, line, attr in attributes)
    ]
    assert "PiecewiseAffineQ.energy_prefix" in {qualified for qualified, *_ in members}
    assert unread == []


def passes(call, index, parameter):
    """Whether a call gives `parameter`, the index-th of its callee's, by position or by keyword."""
    if any(keyword.arg in (parameter.name, None) for keyword in call.keywords):
        return True
    positional = parameter.kind in (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    return positional and (len(call.args) > index or any(isinstance(arg, ast.Starred) for arg in call.args))


def test_every_defaulted_parameter_is_passed():
    # each parameter with a default of a public function is set by some call
    # in the package or the demos; one that every caller leaves at its
    # default is a constant
    calls = [
        node for path in caller_files() for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)
    ]
    callees = [getattr(call.func, "id", getattr(call.func, "attr", None)) for call in calls]
    unpassed = [
        f"{module.__name__}.{name}({parameter.name})"
        for module in MODULES
        for name in module.__all__
        if inspect.isfunction(getattr(module, name))
        for index, parameter in enumerate(inspect.signature(getattr(module, name)).parameters.values())
        if parameter.default is not inspect.Parameter.empty
        and not any(passes(call, index, parameter) for call, callee in zip(calls, callees) if callee == name)
    ]
    assert unpassed == []


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


FAMILY_NAMES = {"_StandardFamily", "_family_blocks"}


def family_names(source):
    """(line, name) of each use of the standard family's class or of a blocks generator in `source`."""
    return [
        (node.lineno, name)
        for node in ast.walk(ast.parse(source))
        for name in [node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)]
        if name in FAMILY_NAMES
    ]


def test_the_standard_family_has_one_constructor():
    # `func1d.audit_intervals` makes the standard family; the CLI and the
    # criteria read it through that function and the family's own `blocks`
    package = Path(qvlab.__file__).parent
    found = {path.name: family_names(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses and name != "func1d.py"} == {}
    makers = [
        function.name
        for function in ast.walk(ast.parse(Path(func1d.__file__).read_text()))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_StandardFamily"
    ]
    assert makers == ["audit_intervals"]


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
