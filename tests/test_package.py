"""The package's exports: each public name is declared once, in its module's `__all__`."""

import types

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


def test_constants_are_exported():
    assert qvlab.MAX_LEVEL == constructions.MAX_LEVEL
    assert qvlab.RemovedInterval is constructions.RemovedInterval
