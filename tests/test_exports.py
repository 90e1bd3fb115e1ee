"""The package's exports agree with its modules' ``__all__`` lists."""

import importlib
import pkgutil
import types

import hardycorners


def _modules():
    for info in pkgutil.iter_modules(hardycorners.__path__, "hardycorners."):
        yield importlib.import_module(info.name)


def test_every_package_export_is_in_its_modules_all():
    exported = {
        name: obj
        for name, obj in vars(hardycorners).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert exported
    for name, obj in exported.items():
        module = importlib.import_module(obj.__module__)
        assert name in module.__all__, f"{obj.__module__}.__all__ lacks {name!r}"


def test_every_all_entry_exists():
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
