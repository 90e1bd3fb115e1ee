"""The package exports exactly its modules' ``__all__`` lists; its imports have no cycle."""

import ast
import importlib
import pathlib
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


def test_every_all_entry_is_a_package_export():
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert getattr(hardycorners, name, None) is getattr(module, name), (
                f"hardycorners.{name} is not {module.__name__}.{name}"
            )


def test_module_imports_have_no_cycle():
    # Every relative import, at module level or deferred inside a function, is an edge.
    root = pathlib.Path(hardycorners.__file__).parent
    graph = {}
    for path in root.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[path.stem] = {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        }
    done = set()

    def visit(name, stack):
        assert name not in stack, " -> ".join([*stack, name])
        if name not in done:
            for dep in graph.get(name, ()):
                visit(dep, [*stack, name])
            done.add(name)

    for name in graph:
        visit(name, [])
