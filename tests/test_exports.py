"""The package root holds only its modules; their imports have no cycle.

Every name is imported from its own module (``from hardycorners.measures
import reproduce``): importing the package loads no module and binds no
module's name, and no file of the repository reads a name from the package
root.  A module loads when it is imported, so a process that only reproduces
or checks a domain never imports :mod:`hardycorners.normalforms`, and one
that reproduces and takes norms, as the benchmark does, never imports
:mod:`hardycorners.incidence`, :mod:`hardycorners.commands` or
``numpy.polynomial``.
"""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import hardycorners

_SUBMODULES = {info.name for info in pkgutil.iter_modules(hardycorners.__path__)}


def _modules():
    for name in sorted(_SUBMODULES):
        yield importlib.import_module(f"hardycorners.{name}")


def test_every_all_entry_exists():
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"


def test_a_module_name_cannot_be_imported_from_the_package():
    # ``from hardycorners import reproduce`` among them; written as text, so
    # that the walk below does not find it.
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert not hasattr(hardycorners, name), f"hardycorners.{name} resolves"
            with pytest.raises(ImportError):
                exec(f"from hardycorners import {name}", {})


def test_no_file_reads_a_name_from_the_package_root():
    # ``from hardycorners import X`` and ``hardycorners.X`` name only submodules
    # (and dunders such as ``__path__``), as do the package's own ``from . import X``.
    root = pathlib.Path(__file__).resolve().parents[1]
    package = pathlib.Path(hardycorners.__file__).resolve().parent
    found = []
    for top in ("src", "tests", "tools", "bench"):
        for path in sorted((root / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and (
                    (node.level == 0 and node.module == "hardycorners")
                    or (node.level == 1 and node.module is None and path.parent == package)
                ):
                    names = [alias.name for alias in node.names]
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "hardycorners"
                    and not node.attr.startswith("__")
                ):
                    names = [node.attr]
                else:
                    continue
                found += [
                    f"{path.relative_to(root)}:{node.lineno} {name}"
                    for name in names
                    if name not in _SUBMODULES
                ]
    assert not found, found


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


def test_an_unknown_package_attribute_raises_attribute_error():
    assert not hasattr(hardycorners, "no_such_name")


def _run_probe(probe):
    """Run ``probe`` in a fresh interpreter without a bytecode cache; its stdout lines."""
    src = str(pathlib.Path(hardycorners.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


_BARE_IMPORT_PROBE = """
import importlib, pkgutil, sys
import hardycorners
print(sorted(m for m in sys.modules if m.startswith("hardycorners.")))
for info in pkgutil.iter_modules(hardycorners.__path__, "hardycorners."):
    module = importlib.import_module(info.name)
    print(info.name, sorted(set(getattr(module, "__all__", ())) & set(vars(hardycorners))))
"""


def test_importing_the_package_loads_no_module_and_binds_no_module_name():
    lines = _run_probe(_BARE_IMPORT_PROBE)
    assert lines[0] == "[]"
    assert lines[1:] == [f"hardycorners.{name} []" for name in sorted(_SUBMODULES)]


# The benchmark's import line, then a reproduce, a domain check and both CLI
# commands that use no measure; then a measure.
_NORMAL_FORMS_PROBE = """
import contextlib, io, sys
import numpy as np
from hardycorners import cli, domain, measures, projective

def loaded():
    return "hardycorners.normalforms" in sys.modules

d = domain.domain_from_spec(cli.load_spec("bidisk"))
measures.reproduce(d, lambda z: z[0] * z[1] + 0.5, np.array([0.2 + 0.1j, -0.3]), resolution=8)
domain.validate_domain(d, resolution=6)
from hardycorners import commands
for args in (
    ["check-domain", "bidisk", "--resolution", "6"],
    ["reproduce", "bidisk", "--tau", "0.2,0.1,-0.3,0", "--resolution", "8"],
):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
        commands.main(args)
print(loaded())
p = domain.domain_from_spec(cli.load_spec("perturbed_bidisk"))
measures.hardy_norm(p, lambda z: z[0] + 1.0, resolution=6)
print(loaded())
"""


def test_normal_forms_load_with_the_first_measure_only():
    assert _run_probe(_NORMAL_FORMS_PROBE) == ["False", "True"]


# The benchmark's import line, a reproduce and a hardy_norm; then the
# identity checks' module; then a command line.
_LEAN_PROBE = """
import contextlib, io, sys
import numpy as np
from hardycorners import cli, domain, measures, projective

def loaded():
    watched = ("hardycorners.incidence", "hardycorners.commands", "numpy.polynomial")
    print(" ".join(m for m in watched if m in sys.modules) or "-")

d = domain.domain_from_spec(cli.load_spec("perturbed_bidisk"))
measures.reproduce(d, lambda z: z[0] * z[1] + 0.5, np.array([0.2 + 0.1j, -0.3]), resolution=8)
measures.hardy_norm(d, lambda z: z[0] + 1.0, resolution=6)
loaded()
import hardycorners.incidence
loaded()
from hardycorners import commands
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    commands.main(["check-domain", "bidisk", "--resolution", "6"])
loaded()
"""


def test_the_benchmark_path_loads_no_identity_checks_commands_or_numpy_polynomial():
    assert _run_probe(_LEAN_PROBE) == [
        "-",
        "hardycorners.incidence",
        "hardycorners.incidence hardycorners.commands",
    ]
