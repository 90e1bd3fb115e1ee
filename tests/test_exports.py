"""The package exports exactly its modules' ``__all__`` lists; its imports have no cycle.

Two modules load on first use, through one name-to-module map: a process
that only reproduces or checks a domain never imports
:mod:`hardycorners.normalforms`, and one that reproduces and takes norms, as
the benchmark does, never imports :mod:`hardycorners.incidence`,
:mod:`hardycorners.commands` or ``numpy.polynomial``.
"""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys
import types

import hardycorners
from hardycorners import incidence, normalforms


def _modules():
    for info in pkgutil.iter_modules(hardycorners.__path__, "hardycorners."):
        yield importlib.import_module(info.name)


def test_every_package_export_is_in_its_modules_all():
    # dir(), not vars(): the normal forms' names are resolved on first use.
    exported = {
        name: getattr(hardycorners, name)
        for name in dir(hardycorners)
        if not name.startswith("_") and not isinstance(getattr(hardycorners, name), types.ModuleType)
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


def test_lazy_names_are_their_modules_all_and_resolve_to_its_objects():
    # One map serves every module loaded on first use: its names are that module's __all__.
    owners = set(hardycorners._LAZY.values())
    assert owners == {"incidence", "normalforms"}
    for owner in owners:
        module = importlib.import_module(f"hardycorners.{owner}")
        assert [n for n, o in hardycorners._LAZY.items() if o == owner] == module.__all__
        assert set(module.__all__) <= set(dir(hardycorners))
        assert set(module.__all__) <= set(hardycorners.__all__)
        bound = {}
        exec("from hardycorners import *", bound)
        for name in module.__all__:
            assert getattr(hardycorners, name) is getattr(module, name)
            assert bound[name] is getattr(module, name)
    assert hardycorners.eta is normalforms.eta
    assert hardycorners.omega_cfl is incidence.omega_cfl


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


# The benchmark's import line, a reproduce and a hardy_norm; then a name of
# the identity checks, read from the package; then a command line.
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
import hardycorners
hardycorners.omega_cfl
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
