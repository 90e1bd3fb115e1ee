"""What the command line shares with library callers: the spec catalog and argument parsers.

* :data:`BUILTIN_SPECS` and :func:`load_spec` — the built-in domain specs,
  or a spec file;
* :func:`parse_section_expr` — a restricted arithmetic expression in
  ``z1, z2``, compiled to an array-valued section;
* :func:`parse_tau` — an interior point typed as four reals;
* :class:`InputError` — what each of them raises on input it cannot read.

The command-line program itself (its parser, commands, reports and
self-test suites) is :mod:`hardycorners.commands`, which imports this
module; this module imports nothing else of the package, so that a process
that only loads specs, as the benchmark does, compiles no command.  Run as
a program (``python -m hardycorners.cli``), it runs no command: it names
the program's two entry points in one ``Error:`` line and exits 2.
"""

from __future__ import annotations

import ast
import importlib.resources as resources
import json
import os
import sys

import numpy as np

BUILTIN_SPECS = ("bidisk", "perturbed_bidisk", "sphere")


class InputError(Exception):
    """A usage error: the command line prints it as one ``Error: ...`` line and exits 2.

    :func:`hardycorners.commands.main` reports every input error it finds
    after parsing the command line this way.  It is not a ``ValueError`` or
    an ``ArithmeticError``, so that a ``--f`` expression failing inside
    ``reproduce`` is not taken for one of the library's precondition
    failures (exit 3).
    """


def load_spec(name_or_path):
    """Load a domain spec from a file path or the built-in catalog.

    A name is read as a path only if it names a file, so a directory named
    like a built-in spec does not hide it.
    """
    if os.path.isfile(name_or_path):
        with open(name_or_path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    if name_or_path in BUILTIN_SPECS:
        ref = resources.files("hardycorners").joinpath(
            "specs", name_or_path + ".json"
        )
        return json.loads(ref.read_text(encoding="utf-8"))
    raise InputError(
        f"spec {name_or_path!r} is neither a file nor one of {BUILTIN_SPECS}"
    )


_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Constant,
    ast.Name,
    ast.Load,
)


# Largest |exponent| a ** in a section expression may carry.
_MAX_EXPONENT = 64


def _integer_literal(node):
    """The value of an (optionally signed) integer literal node, else None."""
    sign = 1
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        sign = -1 if isinstance(node.op, ast.USub) else 1
        node = node.operand
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return sign * node.value
    return None


class _ComplexLiterals(ast.NodeTransformer):
    """Turn every numeric literal into a complex one, so that evaluation stays
    in floating point and can never build huge integers."""

    def visit_Constant(self, node):
        return ast.copy_location(ast.Constant(complex(node.value)), node)


def parse_section_expr(expr):
    """Compile a restricted arithmetic expression in z1, z2 to a callable.

    Only +, -, *, /, ** over numeric literals and the names z1, z2 (plus the
    imaginary unit spelled 1j) are accepted.  A ``**`` exponent must be an
    integer literal of absolute value at most 64.

    The callable is a section in the library's convention: it takes the
    coordinate pair ``(z1, z2)`` of one point or of ``N`` points (two
    ``(N,)`` arrays) and evaluates elementwise, in complex floating point,
    with numpy's floating-point errors raised (underflow to zero is allowed,
    as in scalar arithmetic).  An arithmetic error at any point (a division by
    zero, an overflow) or a value that is not finite (an infinite literal, a
    product of constants that overflows) is reported as an :class:`InputError`
    naming the first point where it occurs.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise InputError(f"cannot parse expression {expr!r}: {exc}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise InputError(
                f"expression {expr!r} uses unsupported syntax "
                f"({type(node).__name__})"
            )
        if isinstance(node, ast.Name) and node.id not in ("z1", "z2"):
            raise InputError(
                f"expression may only reference z1 and z2, not {node.id!r}"
            )
        if isinstance(node, ast.Constant) and not isinstance(
            node.value, (int, float, complex)
        ):
            raise InputError("only numeric literals are allowed")
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            power = _integer_literal(node.right)
            if power is None or abs(power) > _MAX_EXPONENT:
                raise InputError(
                    f"expression {expr!r}: a ** exponent must be an integer literal "
                    f"of absolute value at most {_MAX_EXPONENT}"
                )
    tree = ast.fix_missing_locations(_ComplexLiterals().visit(tree))
    code = compile(tree, "<section>", "eval")

    def evaluate(z1, z2):
        with np.errstate(all="raise", under="ignore"):
            values = eval(code, {"__builtins__": {}}, {"z1": z1, "z2": z2})
        # An infinite literal, or constants that Python folds, never trip numpy's errstate.
        if not np.all(np.isfinite(values)):
            raise FloatingPointError("the value is not finite")
        return values

    def call(z):
        z1, z2 = np.broadcast_arrays(*(np.asarray(c, dtype=complex) for c in z))
        try:
            return evaluate(z1, z2)
        except ArithmeticError as exc:
            error = exc
        # Only on failure: find the first point that fails on its own.
        for index in np.ndindex(z1.shape):
            try:
                evaluate(z1[index], z2[index])
            except ArithmeticError as exc:
                raise InputError(
                    f"expression {expr!r} cannot be evaluated at "
                    f"z = ({complex(z1[index])}, {complex(z2[index])}): {exc}"
                ) from exc
        raise InputError(f"expression {expr!r} cannot be evaluated: {error}") from error

    return call


def parse_tau(text):
    """The point ``(z1, z2)`` typed as ``re1,im1,re2,im2``, as a complex pair."""
    parts = text.split(",")
    if len(parts) != 4:
        raise InputError(
            "--tau must be four comma-separated reals: re1,im1,re2,im2"
        )
    try:
        v = [float(p) for p in parts]
    except ValueError as exc:
        raise InputError(f"cannot parse --tau {text!r}") from exc
    return np.array([complex(v[0], v[1]), complex(v[2], v[3])])


if __name__ == "__main__":
    print(
        "Error: hardycorners.cli is not the command-line program; run "
        "'python -m hardycorners.commands COMMAND ...' or the 'hardycorners' script",
        file=sys.stderr,
    )
    sys.exit(2)
