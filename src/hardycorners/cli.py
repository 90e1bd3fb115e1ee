"""Command-line interface: domain checks, reproduction runs, edge weights, self-tests.

Exit codes across all subcommands:

* 0 — run completed and every checked quantity met its tolerance;
* 1 — run completed but a check or tolerance failed;
* 2 — input error (bad or unreadable spec, including a ``membership`` other
  than ``"intersection"``, unknown option value, malformed expression, a
  ``--f`` expression that fails to evaluate, a ``check-domain`` convexity
  check that cannot run at an edge or at ``--radius``, an ``--output`` path
  that cannot be written, or a ``--resolution``, ``--face-resolution``,
  ``--edge-resolution`` or ``--grid`` too large for the memory);
* 3 — precondition failure (a kernel pole: some tangent hyperplane passes
  through the requested interior point; a chart's projection fails: its
  Newton solve does not converge, or its tangents are singular; or another
  ``ValueError`` of the library's ``reproduce``, such as a vanishing gradient
  at a node).

A usage error (an option out of range, a missing or unknown option) is one
line ``Error: ...`` on stderr, after the usage for an error of the command
line's shape: the command's own usage for an argument it does not know,
which the line quotes as typed.  Reports are deterministic JSON documents
of the shape ``{"command", "spec_hash", "resolution", "results": [...],
"tolerances", "pass"}``; complex numbers are encoded as two-element [re,
im] arrays.  The ``eta`` subcommand can instead emit CSV with the stable
header ``param1,param2,kappa,eta_weight,margin``.

The parser is built by :func:`main`, so that importing this module (as the
benchmark and the tests do for :func:`load_spec`) loads no ``argparse``.
"""

from __future__ import annotations

import ast
import importlib.resources as resources
import json
import math
import os
import sys

import numpy as np

from .domain import (
    _ONLOCUS_TOL,
    ProjectionError,
    canonical_spec,
    check_strict_convexity,
    domain_from_spec,
    strong_tangents,
    transform_domain,
    validate_domain,
)
from .kernels import (
    cramer_residual,
    omega_cfl,
    omega_cfl_affine_form,
    pushforward_corner_check,
    simplex_integral,
)
from .measures import reproduce as run_reproduce
from .normalforms import (
    apply_coordinate_change,
    change_matrix,
    eta as edge_eta,
    extract_normal_form,
    model_edge_domain,
)
from .projective import ProjMap

BUILTIN_SPECS = ("bidisk", "perturbed_bidisk", "sphere")


class InputError(Exception):
    """A usage error: :func:`main` prints it as one ``Error: ...`` line and exits 2.

    It is not a ``ValueError`` or an ``ArithmeticError``, so that a ``--f``
    expression failing inside ``reproduce`` is not taken for one of the
    library's precondition failures (exit 3).
    """


def load_spec(name_or_path):
    """Load a domain spec from a file path or the built-in catalog."""
    if os.path.exists(name_or_path):
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


def _input_error(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def _load_domain(spec_name):
    """Load and assemble a domain spec; exit 2 with one line if it is malformed."""
    try:
        spec = load_spec(spec_name)
        return spec, domain_from_spec(spec)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _input_error(f"invalid domain spec: {exc}")


def _precondition_failure(exc):
    print(f"precondition failure: {exc}", file=sys.stderr)
    sys.exit(3)


def spec_hash(spec):
    import hashlib

    return hashlib.sha256(canonical_spec(spec).encode("utf-8")).hexdigest()


def _jsonify(obj):
    """``json.dumps`` hook: complex values as [re, im] pairs, numpy values as Python ones."""
    if isinstance(obj, (complex, np.complexfloating)):
        return [obj.real, obj.imag]
    return obj.tolist()


def _finish(text, output, ok):
    """Write ``text`` to the file ``output`` (stdout if none), then exit 0 if ``ok``, else 1.

    An ``output`` that cannot be written is an input error.
    """
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _input_error(f"cannot write --output {output!r}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


def _report(command, spec, resolution, results, tolerances, ok, output):
    """Finish a command with its JSON report."""
    report = {
        "command": command,
        "spec_hash": None if spec is None else spec_hash(spec),
        "resolution": resolution,
        "results": results,
        "tolerances": tolerances,
        "pass": bool(ok),
    }
    _finish(json.dumps(report, indent=2, sort_keys=True, default=_jsonify) + "\n", output, ok)


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
    zero, an overflow) is reported as an :class:`InputError` naming the
    first point where it occurs.
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
            return eval(code, {"__builtins__": {}}, {"z1": z1, "z2": z2})

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


def check_domain_cmd(spec_name, radius, resolution, output):
    """Validate a domain spec and probe its edges' local geometry."""
    spec, d = _load_domain(spec_name)
    try:
        val = validate_domain(d, resolution=resolution)
        edge_points = [e.chart.project(e.chart.grid(resolution)[0][:1])[0][0] for e in d.edges]
    except ProjectionError as exc:
        _precondition_failure(exc)
    results = [{"check": "validate", **val}]
    for ei, z in enumerate(edge_points):
        try:
            # A radius so large that the defining functions overflow on the line samples
            # would leave infinite margins, which are not JSON.
            with np.errstate(over="raise"):
                conv = check_strict_convexity(d, z, local_radius=radius)
        except FloatingPointError:
            _input_error(f"--radius {radius} is too large: the local checks at edge {ei} overflow")
        except ValueError as exc:
            _input_error(f"edge {ei}: {exc}")
        convexity = {key: conv[key] for key in ("members", "min_margin", "strict")}
        results.append({"check": "strict_convexity", "edge": ei, **convexity})

    tolerances = {"onlocus": _ONLOCUS_TOL}
    _report("check-domain", spec, resolution, results, tolerances, val["passed"], output)


def reproduce_cmd(
    spec_name, tau, f_expr, resolution, face_resolution, edge_resolution, tolerance, output
):
    """Run the reproducing formula for a holomorphic function at a point."""
    spec, d = _load_domain(spec_name)
    tau_pt = parse_tau(tau)
    if not d.contains(tau_pt):
        _input_error("--tau is not an interior point of the domain")
    f = parse_section_expr(f_expr)
    try:
        res = run_reproduce(
            d,
            f,
            tau_pt,
            resolution=resolution,
            face_resolution=face_resolution,
            edge_resolution=edge_resolution,
        )
    except (ZeroDivisionError, ProjectionError, ValueError) as exc:
        _precondition_failure(exc)

    ok = res["rel_err"] <= tolerance
    _report("reproduce", spec, resolution, [res], {"rel_err": tolerance}, ok, output)


def _edge_invariants(d, points):
    """``kappa`` and ``eta_weight`` at each edge point, from one batched :func:`eta` call.

    Only if the batch raises are the points evaluated one at a time, so that
    each failing point gets its own ``error`` entry.
    """
    try:
        inv = edge_eta(d, points)
        return [{"kappa": k, "eta_weight": w} for k, w in zip(inv.kappa, inv.eta_weight)]
    except ValueError:
        pass
    out = []
    for z in points:
        try:
            inv = edge_eta(d, z)
            out.append({"kappa": inv.kappa, "eta_weight": inv.eta_weight})
        except ValueError as exc:
            out.append({"error": str(exc)})
    return out


def eta_cmd(spec_name, edge, grid, fmt, with_margins, output):
    """Tabulate the edge invariant and weight over an edge chart grid.

    CSV header (stable): param1,param2,kappa,eta_weight,margin.  The margin
    column is empty unless --with-margins is given.
    """
    spec, d = _load_domain(spec_name)
    if not 0 <= edge < len(d.edges):
        _input_error(f"edge index {edge} out of range (domain has {len(d.edges)})")
    e = d.edges[edge]

    try:
        ns = e.chart.nodes(grid)
    except (ValueError, ProjectionError) as exc:
        _precondition_failure(exc)

    margins = [{"margin": None}] * len(ns)
    if with_margins:
        try:
            conv = check_strict_convexity(
                d, ns.points, t_grid=5, ambient_grid=8, local_radius=0.1
            )
            margins = [{"margin": m} for m in conv["min_margin"].tolist()]
        except ValueError as exc:
            margins = [{"error": str(exc)}] * len(ns)
    rows = []
    for params, inv, margin in zip(ns.params, _edge_invariants(d, ns.points), margins):
        if "error" not in inv:
            inv = margin if "error" in margin else {**inv, **margin}
        rows.append({"params": list(params), **inv})
    all_ok = all("error" not in r and not r["eta_weight"] <= 0 for r in rows)

    if fmt == "csv":
        lines = ["param1,param2,kappa,eta_weight,margin"]
        for r in rows:
            if "error" in r:
                lines.append(
                    f"{r['params'][0]:.17g},{r['params'][1]:.17g},nan,nan,"
                )
                continue
            m = "" if r["margin"] is None else f"{r['margin']:.17g}"
            lines.append(
                f"{r['params'][0]:.17g},{r['params'][1]:.17g},"
                f"{r['kappa']:.17g},{r['eta_weight']:.17g},{m}"
            )
        _finish("\n".join(lines) + "\n", output, all_ok)
    _report("eta", spec, grid, rows, {"positive_weight": 0.0}, all_ok, output)


def _suite_simplex(rng, checks):
    for n in (2, 3):
        for _ in range(5):
            tau = 0.5 * (rng.random(n) - 0.5) + 0.25j * (rng.random(n) - 0.5)
            closed = simplex_integral(tau, method="closed")
            quad = simplex_integral(tau, method="quadrature", order=24)
            rel = abs(closed - quad) / abs(closed)
            checks.append(
                {"name": f"simplex_n{n}", "rel_err": rel, "passed": rel < 1e-6}
            )


def _random_edge_points(d, rng, count):
    """``count`` points of ``d.edges[0]`` at uniformly random chart parameters, as ``(count, 2)``."""
    chart = d.edges[0].chart
    return chart.project(2 * np.pi * rng.random((count, chart.dim)))[0]


def _suite_cramer(rng, checks):
    for name in ("bidisk", "perturbed_bidisk"):
        d = domain_from_spec(load_spec(name))
        points = _random_edge_points(d, rng, 5)
        for res in cramer_residual(strong_tangents(d, d.edges[0], points)).tolist():
            checks.append(
                {"name": f"cramer_{name}", "residual": res, "passed": res < 1e-12}
            )


def _random_incident_pair(rng):
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    basis = np.array([[-z[1], z[0], 0.0], [-z[2], 0.0, z[0]]])
    coef = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    w = coef @ basis
    return z, w


def _random_tangents(rng, z, w, count=3):
    out = []
    for _ in range(count):
        dz = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        dw = xi - ((z @ xi + w @ dz) / (z @ np.conj(z))) * np.conj(z)
        out.append((dz, dw))
    return out


def _suite_symmetry(rng, checks):
    for _ in range(10):
        z, w = _random_incident_pair(rng)
        tangents = _random_tangents(rng, z, w)
        a = omega_cfl(z, w, tangents)
        swapped = [(dw, dz) for dz, dw in tangents]
        b = omega_cfl(w, z, swapped)
        rel = abs(a.value - b.value) / max(abs(a.value), 1e-300)
        checks.append({"name": "symmetry", "rel_err": rel, "passed": rel < 1e-10})


def _suite_chart_identity(rng, checks):
    for _ in range(10):
        z, w = _random_incident_pair(rng)
        tangents = _random_tangents(rng, z, w)
        vals = []
        for j in range(3):
            for k in range(3):
                vals.append(omega_cfl(z, w, tangents, charts=(j, k)).value)
        ref = omega_cfl_affine_form(z, w, tangents).value
        spread = max(abs(v - ref) for v in vals) / max(abs(ref), 1e-300)
        checks.append(
            {"name": "chart_identity", "rel_err": spread, "passed": spread < 1e-10}
        )


def _suite_laws(rng, checks):
    ident = ProjMap(np.eye(3, dtype=complex))
    kinds = [
        ("shear1", 0.7j),
        ("scale", 1.6),
        ("swap", None),
        ("parab", 0.45),
    ]
    for kind, param in kinds:
        coeffs = tuple(rng.uniform(-1.0, 1.0, size=6))
        d = model_edge_domain(coeffs)
        predicted = apply_coordinate_change(coeffs, kind, param)
        d2 = transform_domain(d, change_matrix(kind, param))
        nf = extract_normal_form(d2, np.array([0.0j, 0.0j]), frame=ident)
        got = nf.coeffs
        err = max(abs(p - g) for p, g in zip(predicted, got))
        checks.append({"name": f"law_{kind}", "abs_err": err, "passed": err < 1e-6})


def _suite_anchor(rng, checks):
    d = domain_from_spec(load_spec("perturbed_bidisk"))
    tau = np.array([1.0, 0.1 + 0.05j, -0.2 + 0.1j])
    for z in _random_edge_points(d, rng, 3):
        res = pushforward_corner_check(d, z, tau)
        checks.append(
            {
                "name": "pushforward",
                "rel_err": res["rel_err"],
                "passed": res["rel_err"] < 1e-5,
            }
        )
    db = domain_from_spec(load_spec("bidisk"))
    rep = run_reproduce(
        db,
        lambda z: z[0] * z[1] ** 2 + 0.5,
        np.array([0.2 + 0.1j, -0.3 + 0.05j]),
        resolution=32,
        face_resolution=6,
    )
    checks.append(
        {
            "name": "anchor_reproduce",
            "rel_err": rep["rel_err"],
            "passed": rep["rel_err"] < 1e-8,
        }
    )


_SUITES = {
    "simplex": _suite_simplex,
    "cramer": _suite_cramer,
    "symmetry": _suite_symmetry,
    "chart-identity": _suite_chart_identity,
    "laws": _suite_laws,
    "anchor": _suite_anchor,
}


def selftest_cmd(suite, seed, output):
    """Run an internal consistency suite."""
    if suite not in _SUITES:
        raise InputError(
            f"unknown suite {suite!r}; choose from {sorted(_SUITES)}"
        )
    rng = np.random.default_rng(seed)
    checks = []
    _SUITES[suite](rng, checks)
    ok = all(c["passed"] for c in checks)
    _report("selftest", None, None, checks, {"suite": suite}, ok, output)


def _number(kind, low=None, low_open=False):
    """A converter of option text to a finite ``kind`` (``int`` or ``float``) of at least ``low``
    (above it if ``low_open``); it raises ``ValueError`` with the reason."""

    def convert(text):
        try:
            value = kind(text)
        except ValueError:
            raise ValueError(f"{text!r} is not a valid {kind.__name__}.") from None
        if kind is float and not math.isfinite(value):
            raise ValueError(f"{value} is not a finite number.")
        if low is not None and (value <= low if low_open else value < low):
            raise ValueError(f"{value} is not in the range x{'>' if low_open else '>='}{low}.")
        return value

    return convert


def _parser():
    """The command line's parser, with one subparser per command.

    ``argparse`` is imported here, not with the module.  A usage error is the
    usage, then one line ``Error: ...``, and exit 2; an option value out of its
    range reads ``Invalid value for '<option>': <reason>``.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"Error: {message}", file=sys.stderr)
            sys.exit(2)

    class Checked(argparse.Action):
        """Store the option's value as ``check`` converts it."""

        def __init__(self, option_strings, dest, check, **kwargs):
            super().__init__(option_strings, dest, **kwargs)
            self.check = check

        def __call__(self, parser, namespace, value, option_string=None):
            try:
                setattr(namespace, self.dest, self.check(value))
            except ValueError as exc:
                message = f"Invalid value for '{option_string}': {exc}"
                raise argparse.ArgumentError(None, message) from None

    size = _number(int, 4)  # chart resolutions and grids (see Chart.grid)
    parser = Parser(
        prog="hardycorners",
        description="Projective Hardy-space machinery on piecewise-smooth domains.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(name, run, spec=True):
        doc = run.__doc__
        sub = commands.add_parser(name, help=doc.splitlines()[0], description=doc, allow_abbrev=False)
        sub.set_defaults(run=run, command=sub)
        if spec:
            specs = ", ".join(BUILTIN_SPECS)
            sub.add_argument("spec_name", metavar="SPEC", help=f"A spec file, or one of {specs}.")
        return sub

    def checked(sub, name, check, default, help, metavar="N"):
        if default is not None:
            help += " (default: %(default)s)"
        sub.add_argument(name, action=Checked, check=check, default=default, help=help + ".", metavar=metavar)

    def output(sub):
        sub.add_argument("--output", metavar="FILE", help="Write the report here, not to stdout.")

    sub = command("check-domain", check_domain_cmd)
    radius = _number(float, 0, low_open=True)
    checked(sub, "--radius", radius, 0.2, "Radius of the weak-tangent line samples at each edge", "R")
    checked(sub, "--resolution", size, 8, "Nodes per chart axis")
    output(sub)

    sub = command("reproduce", reproduce_cmd)
    sub.add_argument("--tau", required=True, metavar="re1,im1,re2,im2", help="The interior point.")
    expression = "Holomorphic expression in z1, z2 (default: 1)."
    sub.add_argument("--f", dest="f_expr", default="1", metavar="EXPR", help=expression)
    checked(sub, "--resolution", size, 32, "Nodes per chart axis")
    checked(sub, "--face-resolution", size, None, "The faces' own --resolution")
    checked(sub, "--edge-resolution", size, None, "The edges' own --resolution")
    checked(sub, "--tolerance", _number(float, 0), 1e-6, "Largest passing relative error", "TOL")
    output(sub)

    sub = command("eta", eta_cmd)
    checked(sub, "--edge", _number(int), 0, "Edge index", "I")
    checked(sub, "--grid", size, 8, "Grid points per chart axis")
    sub.add_argument(
        "--format", dest="fmt", choices=("json", "csv"), default="json", help="Report format (default: json)."
    )
    # Two flags, since BooleanOptionalAction would name the negative --no-with-margins.
    sub.add_argument("--with-margins", action="store_true", help="Fill the margin column.")
    sub.add_argument("--no-margins", dest="with_margins", action="store_false", help="Leave it empty.")
    output(sub)

    sub = command("selftest", selftest_cmd, spec=False)
    suites = ", ".join(sorted(_SUITES))
    sub.add_argument("--suite", required=True, metavar="NAME", help=f"One of: {suites}.")
    checked(sub, "--seed", _number(int, 0), 0, "Seed of the suite's data")
    output(sub)
    return parser


# The options that take no value: every other --option takes the next argument.
_FLAGS = ("--help", "--with-margins", "--no-margins")
# The options that size a command's node sets, named when it runs out of memory.
_SIZES = ("resolution", "face_resolution", "edge_resolution", "grid")


def _attach_values(argv):
    """``argv`` with each ``--option value`` pair joined as ``--option=value``, and as typed.

    Otherwise ``argparse`` would read a value that begins with ``-``, such as
    ``--tau -0.1,0,0.2,0`` or ``--f -z1``, as an option of its own.  The
    second value maps each joined argument back to the text typed,
    ``--option value``, for error messages.
    """
    out, typed, rest = [], {}, list(argv)
    while rest:
        arg = rest.pop(0)
        if arg == "--":
            return out + [arg] + rest, typed
        if arg.startswith("--") and "=" not in arg and arg not in _FLAGS and rest:
            value = rest.pop(0)
            typed[f"{arg}={value}"] = f"{arg} {value}"
            arg += "=" + value
        out.append(arg)
    return out, typed


def main(argv=None):
    """Run one command line (``sys.argv[1:]`` if ``argv`` is None) and exit with its code."""
    joined, typed = _attach_values(sys.argv[1:] if argv is None else argv)
    args, unknown = _parser().parse_known_args(joined)
    args = vars(args)
    run, command = args.pop("run"), args.pop("command")
    if unknown:
        # The command's own usage, not the top-level one, and the arguments as typed.
        command.error("unrecognized arguments: " + " ".join(typed.get(a, a) for a in unknown))
    try:
        run(**args)
    except InputError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        sys.exit(2)
    except MemoryError:
        sizes = " ".join(
            f"--{name.replace('_', '-')} {value}"
            for name, value in args.items()
            if name in _SIZES and value is not None
        )
        if not sizes:
            raise
        _input_error(f"out of memory at {sizes}: choose a smaller size")


if __name__ == "__main__":
    main()
