"""Print one digest line per library result, to check that a change keeps every number.

Run from the repository root with ``PYTHONPATH=src python tools/fingerprint.py``
in two checkouts and ``diff`` the outputs: an empty diff means every chart node
set (its geometry, and its orientation signs on a line of their own), every
``reproduce`` and ``hardy_norm`` result (cold and warm), each field of the
cached ``reproduce`` factors (``points``, ``weights``, ``flat_points``,
``flat_grad``, ``unit_grad``, ``planes``, ``radius``), each field of every
edge's ``eta``, every piece's points and weights in
``build_measure`` at two edge resolutions, ``fefferman_density`` on every
face of each spec and of its projective image, the criterion 14 path (a warm
``hardy_norm`` of a pulled-back section on a projective image, at the
``norm_invariance`` benchmark's resolutions), every projective map evaluation
below and ``reproduce`` at the ``curved_reproduce`` and ``flat_corner_taus``
benchmarks' sizes (cold and warm, at several taus and at one pole), and a
warm ``reproduce`` at two taus next to one face node's tangent hyperplane
and at two next to one edge node's member tangent hyperplane is
bit-identical between them, and each degenerate chart of
``tests/test_nodeset.py`` fails with the same ``ProjectionError`` (kind,
reason and counts of failed nodes), and each domain's ``validate_domain``
report is the same.  The polynomial layer has lines of its own: the parsed
terms of every built-in ``rho`` and of each text in ``POLY_TEXTS``, the
terms of ``Poly`` and ``HermitianPoly`` built from each dict in ``POLY_DICTS``,
``model_edge_polys`` at seeded coefficients, ``transform_poly`` of every
built-in hypersurface under five seeded maps at its own and a raised degree,
and ``pushforward_corner_check`` at seeded points of each edge.  So do the
other identity checks of ``hardycorners.incidence``: ``omega_cfl`` on a
stack of seeded incident pairs in its default charts and in each fixed
chart, ``omega_cfl_affine_form`` on each pair, ``cramer_residual`` at seeded
edge points of ``bidisk`` and ``perturbed_bidisk``, and both routes of
``simplex_integral`` at seeded parameters for n = 2 and 3 and at a pole.  The
residual frame group of ``hardycorners.normalforms`` has lines too:
``apply_coordinate_change`` at each kind on seeded scalar and array
coefficients, ``change_matrix`` at each kind (shear at complex parameters),
and ``normalize_coeffs`` at seeded scalar and array coefficients, rows that
swap among them.  A result that raises prints its exception type and message
in place of a digest, so a changed error shows too.

Each line is ``<name> <sha256 prefix>``.  The digest covers the raw bytes,
dtype and shape of every array in the result, or the ``repr`` of a result
that is not an array.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import numpy as np

from hardycorners.cli import load_spec
from hardycorners.domain import (
    GraphPatchChart,
    ProjectionError,
    SpherePolarChart,
    TorusChart,
    domain_from_spec,
    strong_tangents,
    transform_domain,
    validate_domain,
)
from hardycorners.hermpoly import HermitianPoly, Poly, parse_poly, transform_poly
from hardycorners.incidence import (
    _random_incident_pair,
    _random_tangents,
    cramer_residual,
    omega_cfl,
    omega_cfl_affine_form,
    pushforward_corner_check,
    simplex_integral,
)
from hardycorners.measures import build_measure, fefferman_density, hardy_norm, reproduce
from hardycorners.normalforms import (
    apply_coordinate_change,
    change_matrix,
    eta,
    model_edge_polys,
    normalize_coeffs,
)
from hardycorners.projective import Section, homogenize, normalize_map, pull_back_section

SPECS = ("bidisk", "perturbed_bidisk", "sphere")
RESOLUTIONS = (4, 5, 8, 17)
TAU = np.array([0.1 + 0.05j, -0.2 + 0.1j])
EDGE_RESOLUTIONS = (6, 8)
# The norm_invariance benchmark's resolutions (criterion 14).
NORM_SIZES = {"resolution": 12, "edge_resolution": 8}


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            a = np.ascontiguousarray(part)
            h.update(f"{a.dtype}{a.shape}".encode())
            h.update(a.tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


# The library's named errors.
_ERRORS = (ArithmeticError, ValueError, ProjectionError)


def _line(name, compute):
    try:
        parts = compute()
    except _ERRORS as exc:
        print(f"{name} raises {type(exc).__name__}: {exc}")
        return
    print(f"{name} {_digest(*parts)}")


# The array fields of a cached reproduce entry, and its radius.
FACTOR_FIELDS = ("points", "weights", "flat_points", "flat_grad", "unit_grad", "planes", "radius")


def _factor_lines(name, d):
    """One line per field of each cached ``reproduce`` entry: a diff names the field that moved."""
    for key in sorted(k for k in d._cache if k[0] == "reproduce"):
        for field in FACTOR_FIELDS:
            label = f"factors {name} f{key[1]} e{key[2]} {field}"
            _line(label, lambda: (getattr(d._cache[key], field),))


def _map(seed, scale):
    rng = np.random.default_rng(seed)
    m = np.eye(3) + scale * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    return normalize_map(m), rng


def _section(z):
    return z[0] * z[1] ** 2 + 0.5


_IMAGE_MAP = _map(114, 0.06)[0]


def _domains():
    """Fresh domains (empty piece caches) by name, with one projective image."""
    out = {name: domain_from_spec(load_spec(name)) for name in SPECS}
    out["perturbed_bidisk@map"] = transform_domain(out["perturbed_bidisk"], _IMAGE_MAP)
    return out


def _pieces(d):
    return [(f"face{i}", fc.chart) for i, fc in enumerate(d.faces)] + [
        (f"edge{i}", e.chart) for i, e in enumerate(d.edges)
    ]


def _geometry(ns):
    return ns.params, ns.weights, ns.points, ns.tangents


def _node_set(ns):
    """Every field of a node set, in declaration order."""
    return (*_geometry(ns), ns.orientation)


# The fields of eta's EdgeInvariant, in declaration order.
EDGE_FIELDS = ("kappa", "eta_weight", "b1", "b2", "frame", "c1", "c2", "kappa_times_c1c2")


def nodesets():
    """Each node set's geometry on one line, and its orientation signs on another."""
    for name, d in _domains().items():
        for piece, chart in _pieces(d):
            for r in RESOLUTIONS:
                _line(f"nodes {name} {piece} r{r}", lambda: _geometry(chart.nodes(r)))
                _line(f"orientation {name} {piece} r{r}", lambda: (chart.nodes(r).orientation,))


def results():
    for name, d in _domains().items():
        for state in ("cold", "warm"):
            _line(
                f"reproduce {name} {state}",
                lambda: (reproduce(d, _section, TAU, resolution=8, edge_resolution=8),),
            )
        _factor_lines(name, d)
        for state in ("cold", "warm"):
            _line(
                f"hardy_norm {name} {state}",
                lambda: (hardy_norm(d, _section, resolution=8, edge_resolution=8),),
            )


def edge_invariants():
    """Every field of ``eta`` on each edge's nodes at resolution 8, one line each."""
    for name, d in _domains().items():
        for i, e in enumerate(d.edges):
            label = f"eta {name} edge{i} r8"
            try:
                inv = eta(d, e.chart.nodes(8).points)
            except _ERRORS as exc:
                print(f"{label} raises {type(exc).__name__}: {exc}")
                continue
            for field in EDGE_FIELDS:
                _line(f"{label} {field}", lambda: (getattr(inv, field),))


def measures():
    for name, d in _domains().items():
        for er in EDGE_RESOLUTIONS:

            def pieces():
                m = build_measure(d, resolution=8, edge_resolution=er)
                return [a for p in m.face_nodes + m.edge_nodes for a in (p.points, p.weights)]

            _line(f"build_measure {name} r8 e{er}", pieces)


def face_densities():
    """``fefferman_density`` on each face's resolution-8 nodes, for every spec and its image."""
    for name in SPECS:
        base = domain_from_spec(load_spec(name))
        for label, d in ((name, base), (f"{name}@map", transform_domain(base, _IMAGE_MAP))):
            for i, fc in enumerate(d.faces):
                ns = fc.chart.nodes(8)
                rho = d.rho(fc.hypersurface)
                _line(
                    f"fefferman_density {label} face{i} r8",
                    lambda: (fefferman_density(rho, ns.points, ns.tangents),),
                )


def pulled_norm():
    """Criterion 14's image norm: the (-2, 0) section pulled back along the inverse map."""
    d = _domains()["perturbed_bidisk@map"]
    section = Section(_section, bidegree=(-2, 0))
    ginv = _IMAGE_MAP.inverse()

    def f_moved(zp):
        return pull_back_section(ginv, section, zp).value

    for state in ("cold", "warm"):
        _line(
            f"hardy_norm pulled-back r12 e8 {state}",
            lambda: (hardy_norm(d, f_moved, **NORM_SIZES),),
        )


def bench_reproduce():
    """``reproduce`` at the two reproduce benchmarks' sizes, cold and warm, and at one pole."""
    rng = np.random.default_rng(115)
    points = 0.6 * rng.random((4, 2)) * np.exp(2j * np.pi * rng.random((4, 2)))
    taus = {f"tau{i}": tau for i, tau in enumerate(points)}
    # On the first disk's boundary circle, where face and edge tangent planes pass through it.
    taus["pole"] = np.array([1.0, 0.0])
    cases = [
        ("perturbed_bidisk", "r24 e12", {"resolution": 24, "edge_resolution": 12}, {"tau": TAU}),
        ("bidisk", "f6 e64", {"face_resolution": 6, "edge_resolution": 64}, {"tau": TAU, **taus}),
    ]
    for name, label, sizes, case_taus in cases:
        d = domain_from_spec(load_spec(name))
        for state in ("cold", "warm"):
            for tau_name, tau in case_taus.items():
                _line(
                    f"reproduce {name} {label} {tau_name} {state}",
                    lambda: (reproduce(d, _section, tau, **sizes),),
                )
        _factor_lines(name, d)


def face_poles():
    """Warm ``reproduce`` at two taus next to a face node's tangent hyperplane ``[-(g . z) : g]``.

    tau is built as ``tests/test_measures.py`` builds an edge pole, from the
    hyperplane and ``tau2 = 0.2i``.  On the hyperplane the node's pairing is
    below its floor ``1e-12 |z - tau|``, so the call raises.  Moved off it
    until the pairing is twice that floor, tau is still within
    ``1e-12 (R + |tau|)`` of every face node's hyperplane for R the largest
    face node ``|z|``, so a pole screen on that bound cannot decide and the
    floors must; no node fails them, and the line is a value digest.
    """
    d = domain_from_spec(load_spec("perturbed_bidisk"))
    sizes = {"resolution": 8, "edge_resolution": 6}
    reproduce(d, _section, TAU, **sizes)
    fac = d._cache[("reproduce", 8, 6)]
    z, g = fac.points[5], fac.unit_grad[5]
    w = np.array([-(g @ z), g[0], g[1]])
    tau2 = 0.2j
    on = np.array([-(w[0] + w[2] * tau2) / w[1], tau2])
    off = on - np.array([2e-12 * np.linalg.norm(z - on) / g[0], 0.0])
    for label, tau in (("on", on), ("off", off)):
        _line(
            f"reproduce perturbed_bidisk r8 e6 face pole {label} warm",
            lambda: (reproduce(d, _section, tau, **sizes),),
        )


def edge_poles():
    """Warm ``reproduce`` at a tau on one edge node's member tangent hyperplane, and just off it.

    tau is built as ``tests/test_measures.py`` builds an edge pole, on no face
    node's hyperplane, so the corner pole rule decides.  On the hyperplane the
    node's pairing is below its floor ``1e-12 |tau|``, so the call raises.
    Moved off it until the pairing is ``0.8 (1 + i)`` times that floor, both
    of its parts are below the floor and its modulus is above it, so a screen
    on the parts cannot decide and the moduli must; no pairing fails them,
    and the line is a value digest.
    """
    d = domain_from_spec(load_spec("perturbed_bidisk"))
    sizes = {"resolution": 8, "edge_resolution": 6}
    reproduce(d, _section, TAU, **sizes)
    w = d._cache[("reproduce", 8, 6)].planes[1, 0]
    tau2 = 0.2j
    on = np.array([-(w[0] + w[2] * tau2) / w[1], tau2])
    floor = 1e-12 * np.linalg.norm(homogenize(on))
    off = on + np.array([0.8 * (1 + 1j) * floor / w[1], 0.0])
    for label, tau in (("on", on), ("off", off)):
        _line(
            f"reproduce perturbed_bidisk r8 e6 edge pole {label} warm",
            lambda: (reproduce(d, _section, tau, **sizes),),
        )


def maps():
    bidegrees = ((-2, 0), (1, 1), (Fraction(-3, 2), Fraction(1, 2)))
    for seed in range(5):
        t, rng = _map(seed, 0.3)
        points = 0.5 * (rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2)))
        one = (complex(points[0, 0]), complex(points[0, 1]))
        _line(f"affine map{seed} batch", lambda: t.affine(points))
        _line(f"affine map{seed} point", lambda: t.affine(one))
        _line(f"jacobian map{seed} batch", lambda: (t.jacobian(points),))
        _line(f"jacobian map{seed} point", lambda: (t.jacobian(one),))
        for j, k in bidegrees:
            f = Section(_section, bidegree=(j, k))
            for label, zhat in (("batch", (points[:, 0], points[:, 1])), ("point", one)):

                def pulled():
                    v = pull_back_section(t, f, zhat)
                    basepoint = getattr(v.basepoint, "array", v.basepoint)
                    return v.value, v.bidegree, basepoint, v.chart_dependent

                _line(f"pull_back_section map{seed} ({j}, {k}) {label}", pulled)


def degenerate_charts():
    """The error of each degenerate chart of ``tests/test_nodeset.py``: failed and singular rows."""
    sphere = parse_poly("abs2(z1) + abs2(z2) - 1")
    sheet1 = parse_poly("abs2(z1) + 0.1*abs2(z2) - 1")
    doubled = parse_poly("abs2(z1) + abs2(z2) - 2")
    bidisk = [parse_poly("abs2(z1) - 1"), parse_poly("abs2(z2) - 1")]
    nan = float("nan")
    cases = {
        "graph_patch off the locus r6": (GraphPatchChart(sphere, disk_radius=2.0), 6),
        "graph_patch nan start r4": (GraphPatchChart(bidisk[0], r0=nan), 4),
        "torus2 nan start r4": (TorusChart(bidisk, r0=(nan, nan)), 4),
        "torus2 doubled member r4": (TorusChart([doubled, doubled], r0=(0.9, 0.9)), 4),
        "torus2 doubled member on the locus r4": (TorusChart([doubled, doubled]), 4),
        "sphere_polar zero start r8": (SpherePolarChart(sphere, r0=0), 8),
        "graph_patch zero start r8": (GraphPatchChart(sheet1, r0=0), 8),
        "torus2 zero start r8": (TorusChart(bidisk, r0=(0, 0)), 8),
    }
    for name, (chart, r) in cases.items():
        _line(f"degenerate {name}", lambda: _node_set(chart.nodes(r)))
    flat = GraphPatchChart(parse_poly("abs2(z2) - 0.25"))
    one_node = np.array([[0.5, 0.0, 0.0]])
    _line("degenerate graph_patch flat along z1", lambda: flat.project(one_node))


# Malformed and edge-case inputs of the defining-function grammar, valid ones among them.
POLY_TEXTS = (
    "",
    "   ",
    "abs2(z1",
    "abs2(z3) - 1",
    "1.2.3*abs2(z1) - 1",
    ".*abs2(z1)",
    "+.5e+1*abs2(z1) - 1",
    "1e-3*abs2(z1) - 1",
    "(2.5E+1, 0e0)*abs2(z2) - .5e1",
    "1e*abs2(z1)",
    "(1, )*abs2(z1)",
    "(1 2)*abs2(z1)",
    "z1^",
    "z1^-1",
    "z1^2*conj(z1)^2 - 1 -",
    "abs2(z1) + z1 - 1",
    "(1,1)*z1*conj(z2) + (1,1)*conj(z1)*z2",
    "conj(z1)^0*z1^0 - 1",
    "z1^\u00b2*conj(z1)^2 - 1",
    "\u0663*abs2(z1) - 1",
    "(\u0661, 0)*abs2(z1) - 1",
    "-+abs2(z1)",
    "+-abs2(z1)",
    "abs2(z1) 2",
    "abs2(z1) -- 1",
    "abs2(z1) - +1",
    "- abs2(z1)",
    "-",
    "+",
    "*z1",
    "abs2(z1)*",
    "conj(z1",
    "conj(z3)",
    "z1 ^2*conj(z1)^ 2",
    "(-1,-0.0)*abs2(z2)",
    "(0,1)*z1",
)

# Coefficient dicts for Poly and HermitianPoly: unsorted keys, a zero and an
# int coefficient, a -0.0 part, and three asymmetric pairs (one without its mate).
POLY_DICTS = (
    {(0, 0, 1, 1): 2.0, (1, 1, 0, 0): 1, (0, 0, 0, 0): -1.0, (1, 0, 0, 0): 0.0},
    {(1, 1, 0, 0): complex(1, -0.0), (0, 0, 0, 0): complex(-0.0, -0.0), (0, 0, 1, 1): complex(-0.0, 1e-13)},
    {(2, 0, 0, 0): 1.0, (1, 0, 0, 0): 0.5j, (0, 1, 0, 0): 0.5j, (0, 0, 1, 0): 1.0, (0, 0, 0, 1): 2.0},
    {(1, 0, 0, 1): 1 + 2j, (0, 1, 1, 0): 1 - 2j, (1, 1, 0, 0): 0j, (0, 0, 0, 0): 3.0},
)


def _terms(p):
    """A polynomial's exponent keys and coefficients, as two arrays."""
    return np.array(list(p.terms), dtype=int).reshape(-1, 4), np.array(list(p.terms.values()))


def polynomials():
    """The polynomial layer: parsing, the model edge, transform_poly and the corner check."""
    rhos = {}
    for name in SPECS:
        for h in load_spec(name)["hypersurfaces"]:
            label = f"{name} {h['label']}"
            _line(f"parse_poly {label}", lambda: _terms(parse_poly(h["rho"])))
            rhos[label] = parse_poly(h["rho"])
    for i, text in enumerate(POLY_TEXTS):
        _line(f"parse_poly text{i} {text!a}", lambda: _terms(parse_poly(text)))
    for i, terms in enumerate(POLY_DICTS):
        for cls in (Poly, HermitianPoly):
            _line(f"{cls.__name__} dict{i}", lambda: (*_terms(cls(terms)), repr(cls(terms))))
    rng = np.random.default_rng(116)
    for i in range(6):
        coeffs = tuple(rng.uniform(-2.0, 2.0, size=6))
        _line(
            f"model_edge_polys c{i}",
            lambda: [a for p in model_edge_polys(coeffs) for a in _terms(p)],
        )
    for seed in range(5):
        t = _map(seed, 0.3)[0]
        for label, rho in rhos.items():
            d = max(rho.max_degrees())
            for degree in (d, d + 2):
                _line(
                    f"transform_poly map{seed} {label} d{degree}",
                    lambda: _terms(transform_poly(rho, t, degree)),
                )
    tau = np.array([1.0, 0.1 + 0.05j, -0.2 + 0.1j])
    for name, d in _domains().items():
        for i, e in enumerate(d.edges):
            params = 2 * np.pi * np.random.default_rng(117 + i).random((3, e.chart.dim))
            for k, z in enumerate(e.chart.project(params)[0]):
                _line(
                    f"pushforward_corner_check {name} edge{i} z{k}",
                    lambda: tuple(pushforward_corner_check(d, z, tau).values()),
                )


def identities():
    """The incidence identity checks: ``omega_cfl``, its affine form, ``cramer_residual``, ``simplex_integral``."""
    rng = np.random.default_rng(118)
    pairs = [_random_incident_pair(rng) for _ in range(4)]
    lifts = [_random_tangents(rng, z, w) for z, w in pairs]
    z = np.array([z for z, _ in pairs])
    w = np.array([w for _, w in pairs])
    # Tangent i of every pair, stacked along the pair axis.
    stacked = [(np.array([t[i][0] for t in lifts]), np.array([t[i][1] for t in lifts])) for i in range(3)]
    _line("omega_cfl pairs4 default", lambda: (omega_cfl(z, w, stacked).value,))
    for j in range(3):
        for k in range(3):
            _line(
                f"omega_cfl pairs4 ({j}, {k})",
                lambda: (omega_cfl(z, w, stacked, charts=(j, k)).value,),
            )
    for i, ((zi, wi), tangents) in enumerate(zip(pairs, lifts)):
        _line(f"omega_cfl_affine_form pair{i}", lambda: (omega_cfl_affine_form(zi, wi, tangents).value,))
    for name in ("bidisk", "perturbed_bidisk"):
        d = domain_from_spec(load_spec(name))
        for i, e in enumerate(d.edges):
            params = 2 * np.pi * np.random.default_rng(119 + i).random((5, e.chart.dim))
            points = e.chart.project(params)[0]
            _line(
                f"cramer_residual {name} edge{i} z0-4",
                lambda: (cramer_residual(strong_tangents(d, e, points)),),
            )
    rng = np.random.default_rng(120)
    for n in (2, 3):
        taus = [0.5 * (rng.random(n) - 0.5) + 0.25j * (rng.random(n) - 0.5) for _ in range(3)]
        # A factor 1 - tau_j of 0 puts the pole on the simplex: both routes raise.
        taus.append(np.ones(n))
        for i, tau in enumerate(taus):
            _line(f"simplex_integral n{n} tau{i} closed", lambda: (simplex_integral(tau, "closed"),))
            _line(
                f"simplex_integral n{n} tau{i} quadrature o24",
                lambda: (simplex_integral(tau, "quadrature", order=24),),
            )


# Each generator, shear at complex parameters (only the imaginary part acts),
# a scale parameter that is rejected and an unknown kind.
LAW_CASES = (
    ("shear1", 0.45j),
    ("shear1", 0.3 - 0.2j),
    ("shear1", complex(-0.6)),
    ("scale", 1.7),
    ("scale", 0.0),
    ("swap", None),
    ("parab", 0.35),
    ("parab", -1.2),
    ("rotate", 1.0),
)


def laws():
    """The residual frame group: each law and its matrix, and the canonical-slice normalization."""
    rng = np.random.default_rng(121)
    one = tuple(rng.uniform(-2.0, 2.0, size=6))
    rows = tuple(rng.uniform(-2.0, 2.0, size=(6, 16)))
    for kind, param in LAW_CASES:
        _line(f"change_matrix {kind} {param}", lambda: (change_matrix(kind, param).matrix,))
        for label, coeffs in (("scalar", one), ("array", rows)):
            _line(
                f"apply_coordinate_change {kind} {param} {label}",
                lambda: apply_coordinate_change(coeffs, kind, param),
            )
    a1, b1, c1, a2, b2, c2 = rng.uniform(-2.0, 2.0, size=(6, 16))
    # Negative transverse curvatures, and b's of either order so that some rows swap.
    rows = (a1, b1, -np.abs(c1) - 0.1, a2, b2, -np.abs(c2) - 0.1)
    _line("normalize_coeffs array", lambda: tuple(normalize_coeffs(rows)))
    for i in range(4):
        _line(f"normalize_coeffs row{i}", lambda: tuple(normalize_coeffs([c[i] for c in rows])))
    _line("normalize_coeffs positive c1", lambda: tuple(normalize_coeffs((0, 0, 1, 0, 0, -1))))


def checks():
    """The ``validate_domain`` report of each domain at each of ``RESOLUTIONS``."""
    for name, d in _domains().items():
        for r in RESOLUTIONS:
            _line(f"validate_domain {name} r{r}", lambda: (validate_domain(d, r),))


if __name__ == "__main__":
    nodesets()
    results()
    edge_invariants()
    measures()
    face_densities()
    pulled_norm()
    maps()
    bench_reproduce()
    face_poles()
    edge_poles()
    degenerate_charts()
    checks()
    polynomials()
    identities()
    laws()
