"""Print one digest line per library result, to check that a change keeps every number.

Run from the repository root with ``PYTHONPATH=src python tools/fingerprint.py``
in two checkouts and ``diff`` the outputs: an empty diff means every chart node
set, every ``reproduce`` and ``hardy_norm`` result (cold and warm), each array
of the cached ``reproduce`` factors (``weights``, ``unit_grad``, ``planes``),
each field of every edge's ``eta``, every piece's points and weights in
``build_measure`` at two edge resolutions, the criterion 14 path (a warm
``hardy_norm`` of a pulled-back section on a projective image, at the
``norm_invariance`` benchmark's resolutions), every projective map evaluation
below, and ``reproduce`` at the ``curved_reproduce`` and ``flat_corner_taus``
benchmarks' sizes (cold and warm, at several taus and at one pole) is
bit-identical between them.  A result that raises prints its exception type
and message in place of a digest, so a changed error shows too.

Each line is ``<name> <sha256 prefix>``.  The digest covers the raw bytes,
dtype and shape of every array in the result, or the ``repr`` of a result
that is not an array.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple, fields
from fractions import Fraction

import numpy as np

from hardycorners import (
    ProjectionError,
    Section,
    build_measure,
    domain_from_spec,
    hardy_norm,
    normalize_map,
    pull_back_section,
    reproduce,
    transform_domain,
)
from hardycorners.cli import load_spec
from hardycorners.normalforms import eta

SPECS = ("bidisk", "perturbed_bidisk", "sphere", "wedge_union")
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


def _factor_lines(name, d):
    """One line per array of each cached ``reproduce`` entry: a diff names the array that moved."""
    for key in sorted(k for k in d._cache if k[0] == "reproduce"):
        for field in ("weights", "unit_grad", "planes"):
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


def nodesets():
    for name, d in _domains().items():
        for piece, chart in _pieces(d):
            for r in RESOLUTIONS:
                _line(f"nodes {name} {piece} r{r}", lambda: astuple(chart.nodes(r)))


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
            for field in fields(inv):
                _line(f"{label} {field.name}", lambda: (getattr(inv, field.name),))


def measures():
    for name, d in _domains().items():
        for er in EDGE_RESOLUTIONS:

            def pieces():
                m = build_measure(d, resolution=8, edge_resolution=er)
                return [a for p in m.face_nodes + m.edge_nodes for a in (p.points, p.weights)]

            _line(f"build_measure {name} r8 e{er}", pieces)


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


if __name__ == "__main__":
    nodesets()
    results()
    edge_invariants()
    measures()
    pulled_norm()
    maps()
    bench_reproduce()
