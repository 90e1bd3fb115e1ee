"""The library's records: constructors, immutability, lengths, equality and caches.

The records are written out by hand (named tuples and plain classes), so the
contract that generated dataclasses used to give is pinned here.
"""

import copy
import dataclasses
import importlib
import pickle
import pkgutil
from fractions import Fraction

import numpy as np
import pytest

import hardycorners
from hardycorners.domain import Edge, Face, NodeSet, PwsDomain, transform_domain
from hardycorners.hermpoly import parse_poly
from hardycorners.kernels import Density, StrongTangentSet
from hardycorners.measures import BoundaryMeasure, _Factors, _NodeSet, _Piece
from hardycorners.normalforms import EdgeInvariant, NormalForm, NormalizedEdge
from hardycorners.projective import HomVec, ProjMap, Section, SectionValue

_A = np.arange(6.0)
_EYE = np.eye(3, dtype=complex)
_RHO = parse_poly("abs2(z1) + abs2(z2) - 1")


def _section(z):
    return z[0]


def _fields():
    """Each record type with its fields in constructor order, as the library fills them."""
    point, plane = HomVec((1, 0, 0)), HomVec((0, 1, 0), "hyperplane")
    four = {"points": _A, "weights": _A, "face_nodes": [], "edge_nodes": []}
    bidegrees = {"bidegree_z": (2, 0), "bidegree_w": (0, 0), "bidegree_tau": (-2, 0)}
    halves = (Fraction(-3, 2), Fraction(0))
    return [
        (NodeSet, dict(params=_A, weights=_A, points=_A, tangents=_A, orientation=_A)),
        (Face, dict(hypersurface=0, chart=None)),
        (Edge, dict(members=(0, 1), chart=None)),
        (PwsDomain, dict(hypersurfaces=[("s", _RHO)], faces=[], edges=[], interior_points=[_A])),
        (Density, dict(value=1j, form_degree=2, **bidegrees, basepoint=point)),
        (StrongTangentSet, dict(basepoint=point, planes=(plane, plane))),
        (_Piece, dict(points=_A, weights=_A, rows=slice(0, 6))),
        (_NodeSet, four),
        (BoundaryMeasure, four),
        (_Factors, dict(four, flat_points=_A, unit_grad=_A, planes=_A, radius=2.0)),
        (NormalForm, dict(a1=1.0, b1=2.0, c1=3.0, a2=4.0, b2=5.0, c2=6.0)),
        (NormalizedEdge, dict(b1=1.0, b2=2.0, q=3.0, r=4.0, shift1=5.0, shift2=6.0, swapped=False)),
        (
            EdgeInvariant,
            dict(kappa=1.0, eta_weight=2.0, b1=3.0, b2=4.0, frame=_A, c1=5.0, c2=6.0, kappa_times_c1c2=7.0),
        ),
        (HomVec, dict(coords=(1j, 2.0, 3.0), role="hyperplane")),
        (ProjMap, dict(matrix=_EYE)),
        (Section, dict(func=_section, bidegree=halves)),
        (SectionValue, dict(value=_A, bidegree=halves, zhat=(_A, _A), chart_dependent=True)),
    ]


# Frozen when they were dataclasses; Face, Edge and PwsDomain were not.
_FROZEN = [(cls, fields) for cls, fields in _fields() if cls not in (Face, Edge, PwsDomain)]


def _same(a, b):
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("cls, fields", _fields(), ids=lambda x: getattr(x, "__name__", ""))
def test_every_record_builds_positionally_and_by_keyword(cls, fields):
    for record in (cls(*fields.values()), cls(**fields)):
        for name, value in fields.items():
            assert _same(getattr(record, name), value), (cls.__name__, name)


def test_records_keep_their_defaults_and_coercions():
    d = Density(value=1.0, form_degree=3)
    assert (d.bidegree_z, d.bidegree_w, d.bidegree_tau) == ((0, 0), (0, 0), (0, 0))
    assert d.basepoint is None
    assert HomVec((1, 2, 3)).role == "point"
    assert HomVec((1, 2, 3)).coords == (1 + 0j, 2 + 0j, 3 + 0j)
    assert all(type(c) is complex for c in HomVec(np.arange(1, 4)).coords)
    assert Section(_section, (-2, 1)).bidegree == (Fraction(-2), Fraction(1))
    assert not SectionValue(1j, (0, 0), (0j, 0j)).chart_dependent
    domain = PwsDomain([("s", _RHO)], [], [])
    assert domain.interior_points == []
    matrix = _EYE.copy()
    t = ProjMap(matrix)
    assert t.matrix is not matrix and not t.matrix.flags.writeable
    matrix[0, 0] = 2.0
    assert t.matrix[0, 0] == 1.0


def test_validation_messages_are_kept():
    with pytest.raises(ValueError, match="exactly 3 coordinates"):
        HomVec((1.0, 2.0))
    with pytest.raises(ValueError, match="all homogeneous coordinates are zero"):
        HomVec((0, 0, 0))
    with pytest.raises(ValueError, match="unknown role 'line'"):
        HomVec((1, 0, 0), "line")
    with pytest.raises(ValueError, match="must be 3x3"):
        ProjMap(np.eye(2))
    with pytest.raises(ValueError, match="unit determinant"):
        ProjMap(2 * _EYE)
    with pytest.raises(ValueError, match="duplicate hypersurface label 's'"):
        PwsDomain([("s", _RHO), ("s", _RHO)], [], [])


@pytest.mark.parametrize("cls, fields", _FROZEN, ids=lambda x: getattr(x, "__name__", ""))
def test_formerly_frozen_records_refuse_assignment(cls, fields):
    record = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert _same(getattr(record, name), getattr(cls(**fields), name))


def test_lengths_count_nodes_and_planes():
    assert len(NodeSet(_A, _A, _A, _A, _A)) == 6
    assert len(_Piece(_A[:4], _A[:4], slice(0, 4))) == 4
    planes = (HomVec((0, 1, 0), "hyperplane"), HomVec((0, 0, 1), "hyperplane"))
    strong = StrongTangentSet(HomVec((1, 0, 0)), planes)
    assert len(strong) == 2
    assert strong[0] is planes[0] and strong[1] is planes[1]
    with pytest.raises(IndexError):
        strong[2]


def test_homvec_equality_and_hash_are_by_value():
    a, b = HomVec((1, 2j, 3)), HomVec(np.array([1, 2j, 3]))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != HomVec((1, 2j, 3), "hyperplane")
    assert a != HomVec((2, 4j, 6))
    assert a != a.coords


def test_section_equality_and_hash_are_by_function_and_bidegree():
    a, b = Section(_section, (1, 0)), Section(_section, (Fraction(1), 0.0))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Section(_section, (0, 1))
    assert a != Section(lambda z: _section(z), (1, 0))
    assert a != (_section, (1, 0))


def test_array_records_compare_by_identity():
    t = ProjMap(_EYE)
    assert t == t and t != ProjMap(_EYE)
    ns = NodeSet(_A, _A, _A, _A, _A)
    assert ns != NodeSet(_A, _A, _A, _A, _A) and hash(ns) == hash(ns)


def test_domains_never_share_a_cache():
    spec = ([("s", _RHO)], [], [])
    first, second = PwsDomain(*spec), PwsDomain(*spec)
    assert first._cache == {} and first._cache is not second._cache
    assert transform_domain(first, _EYE)._cache is not first._cache
    with pytest.raises(TypeError):
        PwsDomain(*spec, _cache={})


def test_cached_properties_compute_once():
    t = ProjMap(_EYE)
    assert t._entries is t._entries and t._entries == _EYE.tolist()
    value = SectionValue(1j, (0, 0), (0.5j, 2.0))
    assert value.basepoint is value.basepoint and value.basepoint == HomVec((1, 0.5j, 2))


def test_frozen_records_copy_and_pickle():
    t = ProjMap(_EYE)
    t._entries  # a cached value travels with the copy
    for record in (HomVec((1, 2, 3)), t, NodeSet(_A, _A, _A, _A, _A), Section(_section, (1, 0))):
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record)
            with pytest.raises(AttributeError):
                twin.extra = 1
    assert copy.deepcopy(t)._entries == t._entries
    assert pickle.loads(pickle.dumps(HomVec((1, 2, 3)))) == HomVec((1, 2, 3))


def test_traced_methods_stay_in_their_class_bodies():
    # bench/tracer.py wraps these through vars(cls)[name].
    for cls, names in (
        (BoundaryMeasure, ("integrate",)),
        (PwsDomain, ("edge_at",)),
        (ProjMap, ("apply", "den", "affine", "jacobian", "inverse")),
    ):
        for name in names:
            assert callable(vars(cls)[name])


def test_no_module_defines_a_dataclass():
    found = []
    for info in pkgutil.iter_modules(hardycorners.__path__, "hardycorners."):
        module = importlib.import_module(info.name)
        found += [
            f"{info.name}.{name}"
            for name, obj in vars(module).items()
            if isinstance(obj, type)
            and obj.__module__ == info.name
            and dataclasses.is_dataclass(obj)
        ]
    assert found == []
