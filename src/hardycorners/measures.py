"""Boundary measures and the numerical reproducing formula.

Two measure pieces live on a piecewise-smooth boundary:

* on each smooth face, the defining-function-independent boundary density
  built from the determinant of the bordered complex Hessian, which is the
  Levi form on the complex tangent (:func:`fefferman_density`) — the natural
  surface measure of CR geometry, here normalized so that the unit sphere
  with an orthonormal tangent frame gives 2**(1/3);
* on each edge, the cube root of the edge weight produced by
  :mod:`.normalforms`, against the complex arc element of the edge
  (:func:`edge_measure_density`).  That module is imported by the first
  measure build, not with this one: the reproducing formula does not use
  the edge invariant.

:func:`hardy_norm` integrates |f|^2 against both pieces; the combination is
what transforms cleanly under projective maps.  :func:`reproduce` runs the
actual reproducing formula: faces carry the smooth second-order Cauchy
density, edges carry the corner kernel, and for holomorphic f the sum
returns f at the interior point.

Both are sums, over the same boundary pieces, of a node weight times the
section.  Both kernels depend on the interior point tau only through a
pairing: the face density is a tau-free factor over ``(g_hat . (z -
tau))**2`` with ``g_hat = g / |g|``, the corner kernel one over ``(tau .
w1_hat)(tau . w2_hat)`` with the unit member hyperplanes.  And the measure
does not depend on the section at all.  So each is built on first use as
one read-only node set of all pieces, faces first (a :class:`_NodeSet`),
and cached for the domain's lifetime in the dict ``PwsDomain._cache``:

* ``("reproduce", face_resolution, edge_resolution)``: a :class:`_Factors`,
  one complex weight per node folding the quadrature weight, orientation
  sign and kernel factor, and what tau is paired with: unit gradients at
  face nodes, two unit member hyperplanes at edge nodes, each array row for
  row with the nodes it belongs to.  Face nodes where the density vanishes
  (Levi-flat) keep no weight and serve only the pole check: their points
  and unit gradients are two arrays of their own (``flat_points``,
  ``flat_grad``).  80 bytes per face node (64 if Levi-flat), 144 per edge
  node, and one float per entry: R, the largest ``|z|`` over the face
  nodes;
* ``("measure", resolution, edge_resolution)``: the
  :class:`BoundaryMeasure`, one real weight per node (quadrature weight
  times measure density): 40 bytes per node.  The key holds the resolved
  edge resolution, so the default and the same value given explicitly
  share one entry.

An entry is built in one pass over each piece's grid, a block of at most
``domain._BLOCK`` (2,304) rows at a time
(:meth:`~hardycorners.domain.Chart._blocks`): each block is projected,
built by the piece's builder and written straight into the entry's arrays,
which are allocated at their first rows for as many rows as may still come
(:class:`_Rows`).  So no piece's whole node set, tangents or factor
temporaries exist at once, and a build's peak is the entry plus about one
block: traced, 1.14 times the entry of ``reproduce`` on ``bidisk`` at
6/256, and 1.30 and 1.24 times the entries of ``reproduce`` and
``hardy_norm`` on ``perturbed_bidisk`` at 48/24.  Only a domain whose faces
are partly Levi-flat copies arrays once more, each to its size, at the end.
Then :func:`_cached` allocates and frees one untouched array as large as
the entry, so that the warm calls' temporaries come from the heap (its
docstring says why); it is never resident, but ``tracemalloc`` counts it.
Every step is row by row, so every number is that of one projection of the
whole grid.  A block that fails, in its projection or in its builder (a
``ValueError``), ends the piece: the chart's whole grid is projected once,
so that its :class:`~hardycorners.domain.ProjectionError`, if it has one,
comes first, as it does when the whole grid is projected before it is
built.

Every multi-column node array of both entries (``points``, ``flat_points``,
``flat_grad``, ``unit_grad``, ``planes``) is coordinate-major: in Fortran
order, so that each column, such as ``points[:, 0]``, is contiguous.  The
pairings and the section call read only columns, and the bytes per node
are those of row-major arrays.

A later :func:`reproduce` at any tau costs one pairing per face that keeps
weighted nodes and one for all edges, each written into its rows of one
divisor, then, like :func:`hardy_norm`, one section call on all weighted
nodes and one sum per piece that has rows (:meth:`_NodeSet._sums`); an
empty piece, such as a Levi-flat face of ``bidisk``, is ``0j`` without a
pairing or a sum.  Every check that does not depend on tau or the section
(chart projection, with its rank-deficient frames, vanishing gradients, the
strong tangents' on-locus test, non-positive edge weights) runs when an
entry is built, and a failed build caches nothing; the pole checks run on
every call over every node, before the section call, and the shape check
on every section call.  A face's pole check is screened: as ``|z - tau| <=
R + |tau|``, a smallest ``|pairing|`` of at least ``1e-12 (R + |tau|)``
clears every node's floor ``1e-12 |z - tau|``, and only when it does not
are the floors computed (:func:`~hardycorners.kernels._leray_pairing`), so
every decision is the per-node rule's.  The edges' check is screened too: a
pairing whose larger real or imaginary part reaches the floor ``1e-12
|tau|`` clears it, and only when some pairing does not are the moduli taken
(:func:`~hardycorners.kernels._corner_pairing`).  Domains and charts are
treated as immutable once built, and
:func:`~hardycorners.domain.transform_domain` builds a new domain with a
cache of its own.

The orientation signs are read from the node sets, each piece's boundary
orientation as :meth:`~hardycorners.domain.Chart.project` decides it, and
multiply face and edge weights alike.  No frame is built here for
orientation.  The real conormal of
:func:`fefferman_density` is converted from the face gradient it already
holds, not evaluated again.

The two entries each project the charts, on purpose.  Building both at
once would make :func:`reproduce` fail wherever the edge weight does: on
``bidisk``, :func:`hardy_norm` and every node of the ``eta`` CLI raise
"canonical slice requires negative transverse curvatures", while
:func:`reproduce` is exact to rounding.  And caching one shared node set
would keep its tangents (96 bytes per face node) alive for callers that use
only one of the two.
"""

from __future__ import annotations

import cmath
from functools import partial

import numpy as np

from .domain import _check_charts, _check_resolution, strong_tangents
from .hermpoly import _gradient_norm, _hermitian_form, _real_gradient
from .kernels import (
    _corner_factor,
    _corner_pairing,
    _leray_factor,
    _leray_pairing,
    _real_columns,
)

# Unused here, but bench/tracer.py wraps these by name in this module's namespace.
from .kernels import corner_kernel, smooth_leray_density  # noqa: F401
from .kernels import orientation_sign_edge, orientation_sign_face  # noqa: F401
from .projective import _det4_columns, _Frozen, det2, homogenize

__all__ = [
    "BoundaryMeasure",
    "fefferman_density",
    "edge_measure_density",
    "build_measure",
    "hardy_norm",
    "reproduce",
]


def fefferman_density(rho, zhat, tangents):
    """Boundary measure density of a smooth face on a real tangent frame.

    Computes ``2**(4/3) * |det B|**(1/3) * |det[nu, V1, V2, V3]| / |grad|``
    where B is the bordered complex Hessian ``[[0, conj(g)], [g, h^T]]`` of
    the defining function and nu the unit outward real gradient.  Expanding
    along its border, ``det B = -v^H h v`` with ``v = (g2, -g1)``: the Levi
    form on the complex tangent line, as ``g . v = 0``.  Exactly independent
    of the choice of defining function on the locus (rho -> u rho rescales
    det B by u^3 and the gradient by u).  Levi-degenerate points give density
    0; a vanishing gradient raises.  Array-capable: ``(N, 2)`` points with
    ``(N, 3, 2)`` tangents give ``(N,)`` densities.
    """
    zhat = np.asarray(zhat, dtype=complex)
    z1, z2 = zhat[..., 0], zhat[..., 1]
    g = rho.grad(z1, z2)
    _gradient_norm(g)
    grad_r = _real_gradient(g)
    gn = np.linalg.norm(grad_r, axis=-1)
    # |det B| = |v^H h v| on the complex tangent v = (g2, -g1): g . v = 0
    v = np.stack([g[..., 1], -g[..., 0]], axis=-1)
    levi = _hermitian_form(rho.hessian_complex(z1, z2), v, v).real
    frame_det = _det4_columns(_real_columns([grad_r / gn[..., None]], tangents))
    return 2.0 ** (4.0 / 3.0) * np.abs(levi) ** (1.0 / 3.0) * np.abs(frame_det) / gn


def edge_measure_density(eta_weight, tangents):
    """Edge measure density: cube root of the edge weight times |dz(v1, v2)|.

    ``tangents`` are two affine edge-tangent vectors; the complex arc element
    is the alternating product of their coordinates.  The weight must be
    positive for the measure to exist.  Array-capable: ``(N,)`` weights with
    ``(N, 2, 2)`` tangents give ``(N,)`` densities.
    """
    eta_weight = np.asarray(eta_weight, dtype=float)
    if not np.all(eta_weight > 0):
        raise ValueError("edge weight must be positive to define a measure")
    dz12 = det2(np.asarray(tangents, dtype=complex))
    return eta_weight ** (1.0 / 3.0) * np.abs(dz12)


def _section_on(f, points):
    """A section's values ``(N,)`` at ``(N, 2)`` points, from one call on their coordinate pair."""
    n = len(points)
    values = np.asarray(f((points[:, 0], points[:, 1])))
    if values.shape == (n,):
        return values
    if values.shape:
        raise ValueError(
            "a section is called on the coordinate pair (z1, z2) of N points, two "
            f"arrays of shape ({n},), and must return shape ({n},) or a scalar; "
            f"got shape {values.shape}"
        )
    return np.broadcast_to(values, (n,))


class _Piece(_Frozen):
    """A piece's ``rows`` of a node set's weights, and views of its ``points`` and ``weights``.

    ``len`` counts its nodes.  Immutable, and compared by identity.
    """

    __slots__ = ("points", "weights", "rows")

    def __len__(self):
        return len(self.weights)


class _NodeSet(_Frozen):
    """The nodes of every boundary piece as one read-only node set, faces first.

    ``points`` ``(N, 2)`` carry the ``weights`` ``(N,)``; each piece's
    :class:`_Piece` in ``face_nodes`` or ``edge_nodes`` views its rows.
    Immutable, and compared by identity, as are its subclasses.
    """

    __slots__ = ("points", "weights", "face_nodes", "edge_nodes")

    def _sums(self, terms, cast):
        """``(total, per face, per edge)``: each piece's rows of ``terms`` ``(N,)``, summed, cast.

        An empty piece is ``cast(0j)``, without a slice.  The total adds the
        faces' sum to the edges'.  A total that is not finite raises
        ``ValueError`` naming the first piece whose sum is not (if none, the
        total of finite sums overflowed); the pieces are searched only then.
        """
        pieces = self.face_nodes + self.edge_nodes
        sums = [cast(terms[p.rows].sum() if len(p) else 0j) for p in pieces]
        faces, edges = sums[: len(self.face_nodes)], sums[len(self.face_nodes) :]
        total = sum(faces) + sum(edges)
        if not cmath.isfinite(total):
            names = [f"face {k}" for k in range(len(faces))]
            names += [f"edge {k}" for k in range(len(edges))]
            bad = [name for name, value in zip(names, sums) if not cmath.isfinite(value)]
            what = f"the sum over {bad[0]}" if bad else "the total of the pieces' finite sums"
            raise ValueError(f"{what} is not finite")
        return total, faces, edges


class _Rows:
    """One array of a cache entry, written a block of rows at a time; coordinate-major.

    ``bound`` counts the grid rows that may put a row in it.  Each
    :meth:`put` passes the rows a block puts and the block's size.  The array
    is allocated at the first rows put, for as many rows as may still come,
    so a piece that puts no rows (a Levi-flat face's weighted rows, the
    Levi-flat rows of every other face) allocates nothing.  :meth:`done`
    returns it read-only, copied to its size if fewer rows came than it holds.
    """

    def __init__(self, bound, tail):
        self.bound, self.tail, self.out, self.n = bound, tail, None, 0

    def put(self, rows, block):
        if len(rows):
            if self.out is None:
                self.out = np.empty((self.bound, *self.tail), rows.dtype, order="F")
            self.out[self.n : self.n + len(rows)] = rows
            self.n += len(rows)
        self.bound -= block

    def done(self):
        out = self.out
        if out is None:
            out = np.empty((0, *self.tail), complex, order="F")
        elif self.n < len(out):
            out = np.array(out[: self.n], order="F")
        out.flags.writeable = False
        return out


def _stream(chart, resolution, build, sinks):
    """Put each block of a chart's node set, built by ``build``, into ``sinks``; count the rows.

    ``build`` maps a block (a :class:`~hardycorners.domain.NodeSet`) to one
    array of rows per sink.  Returns the rows put in ``sinks[0]``.  A
    ``ValueError`` of ``build`` (a vanishing gradient, a point off a member,
    an edge weight that is not positive) fails the chart as a failed
    projection does (:meth:`~hardycorners.domain.Chart._blocks`).
    """
    count = 0
    for block, parts in chart._blocks(resolution, lambda ns: (len(ns), build(ns))):
        for sink, rows in zip(sinks, parts):
            sink.put(rows, block)
        count += len(parts[0])
        del parts  # before the next block is projected
    return count


def _node_set(points, weights, counts, faces):
    """A :class:`_NodeSet`'s fields: ``points`` and ``weights`` done, then each piece's view.

    The pieces put ``counts`` rows each, the first ``faces`` of them faces.
    """
    points, weights = points.done(), weights.done()
    bounds = np.cumsum([0, *counts]).tolist()
    views = [_Piece(points[a:b], weights[a:b], slice(a, b)) for a, b in zip(bounds, bounds[1:])]
    return points, weights, views[:faces], views[faces:]


class BoundaryMeasure(_NodeSet):
    """Discretized boundary measure: ``weights`` are quadrature weights times measure density."""

    __slots__ = ()

    def integrate(self, func):
        """Integrate a scalar function; returns (total, per-face, per-edge).

        ``func`` follows the section convention: it is called once, on the
        coordinate pair ``(z1, z2)`` of all ``N`` nodes, two ``(N,)`` arrays,
        and returns ``(N,)`` values or a scalar.  Each piece's share is the
        sum of its rows of ``weights * values``.

        Raises
        ------
        ValueError
            If ``func`` returns any other shape, or the total is not finite
            (naming the first piece whose sum is not).
        """
        return self._sums(self.weights * _section_on(func, self.points), lambda s: float(s.real))


class _Factors(_NodeSet):
    """The tau-free factors of :func:`reproduce`: a :class:`_NodeSet` with pairing data.

    ``flat_points`` ``(M, 2)`` are the Levi-flat face nodes, for the pole check
    only, and ``flat_grad`` ``(M, 2)`` their unit gradients, row for row.
    ``unit_grad`` ``(F, 2)`` belong to the ``F`` face rows of ``points``, row
    for row; ``planes`` ``(N - F, 2, 3)``, unit member hyperplanes, to its
    edge rows.  ``radius`` is the largest ``|z|`` over the ``M + F`` face
    nodes, which screens their pole checks
    (:func:`~hardycorners.kernels._leray_pairing`).
    """

    __slots__ = ("flat_points", "flat_grad", "unit_grad", "planes", "radius")


def _face_measure(d, fc, ns):
    """A face block's ``points, weights``: quadrature weight times :func:`fefferman_density`."""
    dens = fefferman_density(d.rho(fc.hypersurface), ns.points, ns.tangents)
    return ns.points, ns.weights * dens


def eta(d, points):
    """:func:`hardycorners.normalforms.eta`, imported on the first call.

    Only a measure build needs the edge normal forms, so a process that only
    reproduces never loads :mod:`.normalforms`.  The name stays in this
    module's namespace, where ``bench/tracer.py`` wraps it.
    """
    from .normalforms import eta

    return eta(d, points)


def _edge_measure(d, ns):
    """An edge block's ``points, weights``: quadrature weight times :func:`edge_measure_density`."""
    dens = edge_measure_density(eta(d, ns.points).eta_weight, ns.tangents)
    return ns.points, ns.weights * dens


def _sizes(pieces, resolution):
    """The grid rows of each of ``pieces``' charts at a resolution."""
    return [p.chart._size(resolution) for p in pieces]


def _measure(d, resolution, edge_resolution):
    _check_charts(d)
    total = sum(_sizes(d.faces, resolution)) + sum(_sizes(d.edges, edge_resolution))
    sinks = (_Rows(total, (2,)), _Rows(total, ()))
    counts = [_stream(fc.chart, resolution, partial(_face_measure, d, fc), sinks) for fc in d.faces]
    counts += [_stream(e.chart, edge_resolution, partial(_edge_measure, d), sinks) for e in d.edges]
    return BoundaryMeasure(*_node_set(*sinks, counts, len(d.faces)))


def build_measure(d, resolution=16, edge_resolution=None):
    """The boundary measure of a domain at a given resolution.

    Faces are sampled on their chart node sets with the
    :func:`fefferman_density` weight; edges with the cube-rooted edge weight
    from :func:`hardycorners.normalforms.eta` (computed exactly from the
    defining polynomials, in one call per edge) against the arc element.
    ``edge_resolution`` defaults to ``max(6, resolution // 2)``.  The
    measure is built once per resolution pair and cached on ``d`` (see the
    module docstring), so a later call returns the same object.

    Raises
    ------
    ProjectionError
        If a chart's projection fails: its Newton solve does not converge, or
        its tangents are singular (not transverse, or rank-deficient with the conormals).
    ValueError
        If a resolution is not an integer of at least 4
        (:meth:`~hardycorners.domain.Chart.grid`), a piece has no chart, a
        face's defining function has a vanishing gradient at a node, or an
        edge weight is not positive.
    """
    if edge_resolution is None:
        edge_resolution = max(6, _check_resolution(resolution) // 2)
    return _cached(d, "measure", resolution, edge_resolution)


def hardy_norm(d, f, resolution=16, edge_resolution=None):
    """Squared boundary norm of a section against the full boundary measure.

    ``f`` is a section in the library's convention: it is called once per
    ``hardy_norm``, on the coordinate pair ``(z1, z2)`` of all the measure's
    nodes (faces first, then edges), two ``(N,)`` arrays, works elementwise
    and returns ``(N,)`` values (a scalar result stands for every node).
    Returns a dict with the total and the per-face / per-edge contributions.
    The measure comes from :func:`build_measure`, which caches it on ``d``;
    so only the first call at a resolution pair discretizes, and every call
    is one section call plus one sum per piece.  The only discretization is
    the quadrature resolution: the edge weights are exact up to rounding.

    Raises
    ------
    ValueError
        If ``f`` returns values of any other shape, the total is not finite
        (the message names the first piece whose sum is not), or as
        :func:`build_measure` does.
    ProjectionError
        As :func:`build_measure` does.
    """
    measure = build_measure(d, resolution=resolution, edge_resolution=edge_resolution)
    total, faces, edges = measure.integrate(lambda z: np.abs(f(z)) ** 2)
    return {"total": total, "faces": faces, "edges": edges}


def _face_factor(d, fc, ns):
    """A face block's weighted ``points, weights, unit_grad``; Levi-flat ``points, flat_grad``."""
    unit_grad, dens = _leray_factor(d.rho(fc.hypersurface), ns.points, ns.tangents)
    # Nodes where the density vanishes (Levi-flat) contribute nothing: they serve only the
    # pole check.  Select rows only when some vanish, to copy nothing otherwise.
    live = dens != 0
    rows, flat = (slice(None), slice(0)) if live.all() else (live, ~live)
    weights = ns.weights[rows] * ns.orientation[rows] * dens[rows]
    return ns.points[rows], weights, unit_grad[rows], ns.points[flat], unit_grad[flat]


def _edge_factor(d, e, ns):
    """An edge block's ``(points, weights, planes)``: the unit member hyperplanes at each node."""
    planes, k = _corner_factor(strong_tangents(d, e, ns.points), ns.tangents)
    return ns.points, ns.weights * ns.orientation * k, planes


def _factors(d, face_resolution, edge_resolution):
    _check_charts(d)
    faces, edges = sum(_sizes(d.faces, face_resolution)), sum(_sizes(d.edges, edge_resolution))
    points, weights = _Rows(faces + edges, (2,)), _Rows(faces + edges, ())
    grads, flat_points, flat_grads = (_Rows(faces, (2,)) for _ in range(3))
    planes = _Rows(edges, (2, 3))
    to_face, to_edge = (points, weights, grads, flat_points, flat_grads), (points, weights, planes)
    counts = [
        _stream(f.chart, face_resolution, partial(_face_factor, d, f), to_face) for f in d.faces
    ]
    counts += [
        _stream(e.chart, edge_resolution, partial(_edge_factor, d, e), to_edge) for e in d.edges
    ]
    nodes = _node_set(points, weights, counts, len(d.faces))
    flat_points, flat_grad, unit_grad = flat_points.done(), flat_grads.done(), grads.done()
    # The largest |z| over the face nodes, a column at a time: np.linalg.norm's row
    # temporaries raised the peak RSS.
    face_points = nodes[0][: len(unit_grad)]
    radius = max(
        np.hypot(abs(z[:, 0]), abs(z[:, 1])).max(initial=0.0) for z in (face_points, flat_points)
    )
    return _Factors(*nodes, flat_points, flat_grad, unit_grad, planes.done(), float(radius))


_BUILDERS = {"reproduce": _factors, "measure": _measure}


def _nbytes(entry):
    """The bytes of an entry's arrays: its fields along the MRO that are arrays."""
    slots = [n for c in type(entry).__mro__ for n in vars(c).get("__slots__", ())]
    return sum(a.nbytes for a in map(entry.__getattribute__, slots) if isinstance(a, np.ndarray))


def _cached(d, kind, *resolutions):
    """The entry ``(kind, *resolutions)`` of ``d._cache``, built once by ``_BUILDERS[kind]``.

    Every resolution is checked first, so that a value the charts reject
    (``8.0``) never finds the entry of one they accept (``8``).

    A new entry is followed by one untouched array as large as the entry,
    allocated and freed at once.  A warm call holds a few ``(N,)``
    temporaries, fewer bytes than the entry holds per node.  glibc's malloc
    serves a request above its mmap threshold with a fresh mapping, which
    faults in at every call, gives the top of its heap back beyond twice
    that threshold, and raises the threshold to the size of any mapping
    freed.  A build that streams blocks frees none larger than a block: the
    warm ``reproduce`` of ``perturbed_bidisk`` at 24/12 then took 77 page
    faults and half as long again.  Untouched, the array is never resident.
    """
    key = (kind, *map(_check_resolution, resolutions))
    if key not in d._cache:
        entry = _BUILDERS[kind](d, *resolutions)
        np.empty(_nbytes(entry), np.uint8)
        d._cache[key] = entry
    return d._cache[key]


def reproduce(d, f, tau, resolution=24, face_resolution=None, edge_resolution=None):
    """Evaluate the reproducing formula for a holomorphic function.

    Faces carry the smooth second-order Cauchy density, edges the corner
    kernel; orientation signs are read from the node sets.  The tau-free
    factors are built once per resolution pair and cached on ``d`` (see the
    module docstring); every call pairs them with ``tau`` over all nodes (the
    pole checks), then makes one section call on all weighted nodes and sums
    each piece's rows.  Returns a dict with the recovered value, the directly
    evaluated reference ``f(tau)``, per-piece contributions and the relative
    error.

    ``f`` is a section in the library's convention: it is called once on
    the coordinate pair ``(z1, z2)`` of all weighted nodes (faces first,
    then edges), two ``(N,)`` arrays, works elementwise and returns ``(N,)``
    values (a scalar result stands for every node); ``f(tau)`` is the
    one-point case.  Levi-flat nodes, where the density vanishes, are not
    passed to ``f``, so a Levi-flat face contributes 0.

    Raises
    ------
    ValueError
        If ``tau`` is not a finite point of shape ``(2,)`` (checked before
        anything is built or paired), ``f`` returns values of any other
        shape, a resolution is not an integer of at least 4
        (:meth:`~hardycorners.domain.Chart.grid`), a piece has no chart, or
        the recovered value is not finite (the message names the first
        piece whose sum is not).
    ZeroDivisionError
        If a tangent hyperplane at some boundary node passes through ``tau``
        (the formula's precondition fails); ``f`` is then not called.
    ProjectionError
        If a chart's projection fails: its Newton solve does not converge, or
        its tangents are singular (not transverse, or rank-deficient with the conormals).
    """
    if face_resolution is None:
        face_resolution = resolution
    if edge_resolution is None:
        edge_resolution = resolution
    tau = np.asarray(tau, dtype=complex)
    if tau.shape != (2,) or not np.all(np.isfinite(tau)):
        raise ValueError(f"tau must be a finite point (z1, z2) of shape (2,), got {tau!r}")
    fac = _cached(d, "reproduce", face_resolution, edge_resolution)
    # Every pole check runs before the section call, the Levi-flat nodes' first.  Each face
    # with weighted rows pairs on its own, straight into its rows of the divisor, to keep the
    # temporaries small.
    if len(fac.flat_points):
        _leray_pairing(fac.flat_points, fac.flat_grad, tau, fac.radius)
    grads = fac.unit_grad
    divisor = np.empty(len(fac.weights), dtype=complex)
    for p in filter(len, fac.face_nodes):
        np.square(_leray_pairing(p.points, grads[p.rows], tau, fac.radius), out=divisor[p.rows])
    _corner_pairing(fac.planes, homogenize(tau), out=divisor[len(grads) :])
    terms = fac.weights * _section_on(f, fac.points)
    terms /= divisor
    value, face_vals, edge_vals = fac._sums(terms, complex)
    expected = complex(f(tau))
    rel_err = abs(value - expected) / max(abs(expected), 1e-300)
    return {
        "value": value,
        "expected": expected,
        "per_piece": {"faces": face_vals, "edges": edge_vals},
        "rel_err": float(rel_err),
    }
