"""Closed-form 2x2/3x3/4x4 algebra: agreement with numpy, and no LAPACK or BLAS on the hot path.

``det2``/``solve2``/``det3``/``inv3``/``det4`` are checked against
``numpy.linalg`` on seeded random stacks at relative tolerance 1e-12, for
real and complex entries, for a single matrix, a stack and a stack with an
extra leading axis, and for matrices rescaled by 1e-8 and 1e8.  The random
matrices are ``k * I`` plus standard normal noise, so their determinants and
inverses are well conditioned and a relative comparison is meaningful.

``matmul`` is checked against ``np.matmul`` on each stack shape the library
passes it, and a static guard keeps every other stacked ``@`` out of the
library.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from hardycorners.cli import load_spec
from hardycorners.domain import domain_from_spec, transform_domain
from hardycorners.measures import hardy_norm, reproduce
from hardycorners.projective import det2, det3, det4, inv3, matmul, solve2
from hardycorners.quadrature import _legendre

from conftest import random_unit_det_map

SHAPES = [(), (7,), (3, 5)]
SCALES = [1e-8, 1.0, 1e8]
RTOL = 1e-12


def _stack(seed, lead, k, dtype, scale=1.0, cols=None):
    """Seeded ``lead + (k, k)`` matrices ``k I + noise`` (or ``lead + (k, cols)`` noise)."""
    rng = np.random.default_rng(seed)
    shape = lead + (k, k if cols is None else cols)
    a = rng.standard_normal(shape)
    if dtype is complex:
        a = a + 1j * rng.standard_normal(shape)
    if cols is None:
        a = a + k * np.eye(k)
    return scale * a


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("lead", SHAPES)
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("k, det", [(2, det2), (3, det3), (4, det4)])
def test_determinants_match_numpy(k, det, scale, lead, dtype):
    a = _stack(k, lead, k, dtype, scale)
    ours = det(a)
    assert np.shape(ours) == lead
    assert np.iscomplexobj(ours) == (dtype is complex)
    np.testing.assert_allclose(ours, np.linalg.det(a), rtol=RTOL, atol=0)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("lead", SHAPES)
@pytest.mark.parametrize("scale", SCALES)
def test_inv3_matches_numpy(scale, lead, dtype):
    a = _stack(3, lead, 3, dtype, scale)
    ours = inv3(a)
    ref = np.linalg.inv(a)
    assert ours.shape == ref.shape
    np.testing.assert_allclose(ours, ref, rtol=RTOL, atol=RTOL * np.max(np.abs(ref)))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("lead", SHAPES)
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("cols", [1, 4])
def test_solve2_matches_numpy(cols, scale, lead, dtype):
    a = _stack(2, lead, 2, dtype, scale)
    b = _stack(5, lead, 2, dtype, scale, cols=cols)
    ref = np.linalg.solve(a, b)
    ours = solve2(a, b, det2(a))
    assert ours.shape == ref.shape
    np.testing.assert_allclose(ours, ref, rtol=RTOL, atol=RTOL * np.max(np.abs(ref)))


def test_solve2_broadcasts_one_matrix_over_right_hand_sides():
    a = _stack(2, (), 2, complex)
    b = _stack(3, (6,), 2, complex, cols=3)
    ref = np.linalg.solve(np.broadcast_to(a, (6, 2, 2)), b)
    ours = solve2(a, b, det2(a))
    np.testing.assert_allclose(ours, ref, rtol=RTOL, atol=RTOL * np.max(np.abs(ref)))


def test_hot_paths_call_no_lapack(monkeypatch):
    """``reproduce`` and ``hardy_norm`` (plain and transformed) make no LAPACK call of numpy.linalg.

    The domains and the map are built first: constructing a projective map
    takes one single-matrix determinant, which is not on the per-node path.
    The second run starts from cold domain caches and a cold Gauss-Legendre
    cache, so the quadrature rules are built again under the ban.
    """
    bidisk = domain_from_spec(load_spec("bidisk"))
    perturbed = domain_from_spec(load_spec("perturbed_bidisk"))
    moved = transform_domain(perturbed, random_unit_det_map(np.random.default_rng(6), scale=0.06))
    tau = np.array([0.2 + 0.1j, -0.3 + 0.05j])

    def f(z):
        return z[0] * z[1] ** 2 + 0.5

    def run():
        return [
            reproduce(bidisk, f, tau, face_resolution=6, edge_resolution=16)["value"],
            hardy_norm(perturbed, f, resolution=6, edge_resolution=8)["total"],
            hardy_norm(moved, f, resolution=6, edge_resolution=8)["total"],
        ]

    before = run()

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"np.linalg.{name} called on a per-node path")

        return call

    for name in ("det", "solve", "inv", "eigvalsh", "eigh", "eig", "svd"):
        monkeypatch.setattr(np.linalg, name, forbidden(name))
    with pytest.raises(AssertionError, match="per-node path"):
        np.linalg.det(np.eye(3))
    # reproduce and hardy_norm would otherwise reuse what the first run built
    for d in (bidisk, perturbed, moved):
        d._cache.clear()
    _legendre.cache_clear()
    np.testing.assert_array_equal(run(), before)


# The stack shapes the library multiplies, as (left, right) operand shapes with
# N = 7 nodes: the Hermitian form and the frame's base column (N,2,2)(N,2,1),
# the chain rule's gradient (N,1,2)(N,2,2) and Hessians (N,2,2)(N,2,2), and the
# convexity check's weights against each node's planes (T,2)(N,2,3).
PRODUCT_SHAPES = [
    ((7, 2, 2), (7, 2, 1)),
    ((7, 1, 2), (7, 2, 2)),
    ((7, 2, 2), (7, 2, 2)),
    ((11, 2), (7, 2, 3)),
]


def _noise(seed, shape, dtype):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape)
    return a + 1j * rng.standard_normal(shape) if dtype is complex else a


def _assert_products_agree(ours, ref, bound):
    """Each entry within 1e-15 of ``bound``, the same product taken on absolute values.

    ``bound`` is what every entry's rounding error is relative to, so the
    comparison stays meaningful where the sum cancels.
    """
    assert ours.shape == ref.shape and ours.dtype == ref.dtype
    assert np.all(np.abs(ours - ref) <= 1e-15 * bound)


@pytest.mark.parametrize("right", [float, complex])
@pytest.mark.parametrize("left", [float, complex])
@pytest.mark.parametrize("shapes", PRODUCT_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_matmul_matches_numpy_on_the_librarys_shapes(shapes, left, right):
    for seed in range(5):
        a = _noise(seed, shapes[0], left)
        b = _noise(seed + 100, shapes[1], right)
        _assert_products_agree(matmul(a, b), a @ b, np.abs(a) @ np.abs(b))


@pytest.mark.parametrize("dtype", [float, complex])
def test_matmul_sandwich_matches_numpy(dtype):
    """``T^T H T`` of the normal-form fit: Hessians (N,2,4,4) between tangents (N,1,4,2)."""
    for seed in range(5):
        t = _noise(seed, (7, 1, 4, 2), dtype)
        h = _noise(seed + 100, (7, 2, 4, 4), dtype)
        t_t = np.swapaxes(t, -1, -2)
        ours = matmul(matmul(t_t, h), t)
        bound = np.abs(t_t) @ np.abs(h) @ np.abs(t)
        _assert_products_agree(ours, t_t @ h @ t, bound)


# Where the library keeps ``@``: the one-point map algebra of ``projective``,
# the one-point ``domain.weak_tangent``, and all of ``incidence``, whose
# reference identities the tests compare the library against.
MATMUL_ALLOWED = {
    ("projective", "ProjMap.apply"),
    ("projective", "ProjMap.__matmul__"),
    ("projective", "pair"),
    ("domain", "weak_tangent"),
}
MATMUL_ALLOWED_MODULES = {"incidence"}


def _matrix_products(tree):
    """``(enclosing def's qualified name, line)`` of each ``@``, ``np.matmul`` or ``np.dot``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        is_op = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        is_call = (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("matmul", "dot")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        )
        if is_op or is_call:
            found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_the_library_multiplies_stacked_matrices_only_through_matmul():
    src = Path(__file__).resolve().parents[1] / "src" / "hardycorners"
    stray, allowed_seen = [], set()
    for path in sorted(src.glob("*.py")):
        module = path.stem
        for scope, line in _matrix_products(ast.parse(path.read_text(encoding="utf-8"))):
            if module in MATMUL_ALLOWED_MODULES:
                continue
            if (module, scope) in MATMUL_ALLOWED:
                allowed_seen.add((module, scope))
            else:
                stray.append(f"{path.name}:{line} in {scope or '<module>'}")
    assert not stray, f"stacked products outside projective.matmul: {stray}"
    # Each exemption still names a product, so a stale entry shows.
    assert allowed_seen == MATMUL_ALLOWED


def test_the_guard_sees_each_spelling_of_a_product():
    tree = ast.parse(
        "def f(a, b):\n    a @= b\n    return np.matmul(a, b) + numpy.dot(a, b)\n"
        "class C:\n    def g(self, a, b):\n        return a @ b\n"
    )
    assert _matrix_products(tree) == [("f", 2), ("f", 3), ("f", 3), ("C.g", 6)]
