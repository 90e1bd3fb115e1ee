"""Projectively invariant Hardy-space machinery on piecewise-smooth domains.

The package evaluates Cauchy-type reproducing kernels written on the
point-hyperplane incidence variety, their smooth-face and corner
specializations on piecewise-smooth boundaries, the edge normal-form
invariants that weight the corner contribution, and the boundary measure
(face density plus weighted edge arc) whose norm is projectively invariant.
"""

from .domain import (
    Edge,
    Face,
    NodeSet,
    ProjectionError,
    PwsDomain,
    canonical_spec,
    check_local_intersection,
    check_strict_convexity,
    domain_from_spec,
    strong_tangents,
    transform_domain,
    validate_domain,
    weak_tangent,
)
from .hermpoly import (
    HermitianPoly,
    HermitianSymmetryError,
    Poly,
    PolyParseError,
    gradient_hyperplane,
    parse_poly,
    transform_poly,
)
from .kernels import (
    Density,
    StrongTangentSet,
    corner_kernel,
    cramer_residual,
    omega_cfl,
    omega_cfl_affine_form,
    orientation_sign_edge,
    orientation_sign_face,
    pushforward_corner_check,
    simplex_integral,
    smooth_leray_density,
)
from .measures import (
    BoundaryMeasure,
    build_measure,
    edge_measure_density,
    fefferman_density,
    hardy_norm,
    reproduce,
)
from .normalforms import (
    EdgeInvariant,
    NormalForm,
    NormalizedEdge,
    apply_coordinate_change,
    change_matrix,
    edge_frame,
    edge_profile,
    edge_profile_ratio,
    eta,
    extract_normal_form,
    kappa,
    legendre_argmax,
    legendre_transform,
    model_edge_domain,
    model_edge_polys,
    normalize_coeffs,
)
from .projective import (
    HomVec,
    ProjMap,
    Section,
    SectionValue,
    affinize,
    dual_map,
    homogenize,
    normalize_map,
    pair,
    proj_equal,
    pull_back_section,
)
from .quadrature import gauss_rule, simplex_rule, tensor_grid, trapezoid_rule

__version__ = "0.1.0"
