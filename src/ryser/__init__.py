"""Constructive covers for Ryser-type problems.

Three constructions with matching exact oracles:

* cover_t: at most r - t monochromatic components covering a transitive
  r-coloring in which every pair shares more than r/4 colors,
* partial_cover_distinct: r - 1 components of pairwise distinct colors
  through one vertex, covering at least (1 - (r-2)/(r-1)^2) * n vertices,
  sharp exactly on blowups of affine planes,
* ryser_delta2: a vertex cover of size at most (r-1) * nu for r-uniform
  hypergraphs of maximum degree 2, built through the dual.

Plus: hypergraph/colored-graph containers with HGF/CGF text formats, finite
affine planes and truncated projective planes over small fields, seeded
generators, and exhaustive solvers for tau, nu, rho, alpha, alpha' and the
component-cover optima.
"""

from .colored import (
    ColoredCompleteGraph,
    ComponentCover,
    ComponentIndex,
    PartialColoredGraph,
    components_of,
    contract_full_color_classes,
    gyarfas_graph,
    is_valid_component_cover,
    isomorphic_colored,
    merge_color_components,
    monochromatic_components,
    parse_cgf,
    to_cgf,
    transitive_closure,
)
from .delta2 import reduce_dual, ryser_delta2
from .errors import FormatError, HypothesisViolation, PreconditionError, RyserError
from .generators import (
    GenConfig,
    SplitMix64,
    gen_delta2,
    gen_t_intersecting_hypergraph,
    gen_transitive_colored,
    generate,
)
from .hypergraph import (
    Hypergraph,
    Violation,
    dual,
    intersection_level,
    isomorphic,
    parse_hgf,
    to_hgf,
    validate,
)
from .oracles import (
    HypergraphParams,
    alpha_exact,
    alpha_prime_exact,
    max_partial_cover_distinct,
    min_component_cover,
    nu_exact,
    parameters_exact,
    rho_exact,
    tau_bruteforce,
    tau_exact,
)
from .partial import (
    check_sharpness,
    color_stats,
    coverage_bound,
    is_affine_blowup,
    partial_cover_distinct,
    verify_counting_identities,
)
from .planes import (
    AffinePlane,
    GF,
    affine_plane,
    blowup_graph,
    truncated_projective_plane,
    verify_affine_axioms,
)
from .tcover import cover_t, lemma_cover, max_common_triangle, plan_lemma

__version__ = "0.1.0"

__all__ = [
    "AffinePlane",
    "ColoredCompleteGraph",
    "ComponentCover",
    "ComponentIndex",
    "FormatError",
    "GF",
    "GenConfig",
    "Hypergraph",
    "HypergraphParams",
    "HypothesisViolation",
    "PartialColoredGraph",
    "PreconditionError",
    "RyserError",
    "SplitMix64",
    "Violation",
    "affine_plane",
    "alpha_exact",
    "alpha_prime_exact",
    "blowup_graph",
    "check_sharpness",
    "color_stats",
    "components_of",
    "contract_full_color_classes",
    "cover_t",
    "coverage_bound",
    "dual",
    "gen_delta2",
    "gen_t_intersecting_hypergraph",
    "gen_transitive_colored",
    "generate",
    "gyarfas_graph",
    "intersection_level",
    "is_affine_blowup",
    "is_valid_component_cover",
    "isomorphic",
    "isomorphic_colored",
    "lemma_cover",
    "max_common_triangle",
    "max_partial_cover_distinct",
    "merge_color_components",
    "min_component_cover",
    "monochromatic_components",
    "nu_exact",
    "parameters_exact",
    "parse_cgf",
    "parse_hgf",
    "partial_cover_distinct",
    "plan_lemma",
    "reduce_dual",
    "rho_exact",
    "ryser_delta2",
    "tau_bruteforce",
    "tau_exact",
    "to_cgf",
    "to_hgf",
    "transitive_closure",
    "truncated_projective_plane",
    "validate",
    "verify_affine_axioms",
    "verify_counting_identities",
]
