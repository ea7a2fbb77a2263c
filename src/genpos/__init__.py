"""Exact tools for general position sets in Cartesian products of graphs.

A set of vertices is in general position when no three of its members lie
on a common shortest path.  This package builds products of small graph
families, decides and certifies general position, computes gp-numbers by
exact search, evaluates the known closed-form counts and bounds, and runs
the first-moment randomized construction for Cartesian powers.
"""

__version__ = "0.1.0"

from .graphs import (
    FactorGraph,
    GraphSpec,
    GraphSpecError,
    ProductGraph,
    VertexCapError,
    build,
    explicit_adjacency,
    parse_spec,
)
from .position import (
    GpSet,
    PartitionCertificate,
    characterization_check,
    find_violating_triple,
    forbidden_set,
    is_between,
    is_general_position,
)
from .solver import (
    BadTripleIndex,
    SearchLimits,
    SearchResult,
    count_maximum_gp_sets,
    enumerate_maximum_gp_sets,
    gp_exact,
    isometric_cover_bound,
)
from .formulas import (
    TorusBounds,
    cycle_gp_triple,
    cylinder_gp_value,
    cylinder_witness,
    grid_gp_count,
    hamming_lower_bound,
    torus_gp_bounds,
    torus_quadrant_cover,
    torus_witness6,
    torus_witness7,
)
from .randomized import (
    SampleRun,
    SplitMix64,
    choose_M,
    first_moment_construct,
    gp_box_lower_bound,
    p_closed_form,
    p_exact,
    p_exact_restricted,
    p_power,
    star_formula_quoted,
)

__all__ = [
    "FactorGraph",
    "ProductGraph",
    "GraphSpec",
    "GraphSpecError",
    "VertexCapError",
    "parse_spec",
    "build",
    "explicit_adjacency",
    "GpSet",
    "PartitionCertificate",
    "is_between",
    "is_general_position",
    "find_violating_triple",
    "characterization_check",
    "forbidden_set",
    "BadTripleIndex",
    "SearchLimits",
    "SearchResult",
    "gp_exact",
    "count_maximum_gp_sets",
    "enumerate_maximum_gp_sets",
    "isometric_cover_bound",
    "TorusBounds",
    "grid_gp_count",
    "cylinder_gp_value",
    "torus_gp_bounds",
    "hamming_lower_bound",
    "cycle_gp_triple",
    "cylinder_witness",
    "torus_witness6",
    "torus_witness7",
    "torus_quadrant_cover",
    "SplitMix64",
    "SampleRun",
    "p_exact",
    "p_exact_restricted",
    "p_closed_form",
    "p_power",
    "star_formula_quoted",
    "choose_M",
    "first_moment_construct",
    "gp_box_lower_bound",
]
