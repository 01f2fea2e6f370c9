"""Exact combinatorics of arcs on a marked annulus of type (p, q).

The package models the coherent-sheaf category of a weighted projective
line with two weighted points through oriented arcs: morphism and extension
dimensions, exceptional sequences and their braid mutations, and tilting
censuses, all computed by integer arithmetic and cross-checked against
independent algebraic oracles.
"""

from .core import (
    Bridging,
    Curve,
    InnerPeripheral,
    LElt,
    LineBundle,
    Loop,
    OuterPeripheral,
    SheafClass,
    Surface,
    TorsionInf,
    TorsionOrdinary,
    TorsionZero,
    Zero,
    ar_sequence,
    canonical,
    degree,
    dim_S,
    dualizing,
    is_arc,
    leq,
    line_bundle,
    move,
    normal_form,
    phi,
    phi_ext,
    phi_inv,
    structure_sheaf,
    tau,
    tau_inv,
    twist,
    x1,
    x2,
    zero,
)
from .intersect import (
    CrossingWitness,
    EndpointRelation,
    endpoint_relation,
    exceptional_intersection,
    positive_crossings,
    positive_int,
)
from .homext import (
    MapClass,
    classify_nonzero,
    cokernel_of_mono,
    epi_mono_factor,
    ext1_dim,
    hom_dim,
    hom_dim_oracle,
    is_exceptional,
    kernel_of_epi,
)
from .exceptional import (
    ArcCollection,
    PositionClass,
    adjust_endpoints,
    complete_to_maximal,
    extended_boundary_sets,
    external_points,
    is_exceptional_pair,
    is_ordered_exceptional_collection,
    order_collection,
    pair_position,
)
from .braid import (
    BraidWord,
    apply_braid,
    canonical_theta,
    full_twist_word,
    mutate_pair,
    normalize_to_theta,
    se_shift_collection,
    start_shift_word,
    theta,
    word,
)
from .tilting import (
    LatticePath,
    Triangulation,
    bizley_count,
    canonical_bundle_rep,
    census,
    catalan,
    enumerate_lattice_paths,
    is_dyck,
    is_triangulation,
    path_to_tilting,
    se_canonical,
    se_shift,
    tilting_to_path,
    triangulation,
)

__all__ = [
    "Bridging", "Curve", "InnerPeripheral", "LElt", "LineBundle", "Loop",
    "OuterPeripheral", "SheafClass", "Surface", "TorsionInf",
    "TorsionOrdinary", "TorsionZero", "Zero", "ar_sequence", "canonical",
    "degree", "dim_S", "dualizing", "is_arc", "leq", "line_bundle", "move",
    "normal_form", "phi", "phi_ext", "phi_inv", "structure_sheaf", "tau",
    "tau_inv", "twist", "x1", "x2", "zero",
    "CrossingWitness", "EndpointRelation", "endpoint_relation",
    "exceptional_intersection", "positive_crossings", "positive_int",
    "MapClass", "classify_nonzero", "cokernel_of_mono", "epi_mono_factor",
    "ext1_dim", "hom_dim", "hom_dim_oracle", "is_exceptional", "kernel_of_epi",
    "ArcCollection", "PositionClass", "adjust_endpoints",
    "complete_to_maximal", "extended_boundary_sets", "external_points",
    "is_exceptional_pair", "is_ordered_exceptional_collection",
    "order_collection", "pair_position",
    "BraidWord", "apply_braid", "canonical_theta", "full_twist_word",
    "mutate_pair", "normalize_to_theta", "se_shift_collection",
    "start_shift_word", "theta", "word",
    "LatticePath", "Triangulation", "bizley_count", "canonical_bundle_rep",
    "census", "catalan", "enumerate_lattice_paths", "is_dyck",
    "is_triangulation", "path_to_tilting", "se_canonical", "se_shift",
    "tilting_to_path", "triangulation",
]
__version__ = "0.1.0"
