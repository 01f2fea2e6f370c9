"""Exact combinatorics of arcs on a marked annulus of type (p, q).

The package models the coherent-sheaf category of a weighted projective
line with two weighted points through oriented arcs: morphism and extension
dimensions, exceptional sequences and their braid mutations, and tilting
censuses, all computed by integer arithmetic and cross-checked against
independent algebraic oracles.

`import wplarcs` loads none of the layers.  A public name, or a layer
module such as `wplarcs.braid`, is imported on first use through the
module `__getattr__` (PEP 562), so a short process pays only for the
layers it calls.  The resolved name is not stored in this module's
namespace: each look-up reads the attribute of the home module, so a
name rebound there is seen here too.
"""

import importlib

# Each public name, by the layer module that defines it.
_HOMES = {
    "core": (
        "Bridging", "Curve", "InnerPeripheral", "LElt", "LineBundle", "Loop",
        "OuterPeripheral", "SheafClass", "Surface", "TorsionInf",
        "TorsionOrdinary", "TorsionZero", "Zero", "ar_sequence", "canonical",
        "degree", "dim_S", "dualizing", "is_arc", "leq", "line_bundle", "move",
        "normal_form", "phi", "phi_ext", "phi_inv", "structure_sheaf", "tau",
        "tau_inv", "twist", "x1", "x2", "zero",
    ),
    "intersect": (
        "CrossingWitness", "EndpointRelation", "endpoint_relation",
        "exceptional_intersection", "positive_int",
    ),
    "homext": (
        "MapClass", "classify_nonzero", "cokernel_of_mono", "epi_mono_factor",
        "ext1_dim", "hom_dim", "hom_dim_oracle", "is_exceptional",
        "kernel_of_epi",
    ),
    "exceptional": (
        "ArcCollection", "PositionClass", "adjust_endpoints",
        "complete_to_maximal", "extended_boundary_sets", "external_points",
        "is_exceptional_pair", "is_ordered_exceptional_collection",
        "order_collection", "pair_position",
    ),
    "braid": (
        "BraidWord", "apply_braid", "canonical_theta", "full_twist_word",
        "mutate_pair", "normalize_to_theta", "se_shift_collection",
        "start_shift_word", "theta", "word",
    ),
    "tilting": (
        "LatticePath", "Triangulation", "bizley_count", "canonical_bundle_rep",
        "census", "catalan", "enumerate_lattice_paths", "is_dyck",
        "is_triangulation", "path_to_tilting", "se_canonical", "se_shift",
        "tilting_to_path", "triangulation",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset(_HOMES) | {"errors"}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
