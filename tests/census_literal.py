"""The anchored enumeration and the census that check every member, as they once were.

Kept in the tests as differential references.  `enumerate_anchored_literal`
is the reference for `tilting.enumerate_anchored_triangulations`, which
validates each anchored family once and assembles its members unchecked.
It passes every member through `triangulation()`, so each one is tested by
`is_triangulation` over all of its pairs in both orders, and it drops
repeated arc sets silently with a `seen` set.

`census_literal` is the reference for `tilting.census`, which counts the
lattice paths and the family members without building them and checks the
anchoring once per family.  It lists every lattice path and reads its
staircase with `path_to_tilting`, lists every anchored class, and asks
`se_canonical` of each class that it is its own canonical form.
"""

import math
from functools import lru_cache
from typing import List, Sequence

from wplarcs.core import Bridging, InnerPeripheral, OuterPeripheral, Surface, connector
from wplarcs.errors import InternalInvariantViolation
from wplarcs.tilting import (
    Triangulation,
    bizley_count,
    enumerate_anchored_triangulations,
    enumerate_lattice_paths,
    is_dyck,
    path_to_tilting,
    se_canonical,
    sheaf_class_formula,
    triangulation,
)


def polygon_triangulations_literal(vertices: Sequence):
    """Chord sets triangulating a convex polygon on the given vertex cycle."""
    n = len(vertices)
    if n < 3:
        yield frozenset()
        return

    @lru_cache(maxsize=None)
    def rec(i: int, j: int):
        if j - i < 2:
            return (frozenset(),)
        out = []
        for k in range(i + 1, j):
            for left in rec(i, k):
                for right in rec(k, j):
                    chords = set(left | right)
                    if k - i > 1:
                        chords.add((i, k))
                    if j - k > 1:
                        chords.add((k, j))
                    out.append(frozenset(chords))
        return tuple(out)

    for chord_set in rec(0, n - 1):
        yield frozenset((vertices[i], vertices[j]) for i, j in chord_set)


def _glued(s: Surface, anchors, inside, outside):
    for chords_in in polygon_triangulations_literal(tuple(inside)):
        arcs_in = [connector(s, v1, v2) for v1, v2 in chords_in]
        for chords_out in polygon_triangulations_literal(tuple(outside)):
            arcs_out = [connector(s, v1, v2) for v1, v2 in chords_out]
            yield frozenset(anchors) | frozenset(arcs_in) | frozenset(arcs_out)


def _plain(s: Surface, a: int, b: int):
    anchors = [Bridging(s, 0, a), Bridging(s, 0, b)]
    if (a, b) != (0, 1):
        anchors.append(OuterPeripheral(s, a, b))
    inside = [("outer", j) for j in range(a, b + 1)]
    outside = [("inner", i) for i in range(0, s.p + 1)]
    outside += [("outer", j) for j in range(b, a + s.q + 1)][::-1]
    yield from _glued(s, anchors, inside, outside)


def _primed(s: Surface, a: int, b: int):
    anchors = [Bridging(s, 0, a), Bridging(s, b, a)]
    if (a, b) != (0, 1):
        anchors.append(InnerPeripheral(s, 0, b))
    inside = [("inner", i) for i in range(0, b + 1)]
    outside = [("outer", j) for j in range(a, a + s.q + 1)]
    outside += [("inner", i) for i in range(b, s.p + 1)][::-1]
    yield from _glued(s, anchors, inside, outside)


def enumerate_anchored_literal(s: Surface) -> List[Triangulation]:
    """Every member of every anchored family, each checked by `triangulation()`."""
    seen = set()
    out: List[Triangulation] = []
    for a in range(0, -s.q, -1):
        for b in range(1, a + s.q + 1):
            for arcs in _plain(s, a, b):
                if arcs not in seen:
                    seen.add(arcs)
                    out.append(triangulation(s, arcs))
    for a in range(0, -s.p, -1):
        for b in range(1 - a, s.p + 1):
            for arcs in _primed(s, a, b):
                if arcs not in seen:
                    seen.add(arcs)
                    out.append(triangulation(s, arcs))
    return out


def census_literal(p: int, q: int):
    """The three class counts by listing every path and every anchored class."""
    s = Surface(p, q)
    paths = enumerate_lattice_paths(p, q)
    for path in paths:
        # Raises unless the staircase is a triangulation.
        path_to_tilting(s, path)
    bundle_classes = len(paths)
    if bundle_classes != math.comb(p + q, p):
        raise InternalInvariantViolation("bundle census mismatch")

    fundamental = sum(1 for path in paths if is_dyck(path))
    if fundamental != bizley_count(p, q):
        raise InternalInvariantViolation("fundamental census mismatch")

    anchored = enumerate_anchored_triangulations(s)
    for t in anchored:
        if se_canonical(t) != t:
            raise InternalInvariantViolation(
                "anchored triangulation is not its own canonical form"
            )
    sheaf_classes = len(anchored)
    if sheaf_classes != sheaf_class_formula(p, q):
        raise InternalInvariantViolation("sheaf census mismatch")

    return {
        "bundle_classes": bundle_classes,
        "fundamental": fundamental,
        "sheaf_classes": sheaf_classes,
    }
