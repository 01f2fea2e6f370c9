"""Triangulations of the annulus, lattice paths, and tilting censuses.

A triangulation is a maximal pairwise non-crossing set of arcs (size p+q);
all-bridging triangulations are unit staircases and correspond to monotone
lattice paths from (0,0) to (p,q) once shifted so the staircase starts at
the origin.  Counting is done three ways and cross-checked: direct path
enumeration, the gcd-indexed product formula, and backtracking enumeration
of anchored triangulations up to simultaneous shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from .core import (
    Bridging,
    Curve,
    InnerPeripheral,
    OuterPeripheral,
    Surface,
    connector,
    is_arc,
)
from .errors import (
    InternalInvariantViolation,
    InvalidArguments,
    NotApplicable,
)
from .intersect import positive_int


@dataclass(frozen=True)
class LatticePath:
    """Monotone staircase of lattice points from (0,0) to (p,q)."""

    points: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.points or self.points[0] != (0, 0):
            raise InvalidArguments("path must start at the origin")
        for (x0, y0), (x1, y1) in zip(self.points, self.points[1:]):
            if (x1 - x0, y1 - y0) not in ((1, 0), (0, 1)):
                raise InvalidArguments("path steps must be unit east or north")

    @property
    def target(self) -> Tuple[int, int]:
        return self.points[-1]


@dataclass(frozen=True)
class Triangulation:
    surface: Surface
    arcs: FrozenSet[Curve]

    def sorted_arcs(self) -> List[Curve]:
        return sorted(self.arcs, key=lambda a: a.key())


def is_triangulation(surface: Surface, arcs: Iterable[Curve]) -> bool:
    """Exactly p + q distinct arcs, pairwise non-crossing in both orders."""
    arcs = list(arcs)
    if len(set(arcs)) != len(arcs) or len(arcs) != surface.rank:
        return False
    for a in arcs:
        if a.surface != surface or not is_arc(a):
            return False
    for x, y in combinations(arcs, 2):
        if positive_int(x, y) or positive_int(y, x):
            return False
    return True


def triangulation(surface: Surface, arcs: Iterable[Curve]) -> Triangulation:
    arcs = frozenset(arcs)
    if not is_triangulation(surface, arcs):
        raise NotApplicable("arc set is not a triangulation")
    return Triangulation(surface, arcs)


# ---------------------------------------------------------------------------
# Lattice paths.
# ---------------------------------------------------------------------------


def enumerate_lattice_paths(p: int, q: int) -> List[LatticePath]:
    """All monotone paths from (0,0) to (p,q), in lexicographic step order."""
    paths: List[LatticePath] = []

    def walk(x: int, y: int, acc: List[Tuple[int, int]]) -> None:
        if (x, y) == (p, q):
            paths.append(LatticePath(tuple(acc)))
            return
        if x < p:
            acc.append((x + 1, y))
            walk(x + 1, y, acc)
            acc.pop()
        if y < q:
            acc.append((x, y + 1))
            walk(x, y + 1, acc)
            acc.pop()

    walk(0, 0, [(0, 0)])
    return paths


def is_dyck(path: LatticePath) -> bool:
    """Stays weakly below the diagonal: p*y <= q*x at every point."""
    p, q = path.target
    return all(p * y <= q * x for x, y in path.points)


@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def _partitions(n: int):
    """Multiplicity vectors a with sum i*a_i = n, as dicts part -> count."""

    def rec(remaining: int, max_part: int):
        if remaining == 0:
            yield {}
            return
        for part in range(min(remaining, max_part), 0, -1):
            for rest in rec(remaining - part, part):
                out = dict(rest)
                out[part] = out.get(part, 0) + 1
                yield out

    yield from rec(n, n)


def bizley_count(p: int, q: int) -> int:
    """Number of (p,q)-Dyck paths via the gcd-indexed exponential formula.

    The atoms are the coprime path counts binom(k+l, k)/(k+l); the result
    is asserted integral and equal to direct enumeration.
    """
    d = math.gcd(p, q)
    total = Fraction(0)
    for a in _partitions(d):
        term = Fraction(1)
        for part, count in a.items():
            k, l = part * p // d, part * q // d
            atom = Fraction(math.comb(k + l, k), k + l)
            term *= atom**count / math.factorial(count)
        total += term
    if total.denominator != 1:
        raise InternalInvariantViolation("path-count formula gave a non-integer")
    count = int(total)
    enumerated = sum(1 for path in enumerate_lattice_paths(p, q) if is_dyck(path))
    if count != enumerated:
        raise InternalInvariantViolation(
            f"formula {count} disagrees with enumeration {enumerated}"
        )
    return count


# ---------------------------------------------------------------------------
# Bundle triangulations <-> lattice paths.
# ---------------------------------------------------------------------------


def _all_bridging(t: Triangulation) -> None:
    if not all(isinstance(a, Bridging) for a in t.arcs):
        raise NotApplicable("operation requires an all-bridging triangulation")


def _unfold_staircase(t: Triangulation) -> List[Tuple[int, int]]:
    """Lifts of the arcs as the unit staircase from (0, 0), or None.

    The arcs of an all-bridging triangulation form a single cycle in which
    each member is followed by its east or north unit translate; unfolding
    from a member whose canonical form is the origin produces lifts inside
    the rectangle [0, p] x [0, q].
    """
    s = t.surface
    _all_bridging(t)
    if Bridging(s, 0, 0) not in t.arcs:
        return None
    remaining = set(t.arcs) - {Bridging(s, 0, 0)}
    path = [(0, 0)]

    def walk(a: int, b: int) -> bool:
        if not remaining:
            return True
        for na, nb in ((a + 1, b), (a, b + 1)):
            arc = Bridging(s, na, nb)
            if arc in remaining:
                remaining.remove(arc)
                path.append((na, nb))
                if walk(na, nb):
                    return True
                path.pop()
                remaining.add(arc)
        return False

    if not walk(0, 0):
        return None
    a_last, b_last = path[-1]
    if (s.p - a_last, s.q - b_last) not in ((1, 0), (0, 1)):
        return None
    return path


def se_shift(t: Triangulation, k: int) -> Triangulation:
    """Simultaneous start/end shift of every member, k times."""
    return Triangulation(t.surface, frozenset(arc.se_shifted(k) for arc in t.arcs))


def canonical_bundle_rep(t: Triangulation) -> Triangulation:
    """The unique shift whose staircase starts at the origin."""
    s = t.surface
    _all_bridging(t)
    if _unfold_staircase(t) is not None:
        return t
    found = None
    for arc in t.arcs:
        # A shift by m moves the arc to the origin only when the sum of its
        # parameters is a multiple of p + q.
        i, j = arc.i, arc.j
        if (i + j) % (s.p + s.q) != 0:
            continue
        m = (i + j) // (s.p + s.q) * s.p - i
        cand = se_shift(t, m)
        if _unfold_staircase(cand) is not None:
            if found is not None and cand != found:
                raise InternalInvariantViolation("two canonical shifts found")
            found = cand
    if found is None:
        raise InternalInvariantViolation("no canonical shift found")
    return found


def tilting_to_path(t: Triangulation) -> LatticePath:
    """Staircase reading of an all-bridging triangulation, shifted to (0,0)."""
    rep = canonical_bundle_rep(t)
    points = _unfold_staircase(rep)
    return LatticePath(tuple(points) + ((t.surface.p, t.surface.q),))


def path_to_tilting(surface: Surface, path: LatticePath) -> Triangulation:
    """Arcs read off the staircase, dropping the closing corner point."""
    if path.target != (surface.p, surface.q):
        raise NotApplicable("path target must match the surface type")
    arcs = [Bridging(surface, x, y) for x, y in path.points[:-1]]
    result = Triangulation(surface, frozenset(arcs))
    if len(result.arcs) != surface.rank or not is_triangulation(
        surface, result.arcs
    ):
        raise InternalInvariantViolation("path did not produce a triangulation")
    return result


# ---------------------------------------------------------------------------
# se-equivalence canonical forms.
# ---------------------------------------------------------------------------


def _anchor_class(t: Triangulation):
    """Anchor pattern of the canonical family containing t, if any."""
    s = t.surface
    arcs = t.arcs
    if Bridging(s, 0, 0) in arcs:
        if Bridging(s, 0, 1) in arcs:
            return ("plain", 0, 1)
        if Bridging(s, 1, 0) in arcs:
            return ("primed", 0, 1)
    # Plain family: two bridging arcs into inner 0 plus the outer cap.
    for a in range(0, -s.q, -1):
        if Bridging(s, 0, a) not in arcs:
            continue
        for b in range(1, a + s.q + 1):
            if (a, b) == (0, 1):
                continue
            if Bridging(s, 0, b) in arcs and OuterPeripheral(s, a, b) in arcs:
                return ("plain", a, b)
    # Primed family: shared outer start plus the inner cap.
    for a in range(0, -s.p, -1):
        if Bridging(s, 0, a) not in arcs:
            continue
        for b in range(max(2, 1 - a), s.p + 1):
            if Bridging(s, b, a) in arcs and InnerPeripheral(s, 0, b) in arcs:
                return ("primed", a, b)
    return None


def _winding_spread(t: Triangulation) -> int:
    js = [a.j for a in t.arcs if isinstance(a, Bridging)]
    if not js:
        return 0
    return (max(js) - min(js)) // t.surface.q + 1


def se_canonical(t: Triangulation) -> Triangulation:
    """The unique shift of t lying in one of the anchored families."""
    s = t.surface
    bound = _winding_spread(t) + s.p + s.q
    for k in range(-bound, bound + 1):
        cand = se_shift(t, k)
        if _anchor_class(cand) is not None:
            return cand
    raise InternalInvariantViolation("no anchored representative within bound")


# ---------------------------------------------------------------------------
# Census.
# ---------------------------------------------------------------------------


def _polygon_triangulations(vertices: Sequence):
    """Chord sets triangulating a convex polygon on the given vertex cycle."""
    n = len(vertices)
    if n < 3:
        yield frozenset()
        return

    @lru_cache(maxsize=None)
    def rec(i: int, j: int):
        # Triangulations of the sub-polygon i..j (fan over edge (i, j)).
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
        yield frozenset(
            (vertices[i], vertices[j]) for i, j in chord_set
        )


def _glued_triangulations(s: Surface, anchors: List[Curve], inside, outside):
    """The anchors plus any triangulations of the two polygons they cut out."""
    for chords_in in _polygon_triangulations(tuple(inside)):
        arcs_in = [connector(s, v1, v2) for v1, v2 in chords_in]
        for chords_out in _polygon_triangulations(tuple(outside)):
            arcs_out = [connector(s, v1, v2) for v1, v2 in chords_out]
            yield frozenset(anchors) | frozenset(arcs_in) | frozenset(arcs_out)


def _plain_family(s: Surface, a: int, b: int):
    """Triangulations containing the plain anchor for (a, b)."""
    anchors: List[Curve] = [Bridging(s, 0, a), Bridging(s, 0, b)]
    if (a, b) != (0, 1):
        anchors.append(OuterPeripheral(s, a, b))
    # Region inside the two bridges: outer points a..b under inner 0.
    inside = [("outer", j) for j in range(a, b + 1)]
    # Region outside: inner 0..p over outer b..a+q.
    outside = [("inner", i) for i in range(0, s.p + 1)]
    outside += [("outer", j) for j in range(b, a + s.q + 1)][::-1]
    yield from _glued_triangulations(s, anchors, inside, outside)


def _primed_family(s: Surface, a: int, b: int):
    """Triangulations containing the primed anchor for (a, b)."""
    anchors: List[Curve] = [Bridging(s, 0, a), Bridging(s, b, a)]
    if (a, b) != (0, 1):
        anchors.append(InnerPeripheral(s, 0, b))
    inside = [("inner", i) for i in range(0, b + 1)]
    outside = [("outer", j) for j in range(a, a + s.q + 1)]
    outside += [("inner", i) for i in range(b, s.p + 1)][::-1]
    yield from _glued_triangulations(s, anchors, inside, outside)


def enumerate_anchored_triangulations(s: Surface) -> List[Triangulation]:
    """All triangulations in the anchored families, pairwise se-inequivalent."""
    seen: Set[FrozenSet[Curve]] = set()
    out: List[Triangulation] = []
    for a in range(0, -s.q, -1):
        for b in range(1, a + s.q + 1):
            for arcs in _plain_family(s, a, b):
                if arcs not in seen:
                    seen.add(arcs)
                    out.append(triangulation(s, arcs))
    for a in range(0, -s.p, -1):
        for b in range(1 - a, s.p + 1):
            for arcs in _primed_family(s, a, b):
                if arcs not in seen:
                    seen.add(arcs)
                    out.append(triangulation(s, arcs))
    return out


def sheaf_class_formula(p: int, q: int) -> int:
    return sum(k * catalan(p + q - k) * catalan(k - 1) for k in range(1, q + 1)) + sum(
        l * catalan(p + q - l) * catalan(l - 1) for l in range(1, p + 1)
    )


def census(p: int, q: int) -> Dict[str, int]:
    """Counts of tilting classes: bundles, fundamental bundles, all sheaves.

    Every count is produced by explicit enumeration and asserted equal to
    its closed form.
    """
    if p + q > 12:
        raise InvalidArguments("census is guarded to p + q <= 12")
    s = Surface(p, q)

    paths = enumerate_lattice_paths(p, q)
    for path in paths:
        path_to_tilting(s, path)  # validates
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
