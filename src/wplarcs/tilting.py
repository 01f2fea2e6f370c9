"""Triangulations of the annulus, lattice paths, and tilting censuses.

A triangulation is a maximal pairwise non-crossing set of arcs (size p+q);
all-bridging triangulations are unit staircases and correspond to monotone
lattice paths from (0,0) to (p,q) once shifted so the staircase starts at
the origin.  Counting is done three ways and cross-checked: direct path
enumeration, the gcd-indexed exponential formula, and enumeration of the
anchored triangulations up to simultaneous shift.

Classes up to the se-shift (the Auslander-Reiten translation on sheaves)
are named by their anchored representative.  `se_canonical` reads at most
p + q candidate shifts off the bridging arcs and builds one shifted
triangulation, so its cost does not depend on how far its input is
shifted.  The enumeration refuses surfaces with more than
`MAX_SHEAF_CLASSES` classes.

The census validates families, not members.  An anchored family is a set
of anchor arcs plus one triangulation of each of the two polygons they cut
out; each family is checked once, with every crossing verdict its members
would get, each distinct arc pair is tested once per enumeration, and the
members are assembled unchecked apart from their size.  Two members with
one arc set are an invariant violation, since the families are disjoint.
The staircases of the lattice paths are checked together, one test per
pair of comparable lattice points.  `is_triangulation` and
`triangulation()` remain the check on arc sets from outside the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

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


def _crossing(x: Curve, y: Curve) -> bool:
    """Either arc meets the other positively."""
    return bool(positive_int(x, y) or positive_int(y, x))


def is_triangulation(surface: Surface, arcs: Iterable[Curve]) -> bool:
    """Exactly p + q distinct arcs, pairwise non-crossing in both orders."""
    arcs = list(arcs)
    if len(set(arcs)) != len(arcs) or len(arcs) != surface.rank:
        return False
    for a in arcs:
        if a.surface != surface or not is_arc(a):
            return False
    return not any(_crossing(x, y) for x, y in combinations(arcs, 2))


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


def bizley_count(p: int, q: int) -> int:
    """Number of (p,q)-Dyck paths via the gcd-indexed exponential formula.

    With d = gcd(p, q) and (p', q') = (p, q)/d, the count is the coefficient
    F_d of exp(sum_k atom_k x^k), whose atoms are the coprime path counts
    atom_k = binom(k(p' + q'), kp') / (k(p' + q')) (Bizley 1954).  The
    power-series exponential obeys n*F_n = sum_{k=1..n} k*atom_k*F_{n-k}, so
    this takes O(d^2) big-number steps.  The result is asserted integral
    (census and the tests compare it with enumeration).
    """
    d = math.gcd(p, q)
    p1, n1 = p // d, (p + q) // d
    # k * atom_k, with the k cancelled.
    weighted = [Fraction(math.comb(k * n1, k * p1), n1) for k in range(d + 1)]
    series = [Fraction(1)]
    for n in range(1, d + 1):
        series.append(sum(weighted[k] * series[n - k] for k in range(1, n + 1)) / n)
    total = series[d]
    if total.denominator != 1:
        raise InternalInvariantViolation("path-count formula gave a non-integer")
    return int(total)


# ---------------------------------------------------------------------------
# Bundle triangulations <-> lattice paths.
# ---------------------------------------------------------------------------


def _all_bridging(t: Triangulation) -> None:
    if not all(isinstance(a, Bridging) for a in t.arcs):
        raise NotApplicable("operation requires an all-bridging triangulation")


def _unfold_staircase(t: Triangulation) -> Optional[List[Tuple[int, int]]]:
    """Lifts of the arcs as the unit staircase from (0, 0).

    Returns None when t is not a staircase through B(0, 0).  The arcs of an
    all-bridging triangulation form a single cycle in which each member is
    followed by its east or north unit translate; unfolding from a member
    whose canonical form is the origin produces lifts inside the rectangle
    [0, p] x [0, q].  B(a + 1, b) and B(a, b + 1) cross, so a triangulation
    holds at most one of them and the walk never backtracks.
    """
    s = t.surface
    _all_bridging(t)
    remaining = set(t.arcs)
    if Bridging(s, 0, 0) not in remaining:
        return None
    remaining.remove(Bridging(s, 0, 0))
    path = [(0, 0)]
    while remaining:
        a, b = path[-1]
        for step in ((a + 1, b), (a, b + 1)):
            if Bridging(s, *step) in remaining:
                break
        else:
            return None
        remaining.remove(Bridging(s, *step))
        path.append(step)
    a_last, b_last = path[-1]
    if (s.p - a_last, s.q - b_last) not in ((1, 0), (0, 1)):
        return None
    return path


def se_shift(t: Triangulation, k: int) -> Triangulation:
    """Simultaneous start/end shift of every member, k times."""
    if k == 0:
        return t
    return Triangulation(t.surface, frozenset(arc.se_shifted(k) for arc in t.arcs))


def canonical_bundle_rep(t: Triangulation) -> Triangulation:
    """The unique shift whose staircase starts at the origin.

    For an all-bridging triangulation this is its anchored representative:
    the only all-bridging anchored families hold B(0, 0) with B(0, 1) or
    B(1, 0).
    """
    _all_bridging(t)
    return se_canonical(t)


def tilting_to_path(t: Triangulation) -> LatticePath:
    """Staircase reading of an all-bridging triangulation, shifted to (0,0)."""
    points = _unfold_staircase(canonical_bundle_rep(t))
    if points is None:
        raise InternalInvariantViolation("the canonical shift is not a staircase")
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


@lru_cache(maxsize=None)
def _anchor_patterns(s: Surface, a: int) -> Tuple[Tuple[Curve, ...], ...]:
    """The arc sets that, beside B(0, a), make a triangulation anchored.

    Plain (a, b), a in (-q, 0]: B(0, b) and the outer cap OP(a, b), with
    b in [1, a + q].  Primed (a, b), a in (-p, 0]: B(b, a) and the inner cap
    IP(0, b), with b in [1 - a, p].  The pair (0, 1) needs no cap.
    """
    patterns = []
    if a == 0:
        patterns += [(Bridging(s, 0, 1),), (Bridging(s, 1, 0),)]
    for b in range(1 if a else 2, a + s.q + 1):
        patterns.append((Bridging(s, 0, b), OuterPeripheral(s, a, b)))
    for b in range(1 - a if a else 2, s.p + 1):
        patterns.append((Bridging(s, b, a), InnerPeripheral(s, 0, b)))
    return tuple(patterns)


def _anchor_candidates(t: Triangulation) -> Dict[int, List[int]]:
    """Shifts k taking a bridging arc of t to B(0, a), a in (-max(p, q), 0].

    The se-shift by k takes the lift (i, j) to (i + k, j - k), so it keeps
    r = i + j modulo p + q.  With m = ceil(r / (p + q)), the shift
    k = m*p - i lands the arc on B(0, r - m*(p + q)): one candidate per arc
    at most, whatever the shift of t.  Maps each k to its values of a.
    """
    s = t.surface
    n = s.p + s.q
    reach = max(s.p, s.q)
    candidates: Dict[int, List[int]] = {}
    for arc in t.arcs:
        if not isinstance(arc, Bridging):
            continue
        r = arc.i + arc.j
        m = -(-r // n)
        a = r - m * n
        if a > -reach:
            candidates.setdefault(m * s.p - arc.i, []).append(a)
    return candidates


def se_canonical(t: Triangulation) -> Triangulation:
    """The unique shift of t lying in one of the anchored families.

    Every anchored family holds B(0, a) with a in (-max(p, q), 0], so the
    anchoring shift is one of the candidates read off the bridging arcs
    (`_anchor_candidates`).  A candidate k is tested without building its
    triangulation: the probe arcs of the anchor patterns are un-shifted by k
    and looked up in t.  Only the winner is built, by one `se_shift`.  No
    anchored shift, or two, is an invariant violation.

    Cost: at most p + q candidates (k, a), one per bridging arc, each
    tested with at most 2(p + q) probe look-ups, and one `se_shift`, however
    far t is shifted.
    """
    s = t.surface
    arcs = t.arcs
    anchored = [
        k
        for k, anchors in _anchor_candidates(t).items()
        if any(
            all(probe.se_shifted(-k) in arcs for probe in pattern)
            for a in anchors
            for pattern in _anchor_patterns(s, a)
        )
    ]
    if not anchored:
        raise InternalInvariantViolation("no anchored representative")
    if len(anchored) > 1:
        raise InternalInvariantViolation(
            f"several anchored representatives, at shifts {sorted(anchored)}"
        )
    return se_shift(t, anchored[0])


# ---------------------------------------------------------------------------
# Census.
# ---------------------------------------------------------------------------


def _require_non_crossing(
    verdicts: Dict[Tuple[Curve, Curve], bool], x: Curve, y: Curve, what: str
) -> None:
    """Raise unless x and y do not cross; each verdict is kept in `verdicts`."""
    crossing = verdicts.get((x, y))
    if crossing is None:
        crossing = verdicts[x, y] = verdicts[y, x] = _crossing(x, y)
    if crossing:
        raise InternalInvariantViolation(f"{what}: {x!r} and {y!r} cross")


def _require_arcs(s: Surface, curves: Iterable[Curve]) -> None:
    """The arc test of `is_triangulation`, raising on a curve that fails it."""
    for c in curves:
        if c.surface != s or not is_arc(c):
            raise InternalInvariantViolation(f"{c!r} is not an arc of {s}")


def _polygon_triangulations(n: int) -> Tuple[FrozenSet[Tuple[int, int]], ...]:
    """Triangulations of a convex n-gon, as sets of diagonals (i, j), i < j."""
    if n < 3:
        return (frozenset(),)

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

    return rec(0, n - 1)


def _interleave(c: Tuple[int, int], d: Tuple[int, int]) -> bool:
    """Two diagonals of a convex polygon that no triangulation holds together."""
    (i, j), (k, l) = c, d
    return i < k < j < l or k < i < l < j


@dataclass(frozen=True)
class _Family:
    """The anchors of one anchored family and the two polygons they cut out.

    The members are the anchors plus any triangulations of the two polygons,
    whose vertices are lift points (boundary, index) in cyclic order.
    Iterating yields them, validated on their own; the enumeration calls
    `members` with the crossing verdicts it shares across families.
    """

    surface: Surface
    anchors: Tuple[Curve, ...]
    inside: Tuple[Tuple[str, int], ...]
    outside: Tuple[Tuple[str, int], ...]

    def __iter__(self) -> Iterator[FrozenSet[Curve]]:
        return self.members({})

    def members(
        self, verdicts: Dict[Tuple[Curve, Curve], bool]
    ) -> Iterator[FrozenSet[Curve]]:
        """The members' arc sets, after validating the family once.

        The family gets the verdicts every member would get from
        `is_triangulation`: the anchors pairwise; each diagonal of a polygon
        as an arc of the surface and against each anchor; each pair of
        chords of one polygon that can share a triangulation, which is every
        pair that does not interleave; each (inside, outside) chord pair.
        Every pair of arcs of every member is among these, so a member is
        assembled unchecked apart from its size of p + q, which also rules
        out a chord repeating an anchor.
        """
        s, anchors = self.surface, self.anchors
        _require_arcs(s, anchors)
        for x, y in combinations(anchors, 2):
            _require_non_crossing(verdicts, x, y, "two anchors cross")
        polygons = []
        for vertices in (self.inside, self.outside):
            n = len(vertices)
            triangulations = _polygon_triangulations(n)
            # The n-gon's diagonals; each lies in some triangulation.
            chords = [
                (i, j) for i in range(n) for j in range(i + 2, n) if (i, j) != (0, n - 1)
            ]
            arc = {c: connector(s, vertices[c[0]], vertices[c[1]]) for c in chords}
            _require_arcs(s, arc.values())
            for c in chords:
                for x in anchors:
                    _require_non_crossing(
                        verdicts, arc[c], x, "an anchor crosses a chord"
                    )
            for c, d in combinations(chords, 2):
                if not _interleave(c, d):
                    _require_non_crossing(
                        verdicts, arc[c], arc[d], "two chords of one polygon cross"
                    )
            members = [frozenset(arc[c] for c in t) for t in triangulations]
            polygons.append((list(arc.values()), members))
        (chords_in, members_in), (chords_out, members_out) = polygons
        for x in chords_in:
            for y in chords_out:
                _require_non_crossing(verdicts, x, y, "chords of the two polygons cross")
        base = frozenset(anchors)
        for arcs_in in members_in:
            with_in = base | arcs_in
            for arcs_out in members_out:
                arcs = with_in | arcs_out
                if len(arcs) != s.rank:
                    raise InternalInvariantViolation(
                        f"an anchored family member has {len(arcs)} arcs, not {s.rank}"
                    )
                yield arcs


def _plain_family(s: Surface, a: int, b: int) -> _Family:
    """The family of triangulations containing the plain anchor for (a, b)."""
    anchors: List[Curve] = [Bridging(s, 0, a), Bridging(s, 0, b)]
    if (a, b) != (0, 1):
        anchors.append(OuterPeripheral(s, a, b))
    # Region inside the two bridges: outer points a..b under inner 0.
    inside = [("outer", j) for j in range(a, b + 1)]
    # Region outside: inner 0..p over outer b..a+q.
    outside = [("inner", i) for i in range(0, s.p + 1)]
    outside += [("outer", j) for j in range(b, a + s.q + 1)][::-1]
    return _Family(s, tuple(anchors), tuple(inside), tuple(outside))


def _primed_family(s: Surface, a: int, b: int) -> _Family:
    """The family of triangulations containing the primed anchor for (a, b)."""
    anchors: List[Curve] = [Bridging(s, 0, a), Bridging(s, b, a)]
    if (a, b) != (0, 1):
        anchors.append(InnerPeripheral(s, 0, b))
    inside = [("inner", i) for i in range(0, b + 1)]
    outside = [("outer", j) for j in range(a, a + s.q + 1)]
    outside += [("inner", i) for i in range(b, s.p + 1)][::-1]
    return _Family(s, tuple(anchors), tuple(inside), tuple(outside))


def enumerate_anchored_triangulations(s: Surface) -> List[Triangulation]:
    """All triangulations in the anchored families, pairwise se-inequivalent.

    Each family is validated once (`_Family.members`) and each distinct pair
    of arcs is tested for crossing once per call, so the members are built
    without a check of their own.  The families are disjoint: two members
    with one arc set raise `InternalInvariantViolation`.
    """
    _check_enumeration_size(s)
    families = [
        _plain_family(s, a, b) for a in range(0, -s.q, -1) for b in range(1, a + s.q + 1)
    ]
    families += [
        _primed_family(s, a, b) for a in range(0, -s.p, -1) for b in range(1 - a, s.p + 1)
    ]
    verdicts: Dict[Tuple[Curve, Curve], bool] = {}
    out = [
        Triangulation(s, arcs) for family in families for arcs in family.members(verdicts)
    ]
    if len({t.arcs for t in out}) != len(out):
        raise InternalInvariantViolation("two anchored family members share an arc set")
    return out


def sheaf_class_formula(p: int, q: int) -> int:
    return sum(k * catalan(p + q - k) * catalan(k - 1) for k in range(1, q + 1)) + sum(
        l * catalan(p + q - l) * catalan(l - 1) for l in range(1, p + 1)
    )


# Largest number of sheaf classes an enumeration may build.  A class costs
# about 0.06 ms, mostly its `se_canonical` check (census(5, 5) takes 1.7 to
# 2.0 s for 31,752 classes, and census(1, 9) 2.0 to 2.8 s for 48,620, on a
# 2-CPU x86-64 host with CPython 3.11), so the cap bounds an enumeration
# near 3 s.  It admits every surface with p + q <= 10 and refuses every one
# with p + q >= 11, the smallest of which has 116,424 classes.
MAX_SHEAF_CLASSES = 50_000
# The k = 1 term of the formula is catalan(p + q - 1), so from this rank on
# the cap is passed without evaluating the formula on huge numbers.
_RANK_OVER_CAP = next(
    n for n in range(1, MAX_SHEAF_CLASSES) if catalan(n - 1) > MAX_SHEAF_CLASSES
)


def _check_enumeration_size(s: Surface) -> None:
    """Refuse a surface with more than MAX_SHEAF_CLASSES sheaf classes."""
    if (
        s.rank >= _RANK_OVER_CAP
        or sheaf_class_formula(s.p, s.q) > MAX_SHEAF_CLASSES
    ):
        raise InvalidArguments(
            f"enumeration is guarded to at most {MAX_SHEAF_CLASSES} sheaf classes"
        )


def _check_staircases(s: Surface, paths: Iterable[LatticePath]) -> None:
    """Validate the triangulations `path_to_tilting` reads off the paths.

    The staircase of a path holds B(x, y) for its points but the closing
    corner (p, q).  Two lattice points lie on one monotone path exactly when
    they are comparable, so each comparable pair's arcs are tested for
    crossing once, for all paths together; a path then only needs p + q
    distinct arcs.
    """
    points = [(x, y) for x in range(s.p + 1) for y in range(s.q + 1)][:-1]
    arc = {point: Bridging(s, *point) for point in points}
    _require_arcs(s, arc.values())
    for (x1, y1), (x2, y2) in combinations(points, 2):
        # x1 <= x2 in this order, so the pair is comparable when y1 <= y2.
        if y1 <= y2 and _crossing(arc[x1, y1], arc[x2, y2]):
            raise InternalInvariantViolation("two arcs of one staircase cross")
    for path in paths:
        if len(frozenset(arc[point] for point in path.points[:-1])) != s.rank:
            raise InternalInvariantViolation("path did not produce a triangulation")


def census(p: int, q: int) -> Dict[str, int]:
    """Counts of tilting classes: bundles, fundamental bundles, all sheaves.

    Every count is produced by explicit enumeration and asserted equal to
    its closed form.  The staircases of all paths are validated together
    (`_check_staircases`) and the anchored families one family at a time
    (`enumerate_anchored_triangulations`); each anchored member must be its
    own `se_canonical` form.
    """
    s = Surface(p, q)
    _check_enumeration_size(s)

    paths = enumerate_lattice_paths(p, q)
    _check_staircases(s, paths)
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
