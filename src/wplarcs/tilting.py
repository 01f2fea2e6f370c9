"""Triangulations of the annulus, lattice paths, and tilting censuses.

A triangulation is a maximal pairwise non-crossing set of arcs (size p+q);
all-bridging triangulations are unit staircases and correspond to monotone
lattice paths from (0,0) to (p,q) once shifted so the staircase starts at
the origin.  Counting is done three ways and cross-checked: lattice-path
counts by dynamic programming, the gcd-indexed exponential formula, and
the sizes of the anchored families up to simultaneous shift.

Classes up to the se-shift (the Auslander-Reiten translation on sheaves)
are named by their anchored representative.  `se_canonical` reads at most
p + q candidate shifts off the bridging arcs and builds one shifted
triangulation, so its cost does not depend on how far its input is
shifted.  The enumeration refuses surfaces with more than
`MAX_SHEAF_CLASSES` classes, the census those with p + q greater than
`MAX_CENSUS_RANK`, and the path counts those with p*q greater than
`MAX_PATH_CELLS`.

The census counts families, not members.  An anchored family is a set of
anchor arcs plus one triangulation of each of the two polygons they cut
out, so it has catalan(n_in - 2) * catalan(n_out - 2) members.  Each family
is checked once, with every crossing verdict its members would get.  Its
anchoring is checked once too, by a lemma: anchors and chords lie in one
member exactly when no two of the chords interleave in one polygon.  So
whether some member holds a given anchor pattern at a given shift is read
off the places of the pattern's arcs, and no member is built.  The
staircases of the lattice paths are checked together, one verdict per pair
of comparable lattice points.  The families and staircases of one census
share one arc table (`_Verdicts`): each distinct arc is built, arc-tested
and given its anchoring probes once, and each distinct pair is tested
once.  `is_triangulation` and `triangulation()` remain the check on arc
sets from outside the program.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, product
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from .core import (
    Bridging,
    Curve,
    InnerPeripheral,
    OuterPeripheral,
    Surface,
    _Value,
    connector,
    is_arc,
)
from .errors import (
    InternalInvariantViolation,
    InvalidArguments,
    NotApplicable,
)
from .intersect import positive_int


class LatticePath(_Value):
    """Monotone staircase of lattice points from (0,0) to (p,q)."""

    __slots__ = ("points",)
    points: Tuple[Tuple[int, int], ...]

    def __init__(self, points: Tuple[Tuple[int, int], ...]) -> None:
        if not points or points[0] != (0, 0):
            raise InvalidArguments("path must start at the origin")
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            if (x1 - x0, y1 - y0) not in ((1, 0), (0, 1)):
                raise InvalidArguments("path steps must be unit east or north")
        super().__init__(points)

    @property
    def target(self) -> Tuple[int, int]:
        return self.points[-1]


class Triangulation(_Value):
    __slots__ = ("surface", "arcs")
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
    power-series exponential obeys n*F_n = sum_{k=1..n} k*atom_k*F_{n-k};
    times p' + q' it reads in integers only,
    (p' + q')*n*F_n = sum_{k=1..n} binom(k(p' + q'), kp')*F_{n-k},
    so this takes O(d^2) big-number steps.  Each F_n counts the Dyck paths
    to (np', nq'), so each division is asserted exact (census and the tests
    compare the result with enumeration).  Guarded to
    p*q <= MAX_PATH_CELLS.
    """
    _check_path_cells(p, q)
    d = math.gcd(p, q)
    p1, n1 = p // d, (p + q) // d
    binoms = [math.comb(k * n1, k * p1) for k in range(d + 1)]
    series = [1]
    for n in range(1, d + 1):
        total = sum(binoms[k] * series[n - k] for k in range(1, n + 1))
        value, remainder = divmod(total, n1 * n)
        if remainder:
            raise InternalInvariantViolation("path-count formula gave a non-integer")
        series.append(value)
    return series[d]


def lattice_path_counts(p: int, q: int) -> Tuple[int, int]:
    """Monotone paths from (0,0) to (p,q): all of them, and the Dyck ones.

    A Dyck path stays weakly below the diagonal (`is_dyck`).  Counted by
    dynamic programming over the columns, with no path built: the ways to
    reach (x, y) are the ways to reach (x - 1, y) and (x, y - 1), and none
    above the diagonal.  O(p*q) big-number additions.  Guarded to
    p*q <= MAX_PATH_CELLS.
    """
    _check_path_cells(p, q)
    every = [1] + [0] * q
    dyck = [1] + [0] * q
    for x in range(p + 1):
        for y in range(1, q + 1):
            every[y] += every[y - 1]
            dyck[y] = dyck[y] + dyck[y - 1] if p * y <= q * x else 0
    return every[q], dyck[q]


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


def _anchor_patterns(s: Surface, a: int) -> Tuple[Tuple[Curve, ...], ...]:
    """The arc sets that, beside B(0, a), make a triangulation anchored.

    Plain (a, b), a in (-q, 0]: B(0, b) and the outer cap OP(a, b), with
    b in [1, a + q].  Primed (a, b), a in (-p, 0]: B(b, a) and the inner cap
    IP(0, b), with b in [1 - a, p].  The pair (0, 1) needs no cap.
    A census builds its own, on its own surface (`_Verdicts.anchoring`).
    """
    patterns = []
    if a == 0:
        patterns += [(Bridging(s, 0, 1),), (Bridging(s, 1, 0),)]
    for b in range(1 if a else 2, a + s.q + 1):
        patterns.append((Bridging(s, 0, b), OuterPeripheral(s, a, b)))
    for b in range(1 - a if a else 2, s.p + 1):
        patterns.append((Bridging(s, b, a), InnerPeripheral(s, 0, b)))
    return tuple(patterns)


# `se_canonical`'s patterns, kept for the process: its probes are only
# looked up, so a pattern built on an equal surface serves.
_se_anchor_patterns = lru_cache(maxsize=None)(_anchor_patterns)


def _anchor_candidate(arc: Bridging) -> Optional[Tuple[int, int]]:
    """`Bridging.anchoring_shift`, or None unless a > -max(p, q)."""
    k, a = arc.anchoring_shift()
    return (k, a) if a > -max(arc.surface.p, arc.surface.q) else None


def _anchor_candidates(t: Triangulation) -> Dict[int, List[int]]:
    """The candidates of the bridging arcs of t, mapping each k to its a."""
    candidates: Dict[int, List[int]] = {}
    for arc in t.arcs:
        if isinstance(arc, Bridging):
            candidate = _anchor_candidate(arc)
            if candidate is not None:
                candidates.setdefault(candidate[0], []).append(candidate[1])
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
            for pattern in _se_anchor_patterns(s, a)
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


class _Verdicts:
    """The arc table of one enumeration or census, on one surface.

    Arcs get small int ids when first seen, and every family of the call
    shares the facts kept under them: the arc of a lift-point join, built
    and arc-tested once; an arc's anchoring probes, from anchor patterns
    built once per call on its own surface; a pair's verdict.
    """

    def __init__(self) -> None:
        self.arcs: List[Curve] = []
        self._ids: Dict[Curve, int] = {}
        self._joins: Dict[tuple, int] = {}
        self._anchoring: Dict[int, Tuple[int, List[Tuple[int, ...]]]] = {}
        self._patterns: Dict[int, Tuple[Tuple[Curve, ...], ...]] = {}
        self._crossing: Dict[Tuple[int, int], bool] = {}

    def arc_id(self, arc: Curve) -> int:
        n = self._ids.get(arc)
        if n is None:
            n = self._ids[arc] = len(self.arcs)
            self.arcs.append(arc)
        return n

    def join_ids(self, s: Surface, vertices, chords) -> List[int]:
        """The id of `connector(s, vertices[i], vertices[j])` for each (i, j)."""
        joins = self._joins
        get = joins.get
        ids = []
        for i, j in chords:
            ends = vertices[i], vertices[j]
            x = get(ends)
            if x is None:
                arc = connector(s, *ends)
                _require_arcs(s, (arc,))
                x = joins[ends] = self.arc_id(arc)
            ids.append(x)
        return ids

    def anchoring(self, s: Surface, x: int) -> Tuple[int, List[Tuple[int, ...]]]:
        """(k, each anchor pattern's probe ids) for arc x's candidate (k, a)."""
        found = self._anchoring.get(x)
        if found is None:
            arc, found = self.arcs[x], (0, [])
            candidate = _anchor_candidate(arc) if isinstance(arc, Bridging) else None
            if candidate is not None:
                k, a = candidate
                patterns = self._patterns.get(a)
                if patterns is None:
                    patterns = self._patterns[a] = _anchor_patterns(s, a)
                found = k, [
                    tuple(self.arc_id(probe.se_shifted(-k)) for probe in pattern)
                    for pattern in patterns
                ]
            self._anchoring[x] = found
        return found

    def require_non_crossing(self, pairs: Iterable[Tuple[int, int]], what: str) -> None:
        """Raise unless no pair of arcs crosses; each pair is tested once."""
        known = self._crossing
        get = known.get
        arcs = self.arcs
        for x, y in pairs:
            crossing = get((x, y))
            if crossing is None:
                crossing = known[x, y] = known[y, x] = _crossing(arcs[x], arcs[y])
            if crossing:
                raise InternalInvariantViolation(
                    f"{what}: {arcs[x]!r} and {arcs[y]!r} cross"
                )


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


@lru_cache(maxsize=None)
def _polygon_chords(n: int):
    """The diagonals (i, j), i < j, of a convex n-gon, each in some
    triangulation, and the index pairs of those that do not interleave."""
    chords = tuple(
        (i, j) for i in range(n) for j in range(i + 2, n) if (i, j) != (0, n - 1)
    )
    pairs = tuple(
        (a, b)
        for a, b in combinations(range(len(chords)), 2)
        if not _interleave(chords[a], chords[b])
    )
    return chords, pairs


# Where an arc sits in its anchored family: None for an anchor, or
# (polygon, (i, j)) for the diagonal (i, j) of the inside (0) or outside (1)
# polygon.
_Place = Optional[Tuple[int, Tuple[int, int]]]


def _held_together(places: Iterable[_Place]) -> bool:
    """Some member of the family holds an arc at each of these places.

    The lemma of the family-level anchoring check: arcs that are anchors or
    chords lie in one member exactly when no two of the chords interleave in
    one polygon, because pairwise non-interleaving diagonals of a convex
    polygon extend to a triangulation of it.
    """
    chords = [place for place in places if place is not None]
    return not any(
        c[0] == d[0] and _interleave(c[1], d[1]) for c, d in combinations(chords, 2)
    )


class _Family(_Value):
    """The anchors of one anchored family and the two polygons they cut out.

    The members are the anchors plus any triangulations of the two polygons,
    whose vertices are lift points (boundary, index) in cyclic order, so a
    family has catalan(n_in - 2) * catalan(n_out - 2) members (`size`).
    `validate` checks the family once for all of its members and
    `check_anchoring` checks once that they are anchored by this family
    alone.  Iterating yields the members, validated on their own; the
    enumeration calls `members` with the verdicts it shares across families.
    """

    __slots__ = ("surface", "anchors", "inside", "outside")
    surface: Surface
    anchors: Tuple[Curve, ...]
    inside: Tuple[Tuple[str, int], ...]
    outside: Tuple[Tuple[str, int], ...]

    def __iter__(self) -> Iterator[FrozenSet[Curve]]:
        return self.members(_Verdicts())

    def size(self) -> int:
        return catalan(len(self.inside) - 2) * catalan(len(self.outside) - 2)

    def validate(self, verdicts: _Verdicts) -> Dict[int, _Place]:
        """Check the family once for all of its members; place each arc id.

        A triangulation of an n-gon has n - 3 diagonals, so the members have
        the anchors plus max(n - 3, 0) chords per polygon, which must be
        p + q arcs.  The family then gets the verdicts every member would get
        from `is_triangulation`: the anchors pairwise; each diagonal of a
        polygon as an arc of the surface and against each anchor; each pair
        of chords of one polygon that can share a triangulation, which is
        every pair that does not interleave; each (inside, outside) chord
        pair.  Every pair of arcs of every member is among these.  Last, no
        arc may sit at two places, so distinct triangulations of the
        polygons give distinct members of p + q distinct arcs.
        """
        s, anchors = self.surface, self.anchors
        polygons = (self.inside, self.outside)
        size = len(anchors) + sum(max(len(vertices) - 3, 0) for vertices in polygons)
        if size != s.rank:
            raise InternalInvariantViolation(
                f"an anchored family's members have {size} arcs, not {s.rank}"
            )
        _require_arcs(s, anchors)
        anchor_ids = [verdicts.arc_id(x) for x in anchors]
        require = verdicts.require_non_crossing
        require(combinations(anchor_ids, 2), "two anchors cross")
        chord_ids = []
        for vertices in polygons:
            chords, pairs = _polygon_chords(len(vertices))
            ids = verdicts.join_ids(s, vertices, chords)
            require(product(ids, anchor_ids), "an anchor crosses a chord")
            require(
                [(ids[a], ids[b]) for a, b in pairs], "two chords of one polygon cross"
            )
            chord_ids.append((chords, ids))
        (_, ids_in), (_, ids_out) = chord_ids
        require(product(ids_in, ids_out), "chords of the two polygons cross")
        places: Dict[int, _Place] = dict.fromkeys(anchor_ids)
        for polygon, (chords, ids) in enumerate(chord_ids):
            places.update(zip(ids, ((polygon, chord) for chord in chords)))
        if len(places) != len(anchor_ids) + len(ids_in) + len(ids_out):
            raise InternalInvariantViolation("an anchored family holds an arc twice")
        return places

    def members(self, verdicts: _Verdicts) -> Iterator[FrozenSet[Curve]]:
        """The members' arc sets, after `validate`, each checked for p + q arcs."""
        s = self.surface
        places = self.validate(verdicts)
        arc_at = {
            place: verdicts.arcs[x] for x, place in places.items() if place is not None
        }
        members_in, members_out = (
            [
                frozenset(arc_at[polygon, chord] for chord in t)
                for t in _polygon_triangulations(len(vertices))
            ]
            for polygon, vertices in enumerate((self.inside, self.outside))
        )
        base = frozenset(self.anchors)
        for arcs_in in members_in:
            with_in = base | arcs_in
            for arcs_out in members_out:
                arcs = with_in | arcs_out
                if len(arcs) != s.rank:
                    raise InternalInvariantViolation(
                        f"an anchored family member has {len(arcs)} arcs, not {s.rank}"
                    )
                yield arcs

    def check_anchoring(self, verdicts: _Verdicts, places: Dict[int, _Place]) -> None:
        """Each member is its own `se_canonical` form, in no other family.

        The per-member test `se_canonical(t) == t`, made once for the whole
        family (`places` is what `validate` returned).  Each bridging arc c
        of the family gives its candidate (k, a) (`_anchor_candidate`); the
        probes of each pattern of `_anchor_patterns(s, a)` are un-shifted by
        k (`_Verdicts.anchoring`, once per arc of the census).  Some member
        holds c and those probes exactly when each probe has a place in the
        family and `_held_together` accepts the places.  Such a hit at
        k != 0 gives a member the anchoring shift k, and one at k = 0 on a
        pattern other than the family's anchors a member that two families
        share; both raise `InternalInvariantViolation`, as does a family
        whose own anchors are never hit.

        Cost: at most one candidate per bridging arc of the family, which has
        O((p + q)^2) of them, each with at most p + q patterns of at most two
        probes: O((p + q)^3) look-ups of int ids, and no crossing test.
        """
        s = self.surface
        anchors = {x for x, place in places.items() if place is None}
        held = places.__contains__
        anchored = False
        for c, place in places.items():
            k, patterns = verdicts.anchoring(s, c)
            for pattern in patterns:
                if not all(map(held, pattern)) or not _held_together(
                    [place, *map(places.__getitem__, pattern)]
                ):
                    continue
                if k:
                    raise InternalInvariantViolation(
                        f"an anchored family member has the anchoring shift {k}"
                    )
                if {c, *pattern} != anchors:
                    raise InternalInvariantViolation(
                        "two anchored families share a member"
                    )
                anchored = True
        if not anchored:
            raise InternalInvariantViolation("no anchored representative")


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


def _families(s: Surface) -> List[_Family]:
    """The anchored families: plain (a, b), then primed (a, b)."""
    families = [
        _plain_family(s, a, b) for a in range(0, -s.q, -1) for b in range(1, a + s.q + 1)
    ]
    families += [
        _primed_family(s, a, b) for a in range(0, -s.p, -1) for b in range(1 - a, s.p + 1)
    ]
    return families


def enumerate_anchored_triangulations(s: Surface) -> List[Triangulation]:
    """All triangulations in the anchored families, pairwise se-inequivalent.

    Each family is validated once (`_Family.validate`) and each distinct
    pair of arcs is tested for crossing once per call, so the members are
    built without a check of their own.  The families are disjoint: two
    members with one arc set raise `InternalInvariantViolation`.
    """
    _check_enumeration_size(s)
    verdicts = _Verdicts()
    out = [
        Triangulation(s, arcs)
        for family in _families(s)
        for arcs in family.members(verdicts)
    ]
    if len({t.arcs for t in out}) != len(out):
        raise InternalInvariantViolation("two anchored family members share an arc set")
    return out


def sheaf_class_formula(p: int, q: int) -> int:
    return sum(k * catalan(p + q - k) * catalan(k - 1) for k in range(1, q + 1)) + sum(
        l * catalan(p + q - l) * catalan(l - 1) for l in range(1, p + 1)
    )


# Largest number of sheaf classes an enumeration may list.  A class costs
# about 6 us to list (`enumerate_anchored_triangulations` takes 0.17 to
# 0.19 s for the 31,752 classes of (5, 5), and 0.27 to 0.33 s for the
# 48,620 of (1, 9), on a 2-CPU x86-64 host with CPython 3.11) and about
# 360 bytes to print (`wplarcs --json tilting classes` writes 11 MB in
# 0.8 s at (5, 5) and 17 MB in 1.3 s at (1, 9)), so the cap bounds a
# listing near 1.5 s and 20 MB.  It admits every surface with p + q <= 10
# and refuses every one with p + q >= 11, the smallest of which has 116,424
# classes.  The census counts without listing and has its own guard,
# `MAX_CENSUS_RANK`.
MAX_SHEAF_CLASSES = 50_000
# The k = 1 term of the formula is catalan(p + q - 1), so from this rank on
# the cap is passed without evaluating the formula on huge numbers.
_RANK_OVER_CAP = next(
    n for n in range(1, MAX_SHEAF_CLASSES) if catalan(n - 1) > MAX_SHEAF_CLASSES
)

# Largest p + q the census admits.  On the host above a census at
# p + q = 20 takes 0.11 s at (10, 10) to 0.22 s at (1, 19) in-process (0.16
# to 0.26 s as a `wplarcs` process); at p + q = 30 it takes 1.2 s at
# (15, 15) and 2.6 s at (1, 29).  With n = p + q, each of the O(n^2)
# families makes O(n^4) verdict look-ups, of which the census tests O(n^4)
# distinct pairs in all.
MAX_CENSUS_RANK = 20

# Largest p*q the lattice-path counts admit.  On the host above (1000, 1000)
# takes 0.12 s in `lattice_path_counts` and 0.22 s in `bizley_count`, whose
# O(gcd(p, q)^2) steps peak on square surfaces; (1, 10**6) takes 0.18 s, and
# (3000, 3001) takes 1.6 s in the dynamic programme alone.
MAX_PATH_CELLS = 1_000_000


def _check_path_cells(p: int, q: int) -> None:
    if p < 1 or q < 1:
        raise InvalidArguments("path counts need weights p, q >= 1")
    if p * q > MAX_PATH_CELLS:
        raise InvalidArguments(f"path counts are guarded to p * q <= {MAX_PATH_CELLS}")


def _check_enumeration_size(s: Surface) -> None:
    """Refuse a surface with more than MAX_SHEAF_CLASSES sheaf classes."""
    if (
        s.rank >= _RANK_OVER_CAP
        or sheaf_class_formula(s.p, s.q) > MAX_SHEAF_CLASSES
    ):
        raise InvalidArguments(
            f"enumeration is guarded to at most {MAX_SHEAF_CLASSES} sheaf classes"
        )


def _check_staircases(s: Surface, verdicts: _Verdicts) -> None:
    """Validate every triangulation `path_to_tilting` reads off a path.

    The staircase of a path holds B(x, y) for its points but the closing
    corner (p, q).  Two lattice points lie on one monotone path exactly when
    they are comparable, so each comparable pair's arcs are tested for
    crossing once, for all paths together.  A path has p + q points besides
    the corner, so its staircase is a triangulation once the
    (p + 1)(q + 1) - 1 staircase arcs are pairwise distinct.
    """
    points = [(x, y) for x in range(s.p + 1) for y in range(s.q + 1)][:-1]
    arcs = [Bridging(s, *point) for point in points]
    _require_arcs(s, arcs)
    ids = [verdicts.arc_id(arc) for arc in arcs]
    pairs = combinations(range(len(points)), 2)
    # x1 <= x2 in this order, so the pair is comparable when y1 <= y2.
    comparable = [(ids[m], ids[n]) for m, n in pairs if points[m][1] <= points[n][1]]
    verdicts.require_non_crossing(comparable, "two arcs of one staircase cross")
    if len(set(ids)) != len(points):
        raise InternalInvariantViolation("two lattice points give one staircase arc")


def census(p: int, q: int) -> Dict[str, int]:
    """Counts of tilting classes: bundles, fundamental bundles, all sheaves.

    Nothing is listed.  The bundle and fundamental classes are lattice
    paths, counted by `lattice_path_counts` after their staircases are
    validated together (`_check_staircases`).  The sheaf classes are the
    members of the anchored families, counted by `_Family.size` after each
    family is validated (`_Family.validate`) and its members are shown to
    be their own `se_canonical` forms in no other family
    (`_Family.check_anchoring`), once per family.  Each count is asserted
    equal to its closed form.  Weights below 1, and surfaces with
    p + q > MAX_CENSUS_RANK, are refused before any work.
    """
    if p < 1 or q < 1:
        raise InvalidArguments("census needs weights p, q >= 1")
    if p + q > MAX_CENSUS_RANK:
        raise InvalidArguments(f"census is guarded to p + q <= {MAX_CENSUS_RANK}")
    s = Surface(p, q)

    verdicts = _Verdicts()
    _check_staircases(s, verdicts)
    bundle_classes, fundamental = lattice_path_counts(p, q)
    if bundle_classes != math.comb(p + q, p):
        raise InternalInvariantViolation("bundle census mismatch")
    if fundamental != bizley_count(p, q):
        raise InternalInvariantViolation("fundamental census mismatch")

    sheaf_classes = 0
    for family in _families(s):
        family.check_anchoring(verdicts, family.validate(verdicts))
        sheaf_classes += family.size()
    if sheaf_classes != sheaf_class_formula(p, q):
        raise InternalInvariantViolation("sheaf census mismatch")

    return {
        "bundle_classes": bundle_classes,
        "fundamental": fundamental,
        "sheaf_classes": sheaf_classes,
    }
