"""Exceptional pairs, ordered collections, external points and completion.

Collections are decided on the arcs alone: for arcs alpha, beta the pair
(phi(alpha), phi(beta)) is exceptional iff Int+(beta, alpha) = 0 (Ext^1)
and Int+(alpha se-shifted once, beta) = 0 (Hom, by Serre duality).
A set of arcs is an exceptional collection exactly when every unordered
pair passes the pair test in at least one direction and the precedence
digraph (edges forced by one-directional pairs) is acyclic; admissible
orders are its topological orders.  Inside, an arc is its lift (kind, x,
y), checked once on the way in, and a table read from two lifts gives a
pair's verdicts both ways; curves are built only for returned arcs and on
a table miss.  Completion is one lazy first-fit pass over every peripheral
arc and a bridging window anchored at the collection's bridging arcs, so
its cost does not grow with their winding.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .core import (
    INNER,
    OUTER,
    Bridging,
    Curve,
    InnerPeripheral,
    OuterPeripheral,
    SheafClass,
    Surface,
    Zero,
    _check_same_surface,
    _lift,
    _Value,
    is_arc,
    phi_inv,
)
from .errors import (
    InternalInvariantViolation,
    InvalidArguments,
    NotApplicable,
    OutOfScope,
)
from .intersect import (
    _shifted_count,
    endpoint_relation,
    exceptional_intersection,
    positive_int,
)

EXCEPTIONAL_CROSSING = "exceptional-crossing"
SHARED_ENDPOINT = "shared-endpoint-clockwise"
DISJOINT = "disjoint"
NOT_PAIR = "not-exceptional-pair"


class PositionClass(_Value):
    __slots__ = ("tag",)
    tag: str


def is_exceptional_pair(E: SheafClass, F: SheafClass) -> bool:
    """Both objects exceptional with Hom(F, E) = 0 = Ext1(F, E), decided on
    their curves by `_pair_verdict`."""
    if isinstance(E, Zero) or isinstance(F, Zero):
        return False
    return _pair_verdict(phi_inv(E), phi_inv(F))


# Pair verdicts are tabled up to twist.  Twisting by a line bundle is an
# autoequivalence of coh-X(p, q) (Geigle-Lenzing 1987).  On arcs it moves
# every inner index by u and every outer one by v: B(i, j) -> B(i + u, j + v),
# IP(a, b) -> IP(a + u, b + u), OP(a, b) -> OP(a + v, b + v); (u, v) = (p, q)
# is the deck translation, the relation p*x1 = q*x2.  So the pair test, and
# mutation (`braid._MUTATE_CACHE`), depend on a pair only up to a twist.  The
# tables are read from lifts: an arc is held as its lift (kind, x, y), its
# `key()` with x in [0, period), and `_verdicts` twists two lifts to their
# anchor in integer arithmetic, giving the 8-int key (p, q, kind, x, y, kind,
# x, y); a pair entry holds both orders' verdicts.  Bridging pairs more than
# q apart fail both ways by Lemma 1 of `complete_to_maximal`; every other
# pair anchors to one of
#     p(2q + 1) + p(p^2 - 1) + q(q^2 - 1) + 2(p - 1)(q - 1)
# pairs per surface: B(0, 0) first with B(x, y), 0 <= x < p, |y| <= q, or
# with a peripheral arc; a peripheral arc first with B(0, 0); or two
# peripheral arcs, the first starting at 0 and the other at 0 if on the
# other boundary.  That bounds `_PAIR_CACHE`, and twice it `_MUTATE_CACHE`
# (one entry a side), whatever the windings seen, so neither table evicts.
_PAIR_CACHE: Dict[tuple, Tuple[bool, bool]] = {}


def _pair_verdict(alpha: Curve, beta: Curve) -> bool:
    """(E, F) = (phi(alpha), phi(beta)) is an exceptional pair: the counts
    are Ext^1(F, E) and, through the se-shift (Serre duality), Hom(F, E)."""
    return alpha.is_arc() and beta.is_arc() and (
        positive_int(beta, alpha) == 0 == _shifted_count(alpha, beta)
    )


def _curve(lift: tuple, s: Surface) -> Curve:
    """The curve on `s` whose `key()` is `lift`."""
    return _lift((Bridging, InnerPeripheral, OuterPeripheral)[lift[0]], s, *lift[1:])


def _lifts(arcs: Sequence[Curve]) -> Optional[Tuple[tuple, ...]]:
    """The lifts of `arcs`, each arc checked once: SurfaceMismatch when two
    lie on different surfaces, None when one is not an arc."""
    if arcs:
        _check_same_surface(*arcs)
    return tuple([a.key() for a in arcs]) if all(a.is_arc() for a in arcs) else None


def _verdicts(a: tuple, b: tuple, s: Surface) -> Tuple[bool, bool]:
    """`_pair_verdict` both ways on the arcs with lifts (a, b), a first,
    tabled under the key of the pair twisted to its anchor (`braid._anchor`
    gives the same key); curves are built only on a table miss."""
    p, q = s.p, s.q
    ka, xa, ya = a
    kb, xb, yb = b
    if not ka:
        if not kb:
            k = (xb - xa) // p
            y = yb - ya - k * q
            if not -q <= y <= q:
                return False, False  # by Lemma 1, and never tabled
            key = (p, q, 0, 0, 0, 0, xb - xa - k * p, y)
        else:
            x = (xb - xa) % p if kb == 1 else (xb - ya) % q
            key = (p, q, 0, 0, 0, kb, x, x + yb - xb)
    elif not kb:
        x = (xa - xb) % p if ka == 1 else (xa - yb) % q
        key = (p, q, ka, x, x + ya - xa, 0, 0, 0)
    else:
        x = (xb - xa) % (p if ka == 1 else q) if ka == kb else 0
        key = (p, q, ka, 0, ya - xa, kb, x, x + yb - xb)
    hit = _PAIR_CACHE.get(key)
    if hit is None:
        alpha, beta = _curve(a, s), _curve(b, s)
        hit = _PAIR_CACHE[key] = _pair_verdict(alpha, beta), _pair_verdict(beta, alpha)
    return hit


def _arc_pair_verdicts(alpha: Curve, beta: Curve) -> Tuple[bool, bool]:
    """`_verdicts` on two curves; (False, False) when one is not an arc."""
    lifts = _lifts((alpha, beta))
    return (False, False) if lifts is None else _verdicts(*lifts, alpha.surface)


def pair_position(alpha: Curve, beta: Curve) -> PositionClass:
    """Mutual position of two arcs, matching the exceptional-pair trichotomy."""
    if _lifts((alpha, beta)) is None:
        raise OutOfScope("positions are classified for arcs")
    if alpha == beta:
        return PositionClass(NOT_PAIR)
    if positive_int(beta, alpha) > 0:
        return PositionClass(NOT_PAIR)
    crossings = positive_int(alpha, beta)
    rel = endpoint_relation(alpha, beta)
    if rel.shared_start or rel.shared_end:
        if rel.clockwise_follows and crossings == 0:
            return PositionClass(SHARED_ENDPOINT)
        return PositionClass(NOT_PAIR)
    if crossings == 0:
        return PositionClass(DISJOINT)
    if crossings == 1 and exceptional_intersection(alpha, beta) is not None:
        return PositionClass(EXCEPTIONAL_CROSSING)
    return PositionClass(NOT_PAIR)


class ArcCollection(_Value):
    """A finite set of distinct arcs over one surface."""

    __slots__ = ("surface", "arcs")
    surface: Surface
    arcs: FrozenSet[Curve]

    @staticmethod
    def of(surface: Surface, arcs: Iterable[Curve]) -> "ArcCollection":
        """The collection of `arcs`, which must be distinct arcs on `surface`."""
        arcs = tuple(arcs)
        for a in arcs:
            if a.surface != surface:
                raise NotApplicable("arc on the wrong surface")
            if not is_arc(a):
                raise NotApplicable(f"{a!r} is not an arc")
        distinct = frozenset(arcs)
        if len(distinct) != len(arcs):
            raise NotApplicable("input is not an exceptional collection: an arc repeats")
        return ArcCollection(surface, distinct)

    def __len__(self) -> int:
        return len(self.arcs)

    def sorted_arcs(self) -> List[Curve]:
        return sorted(self.arcs, key=lambda a: a.key())


OrderedCollection = Tuple[Curve, ...]


def _precedence(collection: ArcCollection) -> Optional[Tuple[List[tuple], dict]]:
    """The sorted lifts of an exceptional collection and its precedence
    digraph (edges forced by one-directional pairs); None if it is not one."""
    lifts = _lifts(tuple(collection.arcs))
    if lifts is None:
        return None
    arcs, edges = [], {}
    for arc in sorted(lifts):
        if not _can_add(arcs, edges, arc, collection.surface):
            return None
    return arcs, edges


def _topological_order(arcs: Sequence[tuple], edges, s: Surface) -> OrderedCollection:
    """The arcs in the order of the acyclic digraph `edges`, least lift first."""
    indeg = [0] * len(arcs)
    for j in chain.from_iterable(edges.values()):
        indeg[j] += 1
    heap = [(arcs[i], i) for i, d in enumerate(indeg) if d == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        i = heapq.heappop(heap)[1]
        order.append(_curve(arcs[i], s))
        for j in edges[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, (arcs[j], j))
    return tuple(order)


def order_collection(collection: ArcCollection) -> Optional[OrderedCollection]:
    """Topological order of the precedence digraph, or None.

    Succeeds iff the set is an exceptional collection; ties are broken by
    the canonical arc encoding.
    """
    found = _precedence(collection)
    return None if found is None else _topological_order(*found, collection.surface)


def _ordered(arcs: Sequence[tuple], s: Surface) -> bool:
    """The lifts `arcs` are distinct and every ordered pair (i < j) passes."""
    return len(set(arcs)) == len(arcs) and all(
        _verdicts(a, b, s)[0] for i, a in enumerate(arcs) for b in arcs[i + 1 :]
    )


def is_ordered_exceptional_collection(arcs: Sequence[Curve]) -> bool:
    """Every ordered pair (i < j) must be an exceptional pair."""
    lifts = _lifts(arcs)
    return lifts is not None and _ordered(lifts, arcs[0].surface if arcs else None)


# ---------------------------------------------------------------------------
# External points and endpoint adjustment.
# ---------------------------------------------------------------------------


def _covered_points(arcs: Iterable[Curve], boundary: str) -> Set[int]:
    covered: Set[int] = set()
    for arc in arcs:
        (b1, a), (b2, b) = arc.start, arc.end
        if b1 == b2 == boundary:
            covered.update(z % arc.surface.period(boundary) for z in range(a + 1, b))
    return covered


def external_points(collection: ArcCollection) -> Tuple[Set[int], Set[int]]:
    """Marked points not strictly contained in any peripheral member."""
    s = collection.surface
    inner = set(range(s.p)) - _covered_points(collection.arcs, INNER)
    outer = set(range(s.q)) - _covered_points(collection.arcs, OUTER)
    return inner, outer


def extended_boundary_sets(collection: ArcCollection) -> Tuple[Set[int], Set[int]]:
    """Points every covering peripheral starts just before / ends just after.

    External points qualify vacuously, so these sets contain the external
    ones.
    """
    s = collection.surface
    inner_ok = set(range(s.p))
    outer_ok = set(range(s.q))
    for arc in collection.arcs:
        if isinstance(arc, InnerPeripheral):
            for z in range(arc.a + 1, arc.b):
                if z != arc.a + 1:
                    inner_ok.discard(z % s.p)
        elif isinstance(arc, OuterPeripheral):
            for z in range(arc.a + 1, arc.b):
                if z != arc.b - 1:
                    outer_ok.discard(z % s.q)
    return inner_ok, outer_ok


def adjust_endpoints(collection: ArcCollection, arc: Bridging) -> Bridging:
    """Slide a bridging arc's endpoints to the nearest external points.

    The inner endpoint moves forward, the outer endpoint backward; the arc's
    endpoints must lie in the external or extended boundary sets.
    """
    if not isinstance(arc, Bridging):
        raise NotApplicable("only bridging arcs are adjusted")
    s = collection.surface
    ext_inner, ext_outer = external_points(collection)
    bar_inner, bar_outer = extended_boundary_sets(collection)
    if arc.i % s.p not in bar_inner or arc.j % s.q not in bar_outer:
        raise NotApplicable("endpoint outside the admissible boundary sets")
    if not ext_inner or not ext_outer:
        raise NotApplicable("no external points to adjust to")
    a = arc.i
    while a % s.p not in ext_inner:
        a += 1
    b = arc.j
    while b % s.q not in ext_outer:
        b -= 1
    return Bridging(s, a, b)


# ---------------------------------------------------------------------------
# Completion to maximal collections.
# ---------------------------------------------------------------------------


def _can_add(arcs: List[tuple], edges, candidate: tuple, s: Surface) -> bool:
    """Append `candidate` to `arcs`, and its edges to the digraph `edges`,
    if it keeps the collection exceptional.

    One table look-up per member decides both orders.  The digraph `edges`
    is acyclic, so the candidate closes a cycle exactly when one of its
    successors already reaches one of its predecessors.
    """
    preds, succs = set(), []
    for idx, arc in enumerate(arcs):
        fwd, bwd = _verdicts(arc, candidate, s)
        if not (fwd or bwd):
            return False
        if fwd and not bwd:
            preds.add(idx)
        elif bwd and not fwd:
            succs.append(idx)
    stack, seen = list(succs), set(succs)
    while stack and preds:
        u = stack.pop()
        if u in preds:
            return False
        for v in edges[u] - seen:
            seen.add(v)
            stack.append(v)
    for u in preds:
        edges[u].add(len(arcs))
    edges[len(arcs)] = set(succs)
    arcs.append(candidate)
    return True


def _peripheral_pool(s: Surface) -> Iterable[tuple]:
    """The lift of every peripheral arc, in order."""
    for kind, period in ((1, s.p), (2, s.q)):
        for a in range(period):
            for span in range(2, period + 1):
                yield kind, a, a + span


def _bridging_pool(s: Surface, arcs: Iterable[tuple]) -> Iterable[tuple]:
    """Completion's bridging window, as lifts: B(i, j), i in [0, p), j within
    q of the collection's bridging arcs (within 2q of 0 if it has none),
    nearest the anchor interval first, then in order."""
    starts = [j for kind, _, j in arcs if not kind]
    lo, hi = (min(starts), max(starts)) if starts else (0, 0)
    margin = s.q if starts else 2 * s.q
    rings = [range(lo, hi + 1)] + [(lo - d, hi + d) for d in range(1, margin + 1)]
    return ((0, i, j) for js in rings for i in range(s.p) for j in js)


# Largest p + q completion admits.  Its cost grows with the pair table it
# fills, up to p^3 + q^3 + O(pq) entries (the bound above `_PAIR_CACHE`),
# each miss building its two curves.  On a 2-CPU x86-64 host with CPython
# 3.11, completing B(0, 0) from an empty table takes 0.33-0.39 s and 27 MB
# at (50, 50) and 1.1-1.3 s and 59 MB at (1, 99), the worst shape admitted;
# at (100, 100), past the guard, 2.4-3.1 s, 104 MB and 392,108 entries.
MAX_COMPLETION_RANK = 100


def complete_to_maximal(collection: ArcCollection) -> OrderedCollection:
    """Enlarge an exceptional collection to one of maximal size p + q.

    One lazy first-fit pass over every peripheral arc, then `_bridging_pool`.
    One pass is enough.  Every exceptional collection completes (Meltzer
    2004), and rejection is monotone: a pair failing both ways, or a
    precedence cycle, stays in every larger set.  So an arc missing at the
    end would be a rejected candidate, or one not in the list.  None is
    outside it: bridging arcs that pair in either order have |j - j'| <= q
    (Lemma 1); with no bridging arc in the seed, a bridging arc's verdicts
    against peripheral arcs depend only on (i, j mod q) (Lemma 2), so the
    first one kept has |j| <= q/2 and every later one |j| <= 3q/2.
    Surfaces with p + q > MAX_COMPLETION_RANK are refused before any work.
    """
    s = collection.surface
    if s.rank > MAX_COMPLETION_RANK:
        raise InvalidArguments(f"completion is guarded to p + q <= {MAX_COMPLETION_RANK}")
    found = _precedence(collection)
    if found is None:
        raise NotApplicable("input is not an exceptional collection")
    arcs, edges = found
    members = set(arcs)
    for cand in chain(_peripheral_pool(s), _bridging_pool(s, arcs)):
        if len(arcs) == s.rank:
            break
        if cand not in members and _can_add(arcs, edges, cand, s):
            members.add(cand)
    if len(arcs) != s.rank:
        raise InternalInvariantViolation(
            f"completion stalled at {len(arcs)} of {s.rank} arcs"
        )
    return _topological_order(arcs, edges, s)
