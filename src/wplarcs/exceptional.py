"""Exceptional pairs, ordered collections, external points and completion.

Collections are decided on the arcs alone: for arcs alpha, beta the pair
(phi(alpha), phi(beta)) is exceptional iff Int+(beta, alpha) = 0 (Ext^1)
and Int+(alpha se-shifted once, beta) = 0 (Hom, by Serre duality).
A set of arcs is an exceptional collection exactly when every unordered
pair passes the pair test in at least one direction and the precedence
digraph (edges forced by one-directional pairs) is acyclic; admissible
orders are its topological orders; one table look-up gives a pair's
verdicts both ways.  Completion is one lazy first-fit pass over every
peripheral arc and a bridging window anchored at the collection's
bridging arcs, so its cost does not grow with their winding.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .core import (
    INNER,
    OUTER,
    Bridging,
    Curve,
    InnerPeripheral,
    OuterPeripheral,
    SheafClass,
    Surface,
    TorsionOrdinary,
    Zero,
    _check_same_surface,
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
    if isinstance(E, TorsionOrdinary) or isinstance(F, TorsionOrdinary):
        return False
    return _pair_verdict(phi_inv(E), phi_inv(F))


# Pair verdicts are tabled up to twist.  Twisting by a line bundle is an
# autoequivalence of coh-X(p, q) (Geigle-Lenzing 1987).  On arcs it moves
# every inner index by u and every outer one by v: B(i, j) -> B(i + u, j + v),
# IP(a, b) -> IP(a + u, b + u), OP(a, b) -> OP(a + v, b + v); (u, v) = (p, q)
# is the deck translation, the relation p*x1 = q*x2.  So the pair test, and
# mutation (`braid._MUTATE_CACHE`), depend on a pair only up to a twist, and
# the tables key on the pair twisted to its anchor (`_anchor`), a pair entry
# holding both orders' verdicts.  Bridging pairs more than q apart fail both
# ways by Lemma 1 of `complete_to_maximal`; every other pair anchors to one of
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


def _anchored(arc: Curve, u: int, v: int, p: int, q: int) -> Optional[tuple]:
    """(kind, x, y) of `arc` twisted by (-u, -v), x normalised to [0, period);
    None, before any twist, when `arc` is not an arc."""
    t = type(arc)
    if t is Bridging:
        k = (arc.i - u) // p
        return 0, arc.i - u - k * p, arc.j - v - k * q
    if t is InnerPeripheral:
        kind, x, period = 1, arc.a - u, p
    elif t is OuterPeripheral:
        kind, x, period = 2, arc.a - v, q
    else:
        return None
    span = arc.b - arc.a
    if not 2 <= span <= period:
        return None
    x %= period
    return kind, x, x + span


def _anchor(alpha: Curve, beta: Curve) -> Optional[Tuple[tuple, int, int]]:
    """(key, u, v): twisting the anchored pair that `key` encodes by (u, v)
    gives (alpha, beta).  None when the pair is exceptional in neither
    order, as a curve is not an arc (a loop, a degenerate or a wrapping
    curve), or by Lemma 1; such pairs never reach a table.

    The anchor is the pair's first bridging arc, moved to B(0, 0); with
    none, each peripheral start moves to 0.
    """
    s, t = alpha.surface, beta.surface
    p, q = s.p, s.q
    if t.p != p or t.q != q:
        _check_same_surface(alpha, beta)
    if type(alpha) is Bridging:
        u, v = alpha.i, alpha.j
        b = _anchored(beta, u, v, p, q)
        if b is None or b[0] == 0 and not -q <= b[2] <= q:
            return None
        return (p, q, 0, 0, 0) + b, u, v
    if type(beta) is Bridging:
        u, v = beta.i, beta.j
        a = _anchored(alpha, u, v, p, q)
        return None if a is None else ((p, q) + a + (0, 0, 0), u, v)
    u = v = 0
    for arc in (beta, alpha):  # alpha's start wins on a shared boundary
        if type(arc) is InnerPeripheral:
            u = arc.a
        elif type(arc) is OuterPeripheral:
            v = arc.a
    a = _anchored(alpha, u, v, p, q)
    b = _anchored(beta, u, v, p, q)
    if a is None or b is None:
        return None
    return (p, q) + a + b, u, v


def _arc_pair_verdicts(alpha: Curve, beta: Curve) -> Tuple[bool, bool]:
    """`_pair_verdict` both ways, (alpha, beta) first, tabled up to twist."""
    anchored = _anchor(alpha, beta)
    if anchored is None:
        return False, False
    key = anchored[0]
    hit = _PAIR_CACHE.get(key)
    if hit is None:
        hit = _PAIR_CACHE[key] = _pair_verdict(alpha, beta), _pair_verdict(beta, alpha)
    return hit


def pair_position(alpha: Curve, beta: Curve) -> PositionClass:
    """Mutual position of two arcs, matching the exceptional-pair trichotomy."""
    _check_same_surface(alpha, beta)
    if not (alpha.is_arc() and beta.is_arc()):
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


def _precedence_edges(arcs: Sequence[Curve]):
    """Forced order edges; None on a non-arc or a pair failing both ways."""
    for a in arcs:
        if not a.is_arc():
            return None
    edges = {i: set() for i in range(len(arcs))}
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            fwd, bwd = _arc_pair_verdicts(arcs[i], arcs[j])
            if not (fwd or bwd):
                return None
            if fwd and not bwd:
                edges[i].add(j)
            elif bwd and not fwd:
                edges[j].add(i)
    return edges


def _topological_order(arcs: Sequence[Curve], edges) -> Optional[OrderedCollection]:
    """Order of the digraph `edges` on `arcs`, least `key()` first; None on a cycle."""
    indeg = [0] * len(arcs)
    for outs in edges.values():
        for j in outs:
            indeg[j] += 1
    heap = [(arcs[i].key(), i) for i, d in enumerate(indeg) if d == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        i = heapq.heappop(heap)[1]
        order.append(arcs[i])
        for j in edges[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, (arcs[j].key(), j))
    return tuple(order) if len(order) == len(arcs) else None


def order_collection(collection: ArcCollection) -> Optional[OrderedCollection]:
    """Topological order of the precedence digraph, or None.

    Succeeds iff the set is an exceptional collection; ties are broken by
    the canonical arc encoding.
    """
    arcs = collection.sorted_arcs()
    edges = _precedence_edges(arcs)
    return None if edges is None else _topological_order(arcs, edges)


def is_ordered_exceptional_collection(arcs: Sequence[Curve]) -> bool:
    """Every ordered pair (i < j) must be an exceptional pair."""
    if len(set(arcs)) != len(arcs):
        return False
    for a in arcs:
        if not is_arc(a):
            return False
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            if not _arc_pair_verdicts(arcs[i], arcs[j])[0]:
                return False
    return True


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


def _can_add(arcs: List[Curve], edges, candidate: Curve) -> Optional[list]:
    """New edge rows if `candidate` keeps the collection exceptional, else None.

    One table look-up per member decides both orders.  The digraph `edges`
    is acyclic, so the candidate closes a cycle exactly when one of its
    successors already reaches one of its predecessors.
    """
    n = len(arcs)
    new_edges = []
    for idx, arc in enumerate(arcs):
        fwd, bwd = _arc_pair_verdicts(arc, candidate)
        if not (fwd or bwd):
            return None
        if fwd and not bwd:
            new_edges.append((idx, n))
        elif bwd and not fwd:
            new_edges.append((n, idx))
    preds = {u for u, v in new_edges if v == n}
    stack = [v for u, v in new_edges if u == n]
    seen = set(stack)
    while stack and preds:
        u = stack.pop()
        if u in preds:
            return None
        for v in edges[u] - seen:
            seen.add(v)
            stack.append(v)
    return new_edges


def _peripheral_pool(s: Surface) -> Iterable[Curve]:
    """Every peripheral arc, in `key()` order."""
    for cls, period in ((InnerPeripheral, s.p), (OuterPeripheral, s.q)):
        for a in range(period):
            for span in range(2, period + 1):
                yield cls(s, a, a + span)


def _bridging_pool(s: Surface, arcs: Iterable[Curve]) -> Iterable[Curve]:
    """Completion's bridging window: B(i, j), i in [0, p), j within q of the
    collection's bridging arcs (within 2q of 0 if it has none), nearest the
    anchor interval first, then in `key()` order."""
    starts = [a.j for a in arcs if isinstance(a, Bridging)]
    lo, hi = (min(starts), max(starts)) if starts else (0, 0)
    margin = s.q if starts else 2 * s.q
    rings = [range(lo, hi + 1)] + [(lo - d, hi + d) for d in range(1, margin + 1)]
    return (Bridging(s, i, j) for js in rings for i in range(s.p) for j in js)


# Largest p + q completion admits.  Its cost grows with the pair table it
# fills, up to p^3 + q^3 + O(pq) entries (the bound above `_PAIR_CACHE`).
# On a 2-CPU x86-64 host with CPython 3.11, completing B(0, 0) from an
# empty table takes 0.39 s and 26 MB at (50, 50) and 1.2 s and 65 MB at
# (1, 99), the worst shape admitted; at (100, 100) it takes 2.9 s, 120 MB
# and 392,108 entries, and through the CLI (150, 150) takes 9.3 s.
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
    arcs = collection.sorted_arcs()
    edges = _precedence_edges(arcs)
    if edges is None or _topological_order(arcs, edges) is None:
        raise NotApplicable("input is not an exceptional collection")
    members = set(arcs)
    for cand in chain(_peripheral_pool(s), _bridging_pool(s, arcs)):
        if len(arcs) == s.rank:
            break
        if cand in members:
            continue
        new_edges = _can_add(arcs, edges, cand)
        if new_edges is None:
            continue
        edges[len(arcs)] = set()
        for u, v in new_edges:
            edges[u].add(v)
        arcs.append(cand)
        members.add(cand)
    if len(arcs) != s.rank:
        raise InternalInvariantViolation(
            f"completion stalled at {len(arcs)} of {s.rank} arcs"
        )
    return _topological_order(arcs, edges)
