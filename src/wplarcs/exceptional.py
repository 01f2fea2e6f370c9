"""Exceptional pairs, ordered collections, external points and completion.

A set of arcs is an exceptional collection exactly when every unordered
pair passes the pair test in at least one direction and the precedence
digraph (edges forced by one-directional pairs) is acyclic; admissible
orders are its topological orders.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
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
    TorsionOrdinary,
    Zero,
    _check_same_surface,
    is_arc,
    phi,
)
from .errors import (
    InternalInvariantViolation,
    NotApplicable,
    OutOfScope,
)
from .homext import ext1_dim, hom_dim, is_exceptional
from .intersect import (
    endpoint_relation,
    exceptional_intersection,
    positive_int,
)

EXCEPTIONAL_CROSSING = "exceptional-crossing"
SHARED_ENDPOINT = "shared-endpoint-clockwise"
DISJOINT = "disjoint"
NOT_PAIR = "not-exceptional-pair"


@dataclass(frozen=True)
class PositionClass:
    tag: str


def is_exceptional_pair(E: SheafClass, F: SheafClass) -> bool:
    """Both objects exceptional with Hom(F, E) = 0 = Ext1(F, E)."""
    if isinstance(E, Zero) or isinstance(F, Zero):
        return False
    if isinstance(E, TorsionOrdinary) or isinstance(F, TorsionOrdinary):
        return False
    if not (is_exceptional(E) and is_exceptional(F)):
        return False
    return hom_dim(F, E) == 0 and ext1_dim(F, E) == 0


# Pair verdicts are consulted heavily by collection operations; cache them
# per (surface, arc, arc) key.
_PAIR_CACHE: Dict[tuple, bool] = {}


def _arc_pair_ok(alpha: Curve, beta: Curve) -> bool:
    key = (alpha.surface, alpha.key(), beta.key())
    hit = _PAIR_CACHE.get(key)
    if hit is None:
        hit = is_exceptional_pair(phi(alpha), phi(beta))
        _PAIR_CACHE[key] = hit
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


@dataclass(frozen=True)
class ArcCollection:
    """A finite set of distinct arcs over one surface."""

    surface: Surface
    arcs: FrozenSet[Curve]

    @staticmethod
    def of(surface: Surface, arcs: Iterable[Curve]) -> "ArcCollection":
        arcs = frozenset(arcs)
        for a in arcs:
            if a.surface != surface:
                raise NotApplicable("arc on the wrong surface")
            if not is_arc(a):
                raise NotApplicable(f"{a!r} is not an arc")
        return ArcCollection(surface, arcs)

    def __len__(self) -> int:
        return len(self.arcs)

    def sorted_arcs(self) -> List[Curve]:
        return sorted(self.arcs, key=lambda a: a.key())


OrderedCollection = Tuple[Curve, ...]


def _precedence_edges(arcs: Sequence[Curve]):
    """Forced order edges; None if some pair fails in both directions."""
    edges = {i: set() for i in range(len(arcs))}
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            fwd = _arc_pair_ok(arcs[i], arcs[j])
            bwd = _arc_pair_ok(arcs[j], arcs[i])
            if not (fwd or bwd):
                return None
            if fwd and not bwd:
                edges[i].add(j)
            elif bwd and not fwd:
                edges[j].add(i)
    return edges


def order_collection(collection: ArcCollection) -> Optional[OrderedCollection]:
    """Topological order of the precedence digraph, or None.

    Succeeds iff the set is an exceptional collection; ties are broken by
    the canonical arc encoding.
    """
    arcs = collection.sorted_arcs()
    for a in arcs:
        if not is_exceptional(phi(a)):
            return None
    edges = _precedence_edges(arcs)
    if edges is None:
        return None
    indeg = {i: 0 for i in range(len(arcs))}
    for i, outs in edges.items():
        for j in outs:
            indeg[j] += 1
    heap = [i for i, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    order: List[int] = []
    while heap:
        i = heapq.heappop(heap)
        order.append(i)
        for j in edges[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, j)
    if len(order) != len(arcs):
        return None  # precedence cycle
    return tuple(arcs[i] for i in order)


def is_ordered_exceptional_collection(arcs: Sequence[Curve]) -> bool:
    """Every ordered pair (i < j) must be an exceptional pair."""
    if len(set(arcs)) != len(arcs):
        return False
    for a in arcs:
        if not is_arc(a):
            return False
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            if not _arc_pair_ok(arcs[i], arcs[j]):
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
    """New edge rows if `candidate` keeps the collection exceptional, else None."""
    new_edges = []
    for idx, arc in enumerate(arcs):
        fwd = _arc_pair_ok(arc, candidate)
        bwd = _arc_pair_ok(candidate, arc)
        if not (fwd or bwd):
            return None
        if fwd and not bwd:
            new_edges.append((idx, len(arcs)))
        elif bwd and not fwd:
            new_edges.append((len(arcs), idx))
    # Cycle check on the extended digraph.
    adj = {i: set(v) for i, v in edges.items()}
    adj[len(arcs)] = set()
    for u, v in new_edges:
        adj[u].add(v)
    seen: Dict[int, int] = {}

    def dfs(u: int) -> bool:
        seen[u] = 1
        for v in adj[u]:
            state = seen.get(v)
            if state == 1:
                return False
            if state is None and not dfs(v):
                return False
        seen[u] = 2
        return True

    for node in adj:
        if seen.get(node) is None and not dfs(node):
            return None
    return new_edges


def _peripheral_pool(s: Surface) -> List[Curve]:
    pool: List[Curve] = []
    for cls, period in ((InnerPeripheral, s.p), (OuterPeripheral, s.q)):
        for a in range(period):
            pool.extend(cls(s, a, a + span) for span in range(2, period + 1))
    return sorted(pool, key=lambda c: c.key())


def _bridging_pool(s: Surface, arcs: Iterable[Curve], widen: int) -> List[Curve]:
    starts = [0]
    for arc in arcs:
        if isinstance(arc, Bridging):
            starts.append(arc.j)
    lo = min(starts) - (widen + 1) * s.q
    hi = max(starts) + (widen + 1) * s.q
    pool = [Bridging(s, i, j) for i in range(s.p) for j in range(lo, hi + 1)]
    return sorted(pool, key=lambda c: c.key())


def _staircase_candidates(s: Surface, collection: List[Curve]) -> List[Curve]:
    """Bridging arcs through external points, in staircase order.

    Mirrors the constructive completion: peripheral arcs fix the external
    points and the bridging layer is a fan through them.
    """
    inner_ext, outer_ext = external_points(
        ArcCollection(s, frozenset(collection))
    )
    if not inner_ext or not outer_ext:
        return []
    inner = sorted(inner_ext)
    outer = sorted(outer_ext)
    out: List[Curve] = []
    for c in inner + [inner[0] + s.p]:
        for d in outer + [outer[0] + s.q]:
            out.append(Bridging(s, c, d))
    seen = set()
    unique = []
    for arc in out:
        if arc not in seen:
            seen.add(arc)
            unique.append(arc)
    return unique


def complete_to_maximal(collection: ArcCollection) -> OrderedCollection:
    """Enlarge an exceptional collection to one of maximal size p + q.

    Greedy augmentation: peripheral candidates first, then bridging arcs
    through external points, then a widening window of bridging arcs.  Any
    compatible addition keeps the collection enlargeable, so first-fit
    suffices.
    """
    s = collection.surface
    base = order_collection(collection)
    if base is None:
        raise NotApplicable("input is not an exceptional collection")
    target = s.rank
    arcs = list(base)
    edges = _precedence_edges(arcs)

    def try_pool(pool: Iterable[Curve]) -> bool:
        nonlocal edges
        added = False
        for cand in pool:
            if len(arcs) >= target:
                break
            if cand in arcs:
                continue
            new_edges = _can_add(arcs, edges, cand)
            if new_edges is None:
                continue
            edges[len(arcs)] = set()
            for u, v in new_edges:
                edges[u].add(v)
            arcs.append(cand)
            added = True
        return added

    for widen in range(4):
        if len(arcs) >= target:
            break
        try_pool(_peripheral_pool(s))
        if len(arcs) >= target:
            break
        try_pool(_staircase_candidates(s, arcs))
        if len(arcs) >= target:
            break
        try_pool(_bridging_pool(s, arcs, widen))

    if len(arcs) != target:
        raise InternalInvariantViolation(
            f"completion stalled at {len(arcs)} of {target} arcs"
        )
    ordered = order_collection(ArcCollection(s, frozenset(arcs)))
    if ordered is None:
        raise InternalInvariantViolation("completed set lost exceptionality")
    return ordered
