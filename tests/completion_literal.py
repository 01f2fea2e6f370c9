"""Completion by one first-fit pass, as it once was, with no table.

Kept in the tests as a differential reference for
`exceptional.complete_to_maximal`, which draws its candidates lazily, looks
each pair up once in the twist-keyed table and orders the digraph it grew.
This version builds both candidate pools in full and sorts them, decides
every (member, candidate) pair by two untabled `pair_verdict` calls on
curves (`anchor_literal`), one per order, and orders the completed set
from scratch, as `order_collection` then did: key-sorted arcs, the
precedence digraph, and Kahn's order with the smallest index first.
"""

import heapq
from typing import List, Optional

from wplarcs.core import Bridging, Curve, InnerPeripheral, OuterPeripheral, Surface
from wplarcs.errors import InternalInvariantViolation, NotApplicable
from wplarcs.exceptional import ArcCollection, OrderedCollection

from anchor_literal import pair_verdict


def _pairs_ok(alpha: Curve, beta: Curve):
    return pair_verdict(alpha, beta), pair_verdict(beta, alpha)


def _precedence_edges(arcs: List[Curve]):
    edges = {i: set() for i in range(len(arcs))}
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            fwd, bwd = _pairs_ok(arcs[i], arcs[j])
            if not (fwd or bwd):
                return None
            if fwd and not bwd:
                edges[i].add(j)
            elif bwd and not fwd:
                edges[j].add(i)
    return edges


def order_collection(collection: ArcCollection) -> Optional[OrderedCollection]:
    arcs = collection.sorted_arcs()
    for a in arcs:
        if not a.is_arc():
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


def _can_add(arcs: List[Curve], edges, candidate: Curve) -> Optional[list]:
    n = len(arcs)
    new_edges = []
    for idx, arc in enumerate(arcs):
        fwd, bwd = _pairs_ok(arc, candidate)
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


def _peripheral_pool(s: Surface) -> List[Curve]:
    pool: List[Curve] = []
    for cls, period in ((InnerPeripheral, s.p), (OuterPeripheral, s.q)):
        for a in range(period):
            pool.extend(cls(s, a, a + span) for span in range(2, period + 1))
    return sorted(pool, key=lambda c: c.key())


def _bridging_pool(s: Surface, arcs: List[Curve]) -> List[Curve]:
    starts = [a.j for a in arcs if isinstance(a, Bridging)]
    lo, hi = (min(starts), max(starts)) if starts else (0, 0)
    margin = s.q if starts else 2 * s.q
    js = range(lo - margin, hi + margin + 1)
    pool = [Bridging(s, i, j) for i in range(s.p) for j in js]
    return sorted(pool, key=lambda c: (max(lo - c.j, c.j - hi, 0), c.key()))


def complete_to_maximal(collection: ArcCollection) -> OrderedCollection:
    s = collection.surface
    base = order_collection(collection)
    if base is None:
        raise NotApplicable("input is not an exceptional collection")
    arcs = list(base)
    edges = _precedence_edges(arcs)
    for cand in _peripheral_pool(s) + _bridging_pool(s, arcs):
        if len(arcs) == s.rank:
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
    if len(arcs) != s.rank:
        raise InternalInvariantViolation(
            f"completion stalled at {len(arcs)} of {s.rank} arcs"
        )
    ordered = order_collection(ArcCollection(s, frozenset(arcs)))
    if ordered is None:
        raise InternalInvariantViolation("completed set lost exceptionality")
    return ordered
