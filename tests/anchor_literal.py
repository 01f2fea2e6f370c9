"""The pair test, the pair anchoring and the braid action on curves, as they once were.

Kept in the tests as differential references for `wplarcs.exceptional` and
`wplarcs.braid`, which hold each arc as its lift (kind, x, y), anchor a
pair of lifts by integer arithmetic (`exceptional._verdicts`,
`braid._anchor`), and decide and build a table miss on the lifts, with
curves built only for returned arcs.  Here `pair_verdict` counts on curves
through the public `positive_int`, with the first curve se-shifted once;
`anchor` reads curve attributes and builds the anchored key arc by arc
(`_anchored`); `mutate_literal` is the untabled mutation on curves, through
the public `exceptional_intersection`, `endpoint_relation`, `connector` and
`translated`, and `apply_braid_literal` applies each letter to curves
through it.

`apply_letter` is one letter of `braid._apply_letter` on a tuple of
curves; it looks `braid._apply_letter` up at each call, so a test that
patches it counts these letters too.
"""

from typing import Optional, Sequence, Tuple

from wplarcs import braid
from wplarcs.braid import LEFT, RIGHT, BraidWord
from wplarcs.core import (
    Bridging,
    Curve,
    InnerPeripheral,
    OuterPeripheral,
    _check_same_surface,
    _curve,
    connector,
)
from wplarcs.errors import InternalInvariantViolation, NotExceptional
from wplarcs.intersect import endpoint_relation, exceptional_intersection, positive_int


def pair_verdict(alpha: Curve, beta: Curve) -> bool:
    """(E, F) = (phi(alpha), phi(beta)) is an exceptional pair: the counts
    are Ext^1(F, E) and, through the se-shift (Serre duality), Hom(F, E)."""
    return alpha.is_arc() and beta.is_arc() and (
        positive_int(beta, alpha) == 0 == positive_int(alpha.se_shifted(1), beta)
    )


def mutate_literal(alpha: Curve, beta: Curve, side: str) -> Curve:
    """The untabled mutation of the exceptional pair (alpha, beta) on curves,
    decided by the public `exceptional_intersection` and `endpoint_relation`
    and built from `connector` and `translated`."""
    s = _check_same_surface(alpha, beta)
    if not pair_verdict(alpha, beta):
        raise NotExceptional(f"({alpha!r}, {beta!r}) is not an exceptional pair")
    if positive_int(alpha, beta):
        # Smooth the exceptional crossing: of the two connectors joining the
        # crossing lifts' endpoints crosswise, exactly one is an arc.
        witness = exceptional_intersection(alpha, beta)
        if witness is None:
            raise InternalInvariantViolation("crossing vanished during smoothing")
        beta_k = beta.translated(witness.offset)
        g3 = connector(s, alpha.start, beta_k.end)
        g4 = connector(s, beta_k.start, alpha.end)
        if g3.is_degenerate() == g4.is_degenerate():
            raise InternalInvariantViolation("smoothing must leave exactly one arc")
        return g4 if g3.is_degenerate() else g3

    rel = endpoint_relation(alpha, beta)
    if rel.shared_start and rel.shared_end:
        # Both endpoints shared: the two-dimensional Hom case,
        # B(i, j + q) on the left, B(i + 2p, j) = B(i, j - 2q) on the right.
        if not (type(alpha) is type(beta) is Bridging and (beta.i, beta.j) == (alpha.i, alpha.j - s.q)):
            raise InternalInvariantViolation("unexpected doubly-shared pair")
        return Bridging(s, alpha.i, alpha.j + s.q if side == LEFT else alpha.j - 2 * s.q)

    if rel.shared_start or rel.shared_end:
        # Join the free endpoints, then widen that connector by one index:
        # past its end when the ends are shared, before its start otherwise.
        role, free = ("start", "end") if rel.shared_start else ("end", "start")
        (boundary, own), theirs = getattr(alpha, role), getattr(beta, role)[1]
        beta_aligned = beta.translated((own - theirs) // s.period(boundary))
        delta = connector(s, getattr(alpha, free), getattr(beta_aligned, free))
        (b0, i0), (b1, i1) = delta.start, delta.end
        if role == "end":
            return connector(s, (b0, i0), (b1, i1 + 1))
        return connector(s, (b0, i0 - 1), (b1, i1))

    # Orthogonal: mutation fixes the arcs.
    return beta if side == LEFT else alpha


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


def anchor(alpha: Curve, beta: Curve) -> Optional[Tuple[tuple, int, int]]:
    """(key, u, v): twisting the anchored pair that `key` encodes by (u, v)
    gives (alpha, beta).  None when the pair is exceptional in neither
    order, as a curve is not an arc (a loop, a degenerate or a wrapping
    curve), or by Lemma 1.

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


def anchored_pairs(s) -> list:
    """Every anchored pair the comment above `exceptional._PAIR_CACHE`
    counts on `s`: B(0, 0) first with B(x, y), 0 <= x < p, |y| <= q, or with
    a peripheral arc; a peripheral arc first with B(0, 0); or two peripheral
    arcs, the first starting at 0 and the other at 0 if on the other boundary."""
    p, q = s.p, s.q
    anchor_arc = Bridging(s, 0, 0)
    inner = [InnerPeripheral(s, a, a + d) for a in range(p) for d in range(2, p + 1)]
    outer = [OuterPeripheral(s, a, a + d) for a in range(q) for d in range(2, q + 1)]
    pairs = [(anchor_arc, Bridging(s, x, y)) for x in range(p) for y in range(-q, q + 1)]
    pairs += [(anchor_arc, b) for b in inner + outer]
    pairs += [(a, anchor_arc) for a in inner + outer]
    for first, same, other in ((inner, inner, outer), (outer, outer, inner)):
        for a in first:
            if a.a == 0:
                pairs += [(a, b) for b in same] + [(a, b) for b in other if b.a == 0]
    return pairs


def apply_letter(arcs: Sequence[Curve], idx: int, sign: int) -> tuple:
    """`braid._apply_letter` on a tuple of curves."""
    s = arcs[0].surface
    lifts = braid._apply_letter(tuple([a.key() for a in arcs]), idx, sign, s)
    return tuple([_curve(a, s) for a in lifts])


def apply_braid_literal(arcs: Sequence[Curve], w: BraidWord) -> tuple:
    """The letters of `w`, rightmost first, each through `mutate_literal`."""
    arcs = tuple(arcs)
    for idx, sign in reversed(w.letters):
        i = idx - 1
        a, b = arcs[i], arcs[i + 1]
        if sign > 0:
            pair = (mutate_literal(a, b, LEFT), a)
        else:
            pair = (b, mutate_literal(a, b, RIGHT))
        arcs = arcs[:i] + pair + arcs[i + 2 :]
    return arcs
