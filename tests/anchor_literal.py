"""The pair anchoring and the braid action on curves, as they once were.

Kept in the tests as differential references for `wplarcs.exceptional` and
`wplarcs.braid`, which hold each arc as its lift (kind, x, y), anchor a
pair of lifts by integer arithmetic (`exceptional._verdicts`,
`braid._anchor`) and build curves only for returned arcs and on a table
miss.  Here `anchor` reads
curve attributes and builds the anchored key arc by arc (`_anchored`), and
`apply_braid_literal` applies each letter to curves through the untabled
`braid._mutate_pair`.

`apply_letter` is one letter of `braid._apply_letter` on a tuple of
curves; it looks `braid._apply_letter` up at each call, so a test that
patches it counts these letters too.
"""

from typing import Optional, Sequence, Tuple

from wplarcs import braid
from wplarcs.braid import LEFT, RIGHT, BraidWord, _mutate_pair
from wplarcs.core import (
    Bridging,
    Curve,
    InnerPeripheral,
    OuterPeripheral,
    _check_same_surface,
)
from wplarcs.exceptional import _curve


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


def apply_letter(arcs: Sequence[Curve], idx: int, sign: int) -> tuple:
    """`braid._apply_letter` on a tuple of curves."""
    s = arcs[0].surface
    lifts = braid._apply_letter(tuple([a.key() for a in arcs]), idx, sign, s)
    return tuple([_curve(a, s) for a in lifts])


def apply_braid_literal(arcs: Sequence[Curve], w: BraidWord) -> tuple:
    """The letters of `w`, rightmost first, each through `_mutate_pair`."""
    arcs = tuple(arcs)
    for idx, sign in reversed(w.letters):
        i = idx - 1
        a, b = arcs[i], arcs[i + 1]
        if sign > 0:
            pair = (_mutate_pair(a, b, LEFT), a)
        else:
            pair = (b, _mutate_pair(a, b, RIGHT))
        arcs = arcs[:i] + pair + arcs[i + 2 :]
    return arcs
