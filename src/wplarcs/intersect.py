"""Minimal positive intersection numbers and endpoint analysis.

All counts are evaluated on lifts in the universal cover.  For an ordered
pair (c1, c2) a crossing is positive when c2 crosses c1 from the right,
i.e. det(dir c1, dir c2) > 0 at the crossing; the closed-form translate
counts below were derived from that convention and shared endpoints never
count (all inequalities strict).

The translates of c2's lift that cross c1's positively form one interval
of offsets, so a count is a subtraction: its cost is O(1) in the answer.
Each interval is written once (`_FORMULAS`) and compiled per pair of lift
kinds, on bare lifts (kind, x, y), the curves' `key()`: callers that hold
lifts count with no curve built.
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Tuple

from .core import (
    Curve,
    InnerPeripheral,
    Loop,
    OuterPeripheral,
    _CURVES,
    _SE_STEPS,
    _check_same_surface,
    _EndpointCurve,
    _Value,
)
from .errors import InternalInvariantViolation, OutOfScope


class CrossingWitness(_Value):
    """One positive crossing, realized by translating c2's lift by `offset` turns."""

    __slots__ = ("offset", "config")
    offset: int
    config: str


class EndpointRelation(_Value):
    __slots__ = ("shared_start", "shared_end", "clockwise_follows")
    shared_start: bool
    shared_end: bool
    clockwise_follows: bool


# One line per pair of curve classes that can cross ("<c1>-<c2>"): c2's
# lift translated by k turns crosses c1's positively exactly for
# lo/lo_den < k < hi/hi_den.  In inner-inner c2's translate must also start
# before c1, in outer-outer end after it.  The other four pairs never
# cross: bridging never crosses a peripheral positively in this order,
# and the two boundaries never meet.
_FORMULAS = """
bridging-bridging  c1.j-c2.j                 q  c1.i-c2.i                 p
inner-bridging     c1.a-c2.i                 p  c1.b-c2.i                 p
outer-bridging     c1.a-c2.j                 q  c1.b-c2.j                 q
inner-inner        c1.a-c2.b                 p  min(c1.b-c2.b,c1.a-c2.a)  p
outer-outer        max(c1.a-c2.a,c1.b-c2.b)  q  c1.b-c2.a                 q
"""
_KINDS = {"bridging": 0, "inner": 1, "outer": 2}
_NO_OFFSETS = lambda x1, y1, x2, y2, p, q: (0, -1, "")
_NO_COUNT = lambda x1, y1, x2, y2, p, q: 0


def _compile(formulas: str):
    """Each formula in one `eval` as an offsets form and a count form, both
    (x1, y1, x2, y2, p, q) -> (kmin, kmax, config) or the count, the field
    `c1.i` being the argument `c1_i`.  Lifts need no normalising: a turn
    of either moves kmin and kmax alike.  lo // den + 1 is the least
    k > lo/den and (hi - 1) // den the greatest k < hi/den."""
    pairs, sources = [], []
    for config, lo, lo_den, hi, hi_den in map(str.split, formulas.strip().splitlines()):
        k1, k2 = map(_KINDS.get, config.split("-"))
        c1, c2 = _CURVES[k1], _CURVES[k2]
        pairs.append((k1, k2))
        args = "c1_%s, c1_%s, c2_%s, c2_%s, p, q" % (c1._x, c1._y, c2._x, c2._y)
        lo, hi = lo.replace(".", "_"), hi.replace(".", "_")
        sources.append("lambda %s: ((%s) // %s + 1, (%s - 1) // %s, %r)"
                       % (args, lo, lo_den, hi, hi_den, config))
        sources.append("lambda %s: n if (n := (%s - 1) // %s - (%s) // %s) > 0 else 0"
                       % (args, hi, hi_den, lo, lo_den))
    rules = iter(eval("(%s,)" % ", ".join(sources)))
    offsets = dict.fromkeys(product(range(len(_CURVES)), repeat=2), _NO_OFFSETS)
    counts = dict.fromkeys(offsets, _NO_COUNT)
    for pair in pairs:
        offsets[pair], counts[pair] = next(rules), next(rules)
    return offsets, counts


# The offsets form and the count form of every kind pair's formula.
_OFFSET_RULES, _COUNT_RULES = _compile(_FORMULAS)


def _lift_pair(c1: Curve, c2: Curve) -> Tuple[tuple, tuple, int, int]:
    """(c1's lift, c2's lift, p, q) for two non-loop curves on one surface;
    OutOfScope for a loop, TypeError for a value that is not a curve."""
    if not (isinstance(c1, _EndpointCurve) and isinstance(c2, _EndpointCurve)):
        if isinstance(c1, Loop) or isinstance(c2, Loop):
            raise OutOfScope("intersection numbers involving loops are out of scope")
        raise TypeError(f"not a curve: {c2 if isinstance(c1, _EndpointCurve) else c1!r}")
    s = c1.surface
    if c2.surface is not s:
        _check_same_surface(c1, c2)
    return c1.key(), c2.key(), s.p, s.q


def _crossing_offsets(c1: Curve, c2: Curve) -> Tuple[int, int, str]:
    """(kmin, kmax, config): c2's lift translated by k turns crosses c1's
    positively exactly for kmin <= k <= kmax (none when kmax < kmin)."""
    (k1, x1, y1), (k2, x2, y2), p, q = _lift_pair(c1, c2)
    return _OFFSET_RULES[k1, k2](x1, y1, x2, y2, p, q)


def positive_int(c1: Curve, c2: Curve) -> int:
    """Minimal number of positive crossings of the ordered pair (c1, c2).

    The length of the offset interval: O(1) in the answer, no witnesses.
    """
    (k1, x1, y1), (k2, x2, y2), p, q = _lift_pair(c1, c2)
    return _COUNT_RULES[k1, k2](x1, y1, x2, y2, p, q)


# ---------------------------------------------------------------------------
# Shared endpoints and the clockwise germ order.
# ---------------------------------------------------------------------------
#
# At a shared marked point the local germs of the two arcs are linearly
# ordered clockwise.  On the inner boundary the sweep runs: peripherals
# leaving to the right (nearer endpoint first), then bridging germs (bottom
# endpoint further right first), then peripherals arriving from the left
# (wider arc first).  On the outer boundary dually.  Keys increase along the
# sweep; "beta follows alpha" means key(beta) > key(alpha).


def _germ_key(curve, role: str):
    boundary, m = getattr(curve, role)
    if boundary == "inner":
        if isinstance(curve, InnerPeripheral):
            if role == "start":
                return (0, curve.b)
            return (2, curve.a)
        return (1, -curve.j)
    if isinstance(curve, OuterPeripheral):
        if role == "end":
            return (0, -curve.a)
        return (2, -curve.b)
    return (1, curve.i)


def endpoint_relation(alpha: Curve, beta: Curve) -> EndpointRelation:
    """Shared canonical endpoints of two arcs and the clockwise order at them."""
    s = _check_same_surface(alpha, beta)
    if not (alpha.is_arc() and beta.is_arc()):
        raise OutOfScope("endpoint relations are defined for arcs")

    follows = True
    shared = {}
    for role in ("start", "end"):
        ba, ia = getattr(alpha, role)
        bb, ib = getattr(beta, role)
        shared[role] = ba == bb and (ia - ib) % s.period(ba) == 0
        if shared[role]:
            beta_aligned = beta.translated((ia - ib) // s.period(ba))
            if _germ_key(beta_aligned, role) <= _germ_key(alpha, role):
                follows = False
    return EndpointRelation(shared["start"], shared["end"], follows)


# ---------------------------------------------------------------------------
# Exceptional intersections.
# ---------------------------------------------------------------------------


def exceptional_intersection(alpha: Curve, beta: Curve) -> Optional[CrossingWitness]:
    """The crossing of (alpha, beta) surviving no simultaneous shift, if any.

    Present iff positive_int(alpha, beta) >= 1 while the pair with alpha
    shifted one step forward is disjoint; in that case the crossing is
    unique and alpha is peripheral.
    """
    (k1, x1, y1), (k2, x2, y2), p, q = _lift_pair(alpha, beta)
    kmin, kmax, config = _OFFSET_RULES[k1, k2](x1, y1, x2, y2, p, q)
    if kmax < kmin:
        return None
    dx, dy = _SE_STEPS[k1]
    if _COUNT_RULES[k1, k2](x1 + dx, y1 + dy, x2, y2, p, q):
        return None
    if kmax != kmin:
        raise InternalInvariantViolation(
            "multiple crossings survived the shift test"
        )
    if k1 == 0:
        raise InternalInvariantViolation(
            "a bridging first argument cannot carry an exceptional crossing"
        )
    return CrossingWitness(kmin, config)
