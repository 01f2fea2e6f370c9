"""Minimal positive intersection numbers and endpoint analysis.

All counts are evaluated on lifts in the universal cover.  For an ordered
pair (c1, c2) a crossing is positive when c2 crosses c1 from the right,
i.e. det(dir c1, dir c2) > 0 at the crossing; the closed-form translate
counts below were derived from that convention and shared endpoints never
count (all inequalities strict).

The translates of c2's lift that cross c1's positively form one interval
of offsets, so a count is a subtraction: its cost is O(1) in the answer.
Each interval is written once (`_FORMULAS`) and compiled over curves and
over bare lifts, so a count whose lifts are known builds no curve.
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Tuple

from .core import (
    Bridging,
    Curve,
    InnerPeripheral,
    Loop,
    OuterPeripheral,
    _check_same_surface,
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
_KINDS = {"bridging": Bridging, "inner": InnerPeripheral, "outer": OuterPeripheral}
_NO_OFFSETS = lambda c1, c2, p, q: (0, -1, "")
_NO_COUNT = lambda x1, y1, x2, y2, p, q: 0


def _compile(formulas: str):
    """Each formula in one `eval` as a curve form (c1, c2, p, q) -> (kmin,
    kmax, config) and a lift form (x1, y1, x2, y2, p, q) -> count, whose
    field `c1.i` is the argument `c1_i`.  Lifts need no normalising: a turn
    of either moves kmin and kmax alike.  lo // den + 1 is the least
    k > lo/den and (hi - 1) // den the greatest k < hi/den."""
    pairs, sources = [], []
    for config, lo, lo_den, hi, hi_den in map(str.split, formulas.strip().splitlines()):
        k1, k2 = map(_KINDS.get, config.split("-"))
        pairs.append((k1, k2))
        sources.append("lambda c1, c2, p, q: ((%s) // %s + 1, (%s - 1) // %s, %r)"
                       % (lo, lo_den, hi, hi_den, config))
        count = "(%s - 1) // %s - (%s) // %s" % (hi, hi_den, lo, lo_den)
        sources.append("lambda c1_%s, c1_%s, c2_%s, c2_%s, p, q: n if (n := %s) > 0 else 0"
                       % (k1._x, k1._y, k2._x, k2._y, count.replace(".", "_")))
    rules = iter(eval("(%s,)" % ", ".join(sources)))
    offsets = dict.fromkeys(product(_KINDS.values(), repeat=2), _NO_OFFSETS)
    counts = dict.fromkeys(offsets, _NO_COUNT)
    for pair in pairs:
        offsets[pair], counts[pair] = next(rules), next(rules)
    return offsets, counts


# The curve form and the lift form of every class pair's formula.
_OFFSET_RULES, _COUNT_RULES = _compile(_FORMULAS)


def _crossing_offsets(c1: Curve, c2: Curve) -> Tuple[int, int, str]:
    """(kmin, kmax, config): c2's lift translated by k turns crosses c1's
    positively exactly for kmin <= k <= kmax (none when kmax < kmin)."""
    try:
        rule = _OFFSET_RULES[type(c1), type(c2)]
    except KeyError:
        if isinstance(c1, Loop) or isinstance(c2, Loop):
            raise OutOfScope(
                "intersection numbers involving loops are out of scope"
            ) from None
        rule = _NO_OFFSETS
    s = c1.surface
    if c2.surface is not s:
        _check_same_surface(c1, c2)
    return rule(c1, c2, s.p, s.q)


def positive_int(c1: Curve, c2: Curve) -> int:
    """Minimal number of positive crossings of the ordered pair (c1, c2).

    The length of the offset interval: O(1) in the answer, no witnesses.
    """
    kmin, kmax, _ = _crossing_offsets(c1, c2)
    return kmax - kmin + 1 if kmax >= kmin else 0


def _shifted_count(c1: Curve, c2: Curve) -> int:
    """`positive_int(c1.se_shifted(1), c2)` on c1's lift moved by its class's
    se-shift steps, for a pair `_crossing_offsets` accepts: no curve built."""
    k1, s = type(c1), c1.surface
    x1, y1 = c1._indices(c1)
    count = _COUNT_RULES.get((k1, type(c2)), _NO_COUNT)
    return count(x1 + k1._x_step, y1 + k1._y_step, *c2._indices(c2), s.p, s.q)


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
            beta_aligned = beta.aligned(role, ia)
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
    kmin, kmax, config = _crossing_offsets(alpha, beta)
    if kmax < kmin:
        return None
    if _shifted_count(alpha, beta) != 0:
        return None
    if kmax != kmin:
        raise InternalInvariantViolation(
            "multiple crossings survived the shift test"
        )
    if isinstance(alpha, Bridging):
        raise InternalInvariantViolation(
            "a bridging first argument cannot carry an exceptional crossing"
        )
    return CrossingWitness(kmin, config)
