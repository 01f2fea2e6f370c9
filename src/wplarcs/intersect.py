"""Minimal positive intersection numbers and endpoint analysis.

All counts are evaluated on lifts in the universal cover.  For an ordered
pair (c1, c2) a crossing is positive when c2 crosses c1 from the right,
i.e. det(dir c1, dir c2) > 0 at the crossing; the closed-form translate
counts below were derived from that convention and shared endpoints never
count (all inequalities strict).

The translates of c2's lift that cross c1's positively form one interval
of offsets, so a count is a subtraction: its cost is O(1) in the answer.
Only :func:`positive_crossings` builds a witness per crossing.
"""

from __future__ import annotations

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


# (type(c1), type(c2)) -> rule(c1, c2, p, q) giving `_crossing_offsets`.
# Bridging never crosses a peripheral positively in this order, and the two
# boundaries never meet.
_NO_OFFSETS = lambda c1, c2, p, q: (0, -1, "")
_OFFSET_RULES = {
    (Bridging, Bridging): lambda c1, c2, p, q: (
        (c1.j - c2.j) // q + 1, (c1.i - c2.i - 1) // p, "bridging-bridging"
    ),
    (InnerPeripheral, Bridging): lambda c1, c2, p, q: (
        (c1.a - c2.i) // p + 1, (c1.b - c2.i - 1) // p, "inner-bridging"
    ),
    (OuterPeripheral, Bridging): lambda c1, c2, p, q: (
        (c1.a - c2.j) // q + 1, (c1.b - c2.j - 1) // q, "outer-bridging"
    ),
    # c2's translate must also start before c1: c2.a + k*p < c1.a.
    (InnerPeripheral, InnerPeripheral): lambda c1, c2, p, q: (
        (c1.a - c2.b) // p + 1, (min(c1.b - c2.b, c1.a - c2.a) - 1) // p, "inner-inner"
    ),
    # c2's translate must also end after c1: c2.b + k*q > c1.b.
    (OuterPeripheral, OuterPeripheral): lambda c1, c2, p, q: (
        max(c1.a - c2.a, c1.b - c2.b) // q + 1, (c1.b - c2.a - 1) // q, "outer-outer"
    ),
    (Bridging, InnerPeripheral): _NO_OFFSETS,
    (Bridging, OuterPeripheral): _NO_OFFSETS,
    (InnerPeripheral, OuterPeripheral): _NO_OFFSETS,
    (OuterPeripheral, InnerPeripheral): _NO_OFFSETS,
}


def _crossing_offsets(c1: Curve, c2: Curve) -> Tuple[int, int, str]:
    """(kmin, kmax, config): c2's lift translated by k turns crosses c1's
    positively exactly for kmin <= k <= kmax (none when kmax < kmin).

    Each bound is the nearest integer strictly inside a rational bound:
    num // den + 1 is the least k > num/den and (num - 1) // den the
    greatest k < num/den.
    """
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


def positive_crossings(c1: Curve, c2: Curve) -> Tuple[CrossingWitness, ...]:
    """Witnesses of the minimal positive crossings of the ordered pair (c1, c2).

    The only function here that builds one witness per crossing, so its
    cost grows with the answer; count with :func:`positive_int`.
    """
    kmin, kmax, config = _crossing_offsets(c1, c2)
    return tuple(CrossingWitness(k, config) for k in range(kmin, kmax + 1))


def positive_int(c1: Curve, c2: Curve) -> int:
    """Minimal number of positive crossings of the ordered pair (c1, c2).

    The length of the offset interval: O(1) in the answer, no witnesses.
    """
    kmin, kmax, _ = _crossing_offsets(c1, c2)
    return kmax - kmin + 1 if kmax >= kmin else 0


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
    if positive_int(alpha.se_shifted(1), beta) != 0:
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
