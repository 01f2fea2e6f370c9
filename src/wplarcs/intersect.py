"""Minimal positive intersection numbers and endpoint analysis.

All counts are evaluated on lifts in the universal cover.  For an ordered
pair (c1, c2) a crossing is positive when c2 crosses c1 from the right,
i.e. det(dir c1, dir c2) > 0 at the crossing; the closed-form translate
counts below were derived from that convention and shared endpoints never
count (all inequalities strict).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .core import (
    Bridging,
    Curve,
    InnerPeripheral,
    Loop,
    OuterPeripheral,
    _check_same_surface,
)
from .errors import InternalInvariantViolation, OutOfScope


@dataclass(frozen=True)
class CrossingWitness:
    """One positive crossing, realized by translating c2's lift by `offset` turns."""

    offset: int
    config: str


@dataclass(frozen=True)
class EndpointRelation:
    shared_start: bool
    shared_end: bool
    clockwise_follows: bool


def _k_range(lo_num: int, lo_den: int, hi_num: int, hi_den: int) -> range:
    """Integers k with lo_num/lo_den < k < hi_num/hi_den (positive denominators)."""
    kmin = lo_num // lo_den + 1
    kmax = -((-hi_num) // hi_den) - 1
    return range(kmin, kmax + 1)


def positive_crossings(c1: Curve, c2: Curve) -> Tuple[CrossingWitness, ...]:
    """Witnesses of the minimal positive crossings of the ordered pair (c1, c2)."""
    if isinstance(c1, Loop) or isinstance(c2, Loop):
        raise OutOfScope("intersection numbers involving loops are out of scope")
    s = _check_same_surface(c1, c2)
    p, q = s.p, s.q

    if isinstance(c1, Bridging) and isinstance(c2, Bridging):
        ks = _k_range(c1.j - c2.j, q, c1.i - c2.i, p)
        return tuple(CrossingWitness(k, "bridging-bridging") for k in ks)

    if isinstance(c1, InnerPeripheral) and isinstance(c2, Bridging):
        ks = _k_range(c1.a - c2.i, p, c1.b - c2.i, p)
        return tuple(CrossingWitness(k, "inner-bridging") for k in ks)

    if isinstance(c1, OuterPeripheral) and isinstance(c2, Bridging):
        ks = _k_range(c1.a - c2.j, q, c1.b - c2.j, q)
        return tuple(CrossingWitness(k, "outer-bridging") for k in ks)

    if isinstance(c1, InnerPeripheral) and isinstance(c2, InnerPeripheral):
        ks = [
            k
            for k in _k_range(c1.a - c2.b, p, c1.b - c2.b, p)
            if c2.a + k * p < c1.a
        ]
        return tuple(CrossingWitness(k, "inner-inner") for k in ks)

    if isinstance(c1, OuterPeripheral) and isinstance(c2, OuterPeripheral):
        ks = [
            k
            for k in _k_range(c1.a - c2.a, q, c1.b - c2.a, q)
            if c2.b + k * q > c1.b
        ]
        return tuple(CrossingWitness(k, "outer-outer") for k in ks)

    # Bridging never crosses a peripheral positively in this order, and the
    # two boundaries never meet.
    return ()


def positive_int(c1: Curve, c2: Curve) -> int:
    """Minimal number of positive crossings of the ordered pair (c1, c2)."""
    return len(positive_crossings(c1, c2))


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
    witnesses = positive_crossings(alpha, beta)
    if not witnesses:
        return None
    if positive_int(alpha.se_shifted(1), beta) != 0:
        return None
    if len(witnesses) != 1:
        raise InternalInvariantViolation(
            "multiple crossings survived the shift test"
        )
    if isinstance(alpha, Bridging):
        raise InternalInvariantViolation(
            "a bridging first argument cannot carry an exceptional crossing"
        )
    return witnesses[0]
