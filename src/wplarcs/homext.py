"""Morphism-space dimensions and the structure of monos/epis.

Extension dimensions are positive intersection numbers of the associated
curves; morphism dimensions come from the Serre-dual intersection, the
same count the exceptional-pair test reads.  Each entry point checks its
inputs once and reads each sheaf's lift (kind, x, y) from `core._LIFTS`;
Hom and Ext are counted on the lifts (`intersect._COUNT_RULES`) with no
curve built, and only the kernel, cokernel and factor build curves.
A purely algebraic oracle based on the graded-ring component dimensions
and uniserial tube combinatorics cross-validates every geometric count.
"""

from __future__ import annotations

from typing import Tuple

from .core import (
    INNER,
    OUTER,
    Bridging,
    LineBundle,
    SheafClass,
    Surface,
    TorsionInf,
    TorsionOrdinary,
    TorsionZero,
    Zero,
    _LIFTS,
    _SE_STEPS,
    _check_same_surface,
    _coeff_x1,
    _coeff_x2,
    _curve,
    _set,
    _Value,
    connector,
    dim_S,
    is_arc,
    phi_ext,
    phi_inv,
)
from .errors import InternalInvariantViolation, NotApplicable, OutOfScope
from .intersect import _COUNT_RULES, _crossing_offsets, positive_int

MONO = "mono"
EPI = "epi"
NO_MAP = "no-nonzero-map"
MIXED = "mixed"


class MapClass(_Value):
    """Shape of the nonzero morphisms X -> Y, if any."""

    __slots__ = ("tag", "same_object")
    tag: str
    same_object: bool

    def __init__(self, tag: str, same_object: bool = False) -> None:
        _set(self, "tag", tag)
        _set(self, "same_object", same_object)


_NONE, _MONO, _SELF = MapClass(NO_MAP), MapClass(MONO), MapClass(MONO, True)
_EPI, _MIXED = MapClass(EPI), MapClass(MIXED)


def _in_scope(X: SheafClass, Y: SheafClass) -> Surface:
    """The entry points' one input check: X and Y in the exceptional part, on
    one surface (returned); types `_LIFTS` does not key take the full test."""
    if type(X) not in _LIFTS or type(Y) not in _LIFTS:
        for Z in (X, Y):
            if isinstance(Z, (TorsionOrdinary, Zero)):
                raise OutOfScope(f"{Z!r} is outside the exceptional part")
    s = X.surface
    if Y.surface is not s:
        _check_same_surface(X, Y)
    return s


def _sheaf_lift(X: SheafClass):
    """X's lift (kind, x, y): from `_LIFTS`, or read off `phi_inv(X)` for a
    type it does not key."""
    rule = _LIFTS.get(type(X))
    return phi_inv(X).key() if rule is None else rule(X)


def ext1_dim(X: SheafClass, Y: SheafClass) -> int:
    """dim Ext^1(X, Y) as the positive intersection of the associated curves."""
    s = _in_scope(X, Y)
    k1, x1, y1 = _sheaf_lift(X)
    k2, x2, y2 = _sheaf_lift(Y)
    return _COUNT_RULES[k1, k2](x1, y1, x2, y2, s.p, s.q)


def hom_dim(X: SheafClass, Y: SheafClass) -> int:
    """dim Hom(X, Y) = Int+(phi^-1(Y) se-shifted once, phi^-1(X)) by Serre duality."""
    s = _in_scope(X, Y)
    k2, x2, y2 = _sheaf_lift(Y)
    k1, x1, y1 = _sheaf_lift(X)
    dx, dy = _SE_STEPS[k2]
    return _COUNT_RULES[k2, k1](x2 + dx, y2 + dy, x1, y1, s.p, s.q)


def _tube_hom_count(top_x: int, len_x: int, top_y: int, len_y: int, rank: int) -> int:
    # Maps factor as quotient-of-X onto submodule-of-Y; a length-t composite
    # exists iff top_x = top_y - len_y + t mod rank with 1 <= t <= min length.
    need = (top_x - top_y + len_y) % rank
    t0 = need if need != 0 else rank
    return max(0, (min(len_x, len_y) - t0) // rank + 1)


def _line_to_tube_count(coeff: int, top: int, length: int, rank: int) -> int:
    # Number of k with top - length < coeff + k*rank <= top.
    lo, hi = top - length, top
    kmin = (lo - coeff) // rank + 1         # smallest k with coeff + k*rank > lo
    kmax = (hi - coeff) // rank             # largest k with coeff + k*rank <= hi
    return max(0, kmax - kmin + 1)


def hom_dim_oracle(X: SheafClass, Y: SheafClass) -> int:
    """Algebraic Hom dimension, independent of the curve model.

    Defined for line-bundle pairs, same-tube pairs, line bundle to torsion
    and torsion to line bundle; raises NotApplicable otherwise.
    """
    s = _in_scope(X, Y)
    if isinstance(X, LineBundle) and isinstance(Y, LineBundle):
        return dim_S(Y.x - X.x)
    if isinstance(X, (TorsionInf, TorsionZero)) and isinstance(Y, LineBundle):
        return 0
    if isinstance(X, TorsionInf) and isinstance(Y, TorsionInf):
        return _tube_hom_count(X.i, X.j, Y.i, Y.j, s.p)
    if isinstance(X, TorsionZero) and isinstance(Y, TorsionZero):
        return _tube_hom_count(X.i, X.j, Y.i, Y.j, s.q)
    if isinstance(X, LineBundle) and isinstance(Y, TorsionInf):
        return _line_to_tube_count(_coeff_x1(X.x), Y.i, Y.j, s.p)
    if isinstance(X, LineBundle) and isinstance(Y, TorsionZero):
        return _line_to_tube_count(_coeff_x2(X.x), Y.i, Y.j, s.q)
    raise NotApplicable(f"oracle undefined for the shape ({X!r}, {Y!r})")


def is_exceptional(X: SheafClass) -> bool:
    """Trivial endomorphisms and no self-extensions."""
    if isinstance(X, Zero):
        raise OutOfScope("the zero class is not an object")
    if isinstance(X, TorsionOrdinary):
        return False
    return is_arc(phi_inv(X))


def classify_nonzero(X: SheafClass, Y: SheafClass) -> MapClass:
    """Classify the nonzero morphisms X -> Y (mono, epi, mixed, or none)."""
    s = _in_scope(X, Y)
    return _classify(X, Y, _sheaf_lift(X), _sheaf_lift(Y), s)


def _classify(X: SheafClass, Y: SheafClass, lift_x, lift_y, s: Surface) -> MapClass:
    """`classify_nonzero` on the lifts of X and Y, counting Hom and then
    Ext^1(Y, X) with no curve built."""
    (k1, x1, y1), (k2, x2, y2) = lift_x, lift_y
    count = _COUNT_RULES[k2, k1]
    dx, dy = _SE_STEPS[k2]
    if not count(x2 + dx, y2 + dy, x1, y1, s.p, s.q):
        return _NONE
    if isinstance(X, LineBundle) and isinstance(Y, LineBundle):
        # Nonzero maps of line bundles are injective regardless of
        # extensions in the opposite direction.
        return _SELF if X == Y else _MONO
    if count(x2, y2, x1, y1, s.p, s.q):
        return _MIXED
    if isinstance(X, LineBundle):
        return _EPI
    if X == Y:
        return _SELF
    # Same tube: a top shift matching the length difference is a mono,
    # a preserved top with a drop in length is an epi.
    rank = s.p if isinstance(X, TorsionInf) else s.q
    dlen = Y.j - X.j
    if dlen > 0 and (Y.i - X.i) % rank == dlen % rank:
        return _MONO
    if dlen < 0 and Y.i == X.i:
        return _EPI
    raise InternalInvariantViolation(
        f"unclassifiable nonzero morphism ({X!r}, {Y!r})"
    )


def _unique_crossing_offset(c1, c2) -> int:
    kmin, kmax, _ = _crossing_offsets(c1, c2)
    if kmax != kmin:
        raise NotApplicable(
            "crossing hypothesis needs exactly one witness, "
            f"found {max(0, kmax - kmin + 1)}"
        )
    return kmin


def cokernel_of_mono(X: SheafClass, Y: SheafClass) -> Tuple[SheafClass, SheafClass]:
    """Summands of Y/X for the unique proper mono X -> Y.

    The two components are the images of the boundary connectors joining
    the crossing lifts' endpoints: ends first (inner side for bundles),
    starts second.  Requires the crossing-uniqueness hypothesis, which in
    particular excludes two-dimensional Hom spaces.
    """
    s = _in_scope(X, Y)
    lift_x, lift_y = _sheaf_lift(X), _sheaf_lift(Y)
    if _classify(X, Y, lift_x, lift_y, s) is not _MONO:
        raise NotApplicable("cokernels are computed for proper monos only")
    g1m, g2 = _curve(lift_x, s).se_shifted(-1), _curve(lift_y, s)
    k = _unique_crossing_offset(g2, g1m)
    g1m = g1m.translated(k)
    ends = connector(s, g1m.end, g2.end)
    starts = connector(s, g2.start, g1m.start)
    return phi_ext(ends), phi_ext(starts)


def kernel_of_epi(X: SheafClass, Y: SheafClass) -> Tuple[SheafClass, SheafClass]:
    """Summands of the kernel of the unique proper epi X -> Y.

    For a line bundle onto torsion the kernel is the bridging connector's
    bundle, reported first; for a same-tube epi it is the socle part,
    reported second.
    """
    s = _in_scope(X, Y)
    lift_x, lift_y = _sheaf_lift(X), _sheaf_lift(Y)
    if _classify(X, Y, lift_x, lift_y, s) is not _EPI:
        raise NotApplicable("kernels are computed for proper epis only")
    g1, g2m = _curve(lift_x, s), _curve(lift_y, s).se_shifted(1)
    k = _unique_crossing_offset(g2m, g1)
    g1 = g1.translated(k)
    starts = connector(s, g1.start, g2m.start)
    ends = connector(s, g1.end, g2m.end)
    if isinstance(X, LineBundle):
        bundle = starts if isinstance(starts, Bridging) else ends
        other = ends if bundle is starts else starts
        return phi_ext(bundle), phi_ext(other)
    torsion = starts if not starts.is_degenerate() else ends
    other = ends if torsion is starts else starts
    return phi_ext(other), phi_ext(torsion)


def epi_mono_factor(X: SheafClass, Y: SheafClass) -> SheafClass:
    """Intermediate torsion class through which the crossing morphism factors.

    Y must be torsion in an exceptional tube, Hom(X, Y) nonzero, and the
    associated curves must cross exactly once in the admissible position;
    the result Z satisfies X ->> Z >-> Y.
    """
    s = _in_scope(X, Y)
    if not isinstance(Y, (TorsionInf, TorsionZero)):
        raise NotApplicable("the factorization target must be tube torsion")
    lift_x, lift_y = _sheaf_lift(X), _sheaf_lift(Y)
    g1, g2 = _curve(lift_x, s), _curve(lift_y, s)
    if not positive_int(g2.se_shifted(1), g1):
        raise NotApplicable("no nonzero morphism to factor")
    k = _unique_crossing_offset(g2, g1)
    g1k = g1.translated(k)
    if isinstance(Y, TorsionInf):
        boundary, end1 = g1k.end
        if boundary != INNER:
            raise NotApplicable("curve shapes incompatible with the inner tube")
        length = end1 - g2.a - 1
        if length < 1:
            raise NotApplicable("the crossing carries no morphism")
        Z: SheafClass = TorsionInf(s, end1, length)
    else:
        boundary, start1 = g1k.start
        if boundary != OUTER:
            raise NotApplicable("curve shapes incompatible with the outer tube")
        length = g2.b - start1 - 1
        if length < 1:
            raise NotApplicable("the crossing carries no morphism")
        Z = TorsionZero(s, -start1, length)
    lift_z = _sheaf_lift(Z)
    if _classify(X, Z, lift_x, lift_z, s) is not _EPI:
        raise InternalInvariantViolation("factor is not an epi image")
    if _classify(Z, Y, lift_z, lift_y, s).tag != MONO:
        raise InternalInvariantViolation("factor does not embed in the target")
    return Z

