"""Morphism-space dimensions and the structure of monos/epis.

Extension dimensions are positive intersection numbers of the associated
curves; morphism dimensions come from the Serre-dual intersection (both
equivalent routes are evaluated and compared).  A purely algebraic oracle
based on the graded-ring component dimensions and uniserial tube
combinatorics cross-validates every geometric count.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    _check_same_surface,
    _coeff_x1,
    _coeff_x2,
    connector,
    dim_S,
    is_arc,
    phi_ext,
    phi_inv,
    sheaf_class_vector,
)
from .errors import (
    InternalInvariantViolation,
    NotApplicable,
    OutOfScope,
)
from .intersect import positive_crossings, positive_int

MONO = "mono"
EPI = "epi"
NO_MAP = "no-nonzero-map"
MIXED = "mixed"


@dataclass(frozen=True)
class MapClass:
    """Shape of the nonzero morphisms X -> Y, if any."""

    tag: str
    same_object: bool = False


def _require_in_scope(*sheaves: SheafClass) -> Surface:
    for X in sheaves:
        if isinstance(X, (TorsionOrdinary, Zero)):
            raise OutOfScope(f"{X!r} is outside the exceptional part")
    return _check_same_surface(*sheaves)


def ext1_dim(X: SheafClass, Y: SheafClass) -> int:
    """dim Ext^1(X, Y) as the positive intersection of the associated curves."""
    _require_in_scope(X, Y)
    return positive_int(phi_inv(X), phi_inv(Y))


def hom_dim(X: SheafClass, Y: SheafClass) -> int:
    """dim Hom(X, Y) through the Serre-dual intersection, both routes checked."""
    _require_in_scope(X, Y)
    gx, gy = phi_inv(X), phi_inv(Y)
    via_shift = positive_int(gy.se_shifted(1), gx)
    via_unshift = positive_int(gy, gx.se_shifted(-1))
    if via_shift != via_unshift:
        raise InternalInvariantViolation(
            f"Serre-dual routes disagree on ({X!r}, {Y!r}): "
            f"{via_shift} vs {via_unshift}"
        )
    return via_shift


def _tube_hom_count(top_x: int, len_x: int, top_y: int, len_y: int, rank: int) -> int:
    # Maps factor as quotient-of-X onto submodule-of-Y; a length-t composite
    # exists iff top_x = top_y - len_y + t mod rank with 1 <= t <= min length.
    need = (top_x - top_y + len_y) % rank
    count = 0
    t = need if need != 0 else rank
    while t <= min(len_x, len_y):
        count += 1
        t += rank
    return count


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
    s = _require_in_scope(X, Y)
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
    _require_in_scope(X, Y)
    if hom_dim(X, Y) == 0:
        return MapClass(NO_MAP)
    if isinstance(X, LineBundle) and isinstance(Y, LineBundle):
        # Nonzero maps of line bundles are injective regardless of
        # extensions in the opposite direction.
        return MapClass(MONO, same_object=X == Y)
    if ext1_dim(Y, X) > 0:
        return MapClass(MIXED)
    if isinstance(X, LineBundle):
        return MapClass(EPI)
    if X == Y:
        return MapClass(MONO, same_object=True)
    # Same tube: a top shift matching the length difference is a mono,
    # a preserved top with a drop in length is an epi.
    rank = X.surface.p if isinstance(X, TorsionInf) else X.surface.q
    dlen = Y.j - X.j
    if dlen > 0 and (Y.i - X.i) % rank == dlen % rank:
        return MapClass(MONO)
    if dlen < 0 and Y.i == X.i:
        return MapClass(EPI)
    raise InternalInvariantViolation(
        f"unclassifiable nonzero morphism ({X!r}, {Y!r})"
    )


def _unique_crossing_offset(c1, c2) -> int:
    witnesses = positive_crossings(c1, c2)
    if len(witnesses) != 1:
        raise NotApplicable(
            f"crossing hypothesis needs exactly one witness, found {len(witnesses)}"
        )
    return witnesses[0].offset


def cokernel_of_mono(X: SheafClass, Y: SheafClass) -> Tuple[SheafClass, SheafClass]:
    """Summands of Y/X for the unique proper mono X -> Y.

    The two components are the images of the boundary connectors joining
    the crossing lifts' endpoints: ends first (inner side for bundles),
    starts second.  Requires the crossing-uniqueness hypothesis, which in
    particular excludes two-dimensional Hom spaces.
    """
    s = _require_in_scope(X, Y)
    cls = classify_nonzero(X, Y)
    if cls.tag != MONO or cls.same_object:
        raise NotApplicable("cokernels are computed for proper monos only")
    g1 = phi_inv(X)
    g2 = phi_inv(Y)
    g1m = g1.se_shifted(-1)
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
    s = _require_in_scope(X, Y)
    cls = classify_nonzero(X, Y)
    if cls.tag != EPI:
        raise NotApplicable("kernels are computed for proper epis only")
    g1 = phi_inv(X)
    g2 = phi_inv(Y)
    g2m = g2.se_shifted(1)
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
    s = _require_in_scope(X, Y)
    if not isinstance(Y, (TorsionInf, TorsionZero)):
        raise NotApplicable("the factorization target must be tube torsion")
    if hom_dim(X, Y) < 1:
        raise NotApplicable("no nonzero morphism to factor")
    g1 = phi_inv(X)
    g2 = phi_inv(Y)
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
    if classify_nonzero(X, Z).tag != EPI:
        raise InternalInvariantViolation("factor is not an epi image")
    if classify_nonzero(Z, Y).tag != MONO:
        raise InternalInvariantViolation("factor does not embed in the target")
    return Z


def class_additivity_holds(X: SheafClass, Y: SheafClass, parts) -> bool:
    """Check class(Y) = class(X) + sum of part classes in (rank, det)."""
    rx, dx = sheaf_class_vector(X)
    ry, dy = sheaf_class_vector(Y)
    rsum, dsum = rx, dx
    for part in parts:
        rp, dp = sheaf_class_vector(part)
        rsum += rp
        dsum = dsum + dp
    return (ry, dy) == (rsum, dsum)
