"""The Hom/Ext entry points as they once were, each call re-checking its inputs.

Kept in the tests as differential references for `wplarcs.homext`, whose
entry points check their inputs once and count on each sheaf's lift, with
no curve built for a Hom or Ext count.  Here
`phi_inv_literal` reads each sheaf type's lift from its own `isinstance`
branch; `hom_dim_literal` builds the Serre-dual curve as
`phi_inv(Y).se_shifted(1)`, two constructions; `classify_literal` calls
the nested `hom_dim_literal` and `ext1_dim_literal`, each with its own
scope check; and the kernel, cokernel and factor references classify
through `classify_literal` and then run `phi_inv_literal` again.
`serre_lift_holds` checks the Serre-dual lift the entry points count Hom
on against the curve `phi_inv_literal(Y).se_shifted(1)`.
"""

from typing import Tuple

from wplarcs.core import (
    INNER,
    OUTER,
    Bridging,
    InnerPeripheral,
    LineBundle,
    Loop,
    OuterPeripheral,
    TorsionInf,
    TorsionOrdinary,
    TorsionZero,
    Zero,
    _check_same_surface,
    connector,
    phi_ext,
)
from wplarcs.errors import InternalInvariantViolation, NotApplicable, OutOfScope
from wplarcs.homext import EPI, MIXED, MONO, NO_MAP, MapClass, _sheaf_lift
from wplarcs.intersect import _crossing_offsets, positive_int


def phi_inv_literal(sheaf):
    s = sheaf.surface
    if isinstance(sheaf, LineBundle):
        x = sheaf.x
        return Bridging(s, x.l1, -(x.l2 + x.l * s.q))
    if isinstance(sheaf, TorsionInf):
        return InnerPeripheral(s, sheaf.i - sheaf.j - 1, sheaf.i)
    if isinstance(sheaf, TorsionZero):
        return OuterPeripheral(s, -sheaf.i, -sheaf.i + sheaf.j + 1)
    if isinstance(sheaf, TorsionOrdinary):
        return Loop(s, sheaf.n, sheaf.param)
    if isinstance(sheaf, Zero):
        raise OutOfScope("the zero class has no canonical curve")
    raise TypeError(f"not a sheaf class: {sheaf!r}")


def serre_lift_holds(Y) -> bool:
    """Y's lift, moved by its curve class's se-shift steps, is a lift of
    `phi_inv(Y).se_shifted(1)`: the Serre-dual curve `hom_dim` counts on."""
    cls, x, y = _sheaf_lift(Y)
    shifted = cls(Y.surface, x + cls._x_step, y + cls._y_step)
    return shifted == phi_inv_literal(Y).se_shifted(1)


def require_in_scope_literal(*sheaves):
    for X in sheaves:
        if isinstance(X, (TorsionOrdinary, Zero)):
            raise OutOfScope(f"{X!r} is outside the exceptional part")
    return _check_same_surface(*sheaves)


def ext1_dim_literal(X, Y) -> int:
    require_in_scope_literal(X, Y)
    return positive_int(phi_inv_literal(X), phi_inv_literal(Y))


def hom_dim_literal(X, Y) -> int:
    require_in_scope_literal(X, Y)
    return positive_int(phi_inv_literal(Y).se_shifted(1), phi_inv_literal(X))


def classify_literal(X, Y) -> MapClass:
    require_in_scope_literal(X, Y)
    if hom_dim_literal(X, Y) == 0:
        return MapClass(NO_MAP)
    if isinstance(X, LineBundle) and isinstance(Y, LineBundle):
        return MapClass(MONO, same_object=X == Y)
    if ext1_dim_literal(Y, X) > 0:
        return MapClass(MIXED)
    if isinstance(X, LineBundle):
        return MapClass(EPI)
    if X == Y:
        return MapClass(MONO, same_object=True)
    rank = X.surface.p if isinstance(X, TorsionInf) else X.surface.q
    dlen = Y.j - X.j
    if dlen > 0 and (Y.i - X.i) % rank == dlen % rank:
        return MapClass(MONO)
    if dlen < 0 and Y.i == X.i:
        return MapClass(EPI)
    raise InternalInvariantViolation(f"unclassifiable nonzero morphism ({X!r}, {Y!r})")


def _unique_crossing_offset(c1, c2) -> int:
    kmin, kmax, _ = _crossing_offsets(c1, c2)
    if kmax != kmin:
        raise NotApplicable(
            "crossing hypothesis needs exactly one witness, "
            f"found {max(0, kmax - kmin + 1)}"
        )
    return kmin


def cokernel_literal(X, Y) -> Tuple:
    s = require_in_scope_literal(X, Y)
    cls = classify_literal(X, Y)
    if cls.tag != MONO or cls.same_object:
        raise NotApplicable("cokernels are computed for proper monos only")
    g1 = phi_inv_literal(X)
    g2 = phi_inv_literal(Y)
    g1m = g1.se_shifted(-1)
    g1m = g1m.translated(_unique_crossing_offset(g2, g1m))
    ends = connector(s, g1m.end, g2.end)
    starts = connector(s, g2.start, g1m.start)
    return phi_ext(ends), phi_ext(starts)


def kernel_literal(X, Y) -> Tuple:
    s = require_in_scope_literal(X, Y)
    cls = classify_literal(X, Y)
    if cls.tag != EPI:
        raise NotApplicable("kernels are computed for proper epis only")
    g1 = phi_inv_literal(X)
    g2 = phi_inv_literal(Y)
    g2m = g2.se_shifted(1)
    g1 = g1.translated(_unique_crossing_offset(g2m, g1))
    starts = connector(s, g1.start, g2m.start)
    ends = connector(s, g1.end, g2m.end)
    if isinstance(X, LineBundle):
        bundle = starts if isinstance(starts, Bridging) else ends
        other = ends if bundle is starts else starts
        return phi_ext(bundle), phi_ext(other)
    torsion = starts if not starts.is_degenerate() else ends
    other = ends if torsion is starts else starts
    return phi_ext(other), phi_ext(torsion)


def factor_literal(X, Y):
    s = require_in_scope_literal(X, Y)
    if not isinstance(Y, (TorsionInf, TorsionZero)):
        raise NotApplicable("the factorization target must be tube torsion")
    if hom_dim_literal(X, Y) < 1:
        raise NotApplicable("no nonzero morphism to factor")
    g1 = phi_inv_literal(X)
    g2 = phi_inv_literal(Y)
    g1k = g1.translated(_unique_crossing_offset(g2, g1))
    if isinstance(Y, TorsionInf):
        boundary, end1 = g1k.end
        if boundary != INNER:
            raise NotApplicable("curve shapes incompatible with the inner tube")
        length = end1 - g2.a - 1
        if length < 1:
            raise NotApplicable("the crossing carries no morphism")
        Z = TorsionInf(s, end1, length)
    else:
        boundary, start1 = g1k.start
        if boundary != OUTER:
            raise NotApplicable("curve shapes incompatible with the outer tube")
        length = g2.b - start1 - 1
        if length < 1:
            raise NotApplicable("the crossing carries no morphism")
        Z = TorsionZero(s, -start1, length)
    if classify_literal(X, Z).tag != EPI:
        raise InternalInvariantViolation("factor is not an epi image")
    if classify_literal(Z, Y).tag != MONO:
        raise InternalInvariantViolation("factor does not embed in the target")
    return Z
