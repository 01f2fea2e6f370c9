"""Independent checks of the answers the benchmark's ops return.

Morphism and extension counts are checked against the algebraic oracle
`hom_dim_oracle` (graded-ring and uniserial-tube arithmetic, no curves),
extensions through Serre duality Ext^1(X, Y) = D Hom(Y, tau X).  Collection
answers are checked pair by pair with the same oracle, and census counts
against numbers computed here from first principles.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

from wplarcs.core import (
    Bridging,
    InnerPeripheral,
    LineBundle,
    OuterPeripheral,
    TorsionInf,
    TorsionZero,
    phi,
    tau,
)
from wplarcs.errors import NotApplicable
from wplarcs.homext import hom_dim_oracle


def hom(X, Y) -> int:
    """dim Hom(X, Y) from the algebraic oracle; distinct tubes are orthogonal."""
    try:
        return hom_dim_oracle(X, Y)
    except NotApplicable:
        if {type(X), type(Y)} == {TorsionInf, TorsionZero}:
            return 0
        raise


def ext1(X, Y) -> int:
    """dim Ext^1(X, Y) by Serre duality through the oracle."""
    return hom(Y, tau(X))


def expected_class(X, Y):
    """(tag, same_object) of the nonzero maps X -> Y, from tube arithmetic.

    A nonzero map between torsion classes of one uniserial tube has an
    image of length t, where t = (top X - top Y + len Y) mod rank, taken in
    1..rank; it is a mono when t is the length of X and an epi when t is
    the length of Y.
    """
    if hom(X, Y) == 0:
        return "no-nonzero-map", False
    if isinstance(X, LineBundle) and isinstance(Y, LineBundle):
        return "mono", X == Y
    if ext1(Y, X) > 0:
        return "mixed", False
    if isinstance(X, LineBundle):
        return "epi", False
    if X == Y:
        return "mono", True
    rank = X.surface.p if isinstance(X, TorsionInf) else X.surface.q
    t = (X.i - Y.i + Y.j) % rank or rank
    if t == X.j:
        return "mono", False
    if t == Y.j:
        return "epi", False
    return "unclassifiable", False


def _is_arc(curve) -> bool:
    s = curve.surface
    if isinstance(curve, Bridging):
        return True
    if isinstance(curve, InnerPeripheral):
        return 2 <= curve.b - curve.a <= s.p
    if isinstance(curve, OuterPeripheral):
        return 2 <= curve.b - curve.a <= s.q
    return False


def is_ordered_exceptional(arcs: Sequence) -> bool:
    """Distinct arcs with Hom(E_j, E_i) = 0 = Ext^1(E_j, E_i) for all i < j."""
    if len(set(arcs)) != len(arcs) or not all(_is_arc(a) for a in arcs):
        return False
    sheaves = [phi(a) for a in arcs]
    for E in sheaves:
        if hom(E, E) != 1 or ext1(E, E) != 0:
            return False
    for i in range(len(sheaves)):
        for j in range(i + 1, len(sheaves)):
            if hom(sheaves[j], sheaves[i]) or ext1(sheaves[j], sheaves[i]):
                return False
    return True


def se_shift(curve, k: int):
    """The simultaneous start/end shift applied k times, in closed form."""
    s = curve.surface
    if isinstance(curve, Bridging):
        return Bridging(s, curve.i + k, curve.j - k)
    if isinstance(curve, InnerPeripheral):
        return InnerPeripheral(s, curve.a + k, curve.b + k)
    return OuterPeripheral(s, curve.a - k, curve.b - k)


@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def dyck_paths(p: int, q: int) -> int:
    """Monotone lattice paths (0,0) -> (p,q) with p*y <= q*x at every point."""
    ways = [[0] * (q + 1) for _ in range(p + 1)]
    for x in range(p + 1):
        for y in range(q + 1):
            if p * y > q * x:
                continue
            if x == y == 0:
                ways[x][y] = 1
                continue
            ways[x][y] = (ways[x - 1][y] if x else 0) + (ways[x][y - 1] if y else 0)
    return ways[p][q]


def census_counts(p: int, q: int) -> dict:
    """Bundle, fundamental and sheaf tilting-class counts of type (p, q)."""
    sheaf = sum(k * catalan(p + q - k) * catalan(k - 1) for k in range(1, q + 1))
    sheaf += sum(l * catalan(p + q - l) * catalan(l - 1) for l in range(1, p + 1))
    return {
        "bundle_classes": math.comb(p + q, p),
        "fundamental": dyck_paths(p, q),
        "sheaf_classes": sheaf,
    }
