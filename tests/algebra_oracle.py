"""Class-level mutation oracle, computed without arcs.

For an exceptional pair (E, F) the left mutation is determined by the
morphism/extension dimensions and exact-sequence bookkeeping on classes:
twists for the two-dimensional Hom case, kernel/cokernel tube arithmetic
for one-dimensional Hom, uniserial gluing for one-dimensional Ext, and the
identity for orthogonal pairs.  The (rank, determinant) class vectors
check the additivity of the exact sequences the kernels and cokernels of
`wplarcs.homext` belong to.
"""

from wplarcs.core import (
    LineBundle,
    TorsionInf,
    TorsionZero,
    Zero,
    canonical,
    twist,
    x1,
    x2,
    tau,
    zero,
)
from wplarcs.errors import NotApplicable, OutOfScope
from wplarcs.homext import hom_dim_oracle


def _hom_alg(X, Y):
    try:
        return hom_dim_oracle(X, Y)
    except NotApplicable:
        return 0  # distinct tubes


def _ext_alg(E, F):
    """dim Ext^1(E, F) by Serre duality through the algebraic Hom oracle."""
    return _hom_alg(F, tau(E))


def _is_exceptional_alg(X):
    """Line bundles, and tube torsion shorter than the tube's rank."""
    if isinstance(X, LineBundle):
        return True
    tube = _tube_data(X)
    return tube is not None and X.j < tube[1]


def exceptional_pair_oracle(E, F):
    """(E, F) is an exceptional pair: both exceptional, Hom(F, E) = 0 = Ext^1(F, E)."""
    return (
        _is_exceptional_alg(E)
        and _is_exceptional_alg(F)
        and _hom_alg(F, E) == 0 == _ext_alg(F, E)
    )


def _tube_data(X):
    if isinstance(X, TorsionInf):
        return ("inf", X.surface.p, X.i, X.j)
    if isinstance(X, TorsionZero):
        return ("zero", X.surface.q, X.i, X.j)
    return None


def _make_torsion(side, s, i, j):
    return TorsionInf(s, i, j) if side == "inf" else TorsionZero(s, i, j)


def algebraic_left_mutation(E, F):
    """L_E F computed from dimensions and exact sequences on classes."""
    s = E.surface
    h = _hom_alg(E, F)
    e = _ext_alg(E, F)

    if h == 0 and e == 0:
        return F

    if h == 2:
        assert isinstance(E, LineBundle) and F == twist(E, canonical(s))
        return twist(E, -canonical(s))

    if h == 1:
        if isinstance(E, LineBundle) and isinstance(F, LineBundle):
            d = F.x - E.x
            assert d.l == 0
            if d.l1 > 0:
                assert d.l2 == 0
                return TorsionInf(s, F.x.l1, d.l1)
            assert d.l2 > 0
            return TorsionZero(s, F.x.l2, d.l2)
        if isinstance(E, LineBundle):
            # Kernel of a line bundle onto tube torsion.
            side, _, _, j = _tube_data(F)
            gen = x1(s) if side == "inf" else x2(s)
            return LineBundle(s, E.x - j * gen)
        # Same tube: cokernel of a mono or kernel of an epi.
        side, rank, iE, jE = _tube_data(E)
        side2, _, iF, jF = _tube_data(F)
        assert side == side2
        if jF > jE and (iF - iE) % rank == (jF - jE) % rank:
            return _make_torsion(side, s, iF, jF - jE)  # cokernel
        assert iF == iE and jF < jE
        return _make_torsion(side, s, iE - jF, jE - jF)  # kernel

    assert e == 1
    if isinstance(F, LineBundle):
        # Universal extension of tube torsion by a line bundle.
        side, _, _, j = _tube_data(E)
        gen = x1(s) if side == "inf" else x2(s)
        return LineBundle(s, F.x + j * gen)
    # Same tube: uniserial gluing with F below E.
    side, rank, iE, jE = _tube_data(E)
    side2, _, iF, jF = _tube_data(F)
    assert side == side2 and (iE - jE - iF) % rank == 0
    return _make_torsion(side, s, iE, jE + jF)


def algebraic_right_mutation(E, F):
    """R_F E; coincides with the left mutation object except for Hom = k^2."""
    s = E.surface
    h = _hom_alg(E, F)
    e = _ext_alg(E, F)
    if h == 0 and e == 0:
        return E
    if h == 2:
        return twist(E, 2 * canonical(s))
    return algebraic_left_mutation(E, F)


def sheaf_class_vector(sheaf):
    """(rank, determinant) class used for exactness bookkeeping."""
    s = sheaf.surface
    if isinstance(sheaf, LineBundle):
        return (1, sheaf.x)
    if isinstance(sheaf, TorsionInf):
        return (0, sheaf.j * x1(s))
    if isinstance(sheaf, TorsionZero):
        return (0, sheaf.j * x2(s))
    if isinstance(sheaf, Zero):
        return (0, zero(s))
    raise OutOfScope("ordinary torsion carries no exceptional class vector")


def class_additivity_holds(X, Y, parts) -> bool:
    """Check class(Y) = class(X) + sum of part classes in (rank, det)."""
    rx, dx = sheaf_class_vector(X)
    ry, dy = sheaf_class_vector(Y)
    rsum, dsum = rx, dx
    for part in parts:
        rp, dp = sheaf_class_vector(part)
        rsum += rp
        dsum = dsum + dp
    return (ry, dy) == (rsum, dsum)
