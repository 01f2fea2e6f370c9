"""Differential tests at degrees, tops, lengths and shifts up to 10**18.

The other tests stay within windows of about two turns.  Here Hypothesis
draws line-line, line-tube and same-tube pairs anywhere up to 10**18 and
compares the curve model with the algebraic oracle, which never looks at a
curve.  Intersection counts are O(1) in their answer, so an answer of
10**18 costs no more than an answer of 1.  Triangulations se-shifted by up
to 10**18 steps return to their anchored and bundle representatives.
"""

import pytest
from hypothesis import given, settings, strategies as st

from wplarcs import tilting

from wplarcs.core import (
    LineBundle,
    Surface,
    TorsionInf,
    TorsionZero,
    normal_form,
    phi,
    phi_inv,
    tau,
    tau_inv,
)
from wplarcs.exceptional import _arc_pair_verdicts, is_exceptional_pair
from wplarcs.homext import (
    EPI,
    MIXED,
    MONO,
    NO_MAP,
    classify_nonzero,
    ext1_dim,
    hom_dim,
    hom_dim_oracle,
)
from wplarcs.intersect import positive_int

from algebra_oracle import exceptional_pair_oracle

HUGE = 10**18
SURFACES = [Surface(2, 3), Surface(3, 4), Surface(5, 6)]

deep = settings(max_examples=40, deadline=None)
indices = st.integers(-HUGE, HUGE)
# Small values keep the boundary cases (equal objects, gaps of one turn)
# as likely as the huge ones.
gaps = st.one_of(st.integers(-3, 3), indices)
lengths = st.one_of(st.integers(1, 12), st.integers(1, HUGE))


@st.composite
def objects(draw, s, kind):
    if kind == "line":
        x = normal_form(draw(indices), draw(indices), draw(indices), s)
        return LineBundle(s, x)
    cls = TorsionInf if kind == "inner" else TorsionZero
    return cls(s, draw(indices), draw(lengths))


@st.composite
def pairs(draw, s, shape):
    """(X, Y) of the given kinds; a line-line pair differs by a drawn gap."""
    kx, ky = shape.split("-")
    X = draw(objects(s, kx))
    if shape == "line-line":
        gap = normal_form(draw(gaps), draw(gaps), draw(gaps), s)
        return X, LineBundle(s, X.x + gap)
    return X, draw(objects(s, ky))


SHAPES = [
    "line-line",
    "line-inner",
    "inner-line",
    "line-outer",
    "outer-line",
    "inner-inner",
    "outer-outer",
]
each_pair_shape = pytest.mark.parametrize(
    "s, shape", [(s, shape) for s in SURFACES for shape in SHAPES], ids=str
)


def oracle_tag(X, Y):
    """(tag, same_object) of the maps X -> Y from oracle dimensions alone.

    Between two uniserial classes of one tube the nonzero map has an image
    of length t = top X - top Y + len Y mod rank, taken in 1..rank: a
    quotient of X and a subobject of Y.  It is a mono when t = len X and an
    epi when t = len Y.
    """
    if hom_dim_oracle(X, Y) == 0:
        return NO_MAP, False
    if isinstance(X, LineBundle) and isinstance(Y, LineBundle):
        return MONO, X == Y
    if hom_dim_oracle(X, tau(Y)) > 0:  # Ext^1(Y, X) by Serre duality
        return MIXED, False
    if isinstance(X, LineBundle):
        return EPI, False
    if X == Y:
        return MONO, True
    rank = X.surface.p if isinstance(X, TorsionInf) else X.surface.q
    image = (X.i - Y.i + Y.j) % rank or rank
    if image == X.j:
        return MONO, False
    if image == Y.j:
        return EPI, False
    return None, False


class TestDeepDifferential:
    @each_pair_shape
    @deep
    @given(data=st.data())
    def test_hom_matches_oracle(self, s, shape, data):
        X, Y = data.draw(pairs(s, shape))
        assert hom_dim(X, Y) == hom_dim_oracle(X, Y)

    @each_pair_shape
    @deep
    @given(data=st.data())
    def test_serre_routes_agree(self, s, shape, data):
        # hom_dim reads the first route only.
        X, Y = data.draw(pairs(s, shape))
        gx, gy = phi_inv(X), phi_inv(Y)
        assert positive_int(gy.se_shifted(1), gx) == positive_int(gy, gx.se_shifted(-1))

    @each_pair_shape
    @deep
    @given(data=st.data())
    def test_ext_is_serre_dual_of_oracle_hom(self, s, shape, data):
        X, Y = data.draw(pairs(s, shape))
        assert ext1_dim(X, Y) == hom_dim_oracle(Y, tau(X))

    @each_pair_shape
    @deep
    @given(data=st.data())
    def test_classify_matches_oracle_tag(self, s, shape, data):
        X, Y = data.draw(pairs(s, shape))
        cls = classify_nonzero(X, Y)
        assert (cls.tag, cls.same_object) == oracle_tag(X, Y)

    @each_pair_shape
    @deep
    @given(data=st.data())
    def test_exceptional_pair_matches_oracle(self, s, shape, data):
        # Torsion as long as the rank or longer maps to a curve that is no
        # arc, so the draws cover both sides of the arc check.
        E, F = data.draw(pairs(s, shape))
        expected = exceptional_pair_oracle(E, F)
        assert _arc_pair_verdicts(phi_inv(E), phi_inv(F))[0] == expected
        assert is_exceptional_pair(E, F) == expected


each_kind = pytest.mark.parametrize(
    "s, kind", [(s, k) for s in SURFACES for k in ("line", "inner", "outer")], ids=str
)


class TestDeepRoundTrips:
    @each_kind
    @deep
    @given(data=st.data())
    def test_phi_round_trips(self, s, kind, data):
        X = data.draw(objects(s, kind))
        curve = phi_inv(X)
        assert phi(curve) == X
        assert phi_inv(phi(curve)) == curve

    @each_kind
    @deep
    @given(data=st.data())
    def test_tau_round_trips(self, s, kind, data):
        X = data.draw(objects(s, kind))
        assert tau(tau_inv(X)) == X
        assert tau_inv(tau(X)) == X

    @each_kind
    @deep
    @given(data=st.data(), k=st.integers(-3, 3))
    def test_tau_is_the_se_shift(self, s, kind, data, k):
        # tau^-1 moves both endpoints one step forward, tau one step back.
        X = data.draw(objects(s, kind))
        Y = X
        for _ in range(abs(k)):
            Y = tau_inv(Y) if k > 0 else tau(Y)
        assert phi_inv(Y) == phi_inv(X).se_shifted(k)


@st.composite
def anchored_triangulations(draw, s):
    """A member of an anchored family, drawn without enumerating the surface.

    The family's member at a drawn index, or its last one when it is smaller.
    """
    if draw(st.booleans()):
        a = draw(st.integers(1 - s.q, 0))
        family = tilting._plain_family(s, a, draw(st.integers(1, a + s.q)))
    else:
        a = draw(st.integers(1 - s.p, 0))
        family = tilting._primed_family(s, a, draw(st.integers(1 - a, s.p)))
    index = draw(st.integers(0, 63))
    for arcs, _ in zip(family, range(index + 1)):
        pass
    return tilting.triangulation(s, arcs)


@st.composite
def bundle_triangulations(draw, s):
    """The all-bridging triangulation of a drawn lattice path to (p, q)."""
    steps = draw(st.permutations([(1, 0)] * s.p + [(0, 1)] * s.q))
    points = [(0, 0)]
    for dx, dy in steps:
        points.append((points[-1][0] + dx, points[-1][1] + dy))
    return tilting.path_to_tilting(s, tilting.LatticePath(tuple(points)))


each_surface = pytest.mark.parametrize("s", SURFACES, ids=str)


class TestDeepShifts:
    @each_surface
    @deep
    @given(data=st.data(), k=indices)
    def test_se_canonical_undoes_any_shift(self, s, data, k):
        t = data.draw(anchored_triangulations(s))
        assert tilting.se_canonical(tilting.se_shift(t, k)) == t

    @each_surface
    @deep
    @given(data=st.data(), k=indices)
    def test_bundle_representatives_undo_any_shift(self, s, data, k):
        b = data.draw(bundle_triangulations(s))
        assert tilting.canonical_bundle_rep(tilting.se_shift(b, k)) == b
        assert tilting.se_canonical(tilting.se_shift(b, k)) == b
