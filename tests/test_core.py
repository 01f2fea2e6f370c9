import pytest
from hypothesis import given, strategies as st

from wplarcs.core import (
    INNER,
    MOVE_E,
    MOVE_E_INV,
    MOVE_S,
    MOVE_S_INV,
    OUTER,
    Bridging,
    InnerPeripheral,
    Loop,
    OuterPeripheral,
    Surface,
    TorsionInf,
    TorsionOrdinary,
    TorsionZero,
    ar_sequence,
    canonical,
    connector,
    degree,
    dim_S,
    dualizing,
    is_arc,
    leq,
    line_bundle,
    move,
    normal_form,
    phi,
    phi_ext,
    phi_inv,
    sheaf_class_vector,
    structure_sheaf,
    tau,
    tau_inv,
    twist,
    x1,
    x2,
    zero,
)
from wplarcs.errors import (
    InternalInvariantViolation,
    InvalidCurve,
    OutOfScope,
    SurfaceMismatch,
)

from conftest import ACCEPT_SURFACES, window_arcs, window_curves

S23 = Surface(2, 3)


class TestNormalForm:
    def test_reduction_example(self):
        assert normal_form(3, 4, 0, S23) == normal_form(1, 1, 2, S23)
        x = normal_form(3, 4, 0, S23)
        assert (x.l1, x.l2, x.l) == (1, 1, 2)

    def test_dualizing_element(self):
        w = dualizing(S23)
        assert (w.l1, w.l2, w.l) == (1, 2, -2)

    def test_zero(self):
        assert normal_form(0, 0, 0, S23) == zero(S23)

    @given(
        a=st.integers(-30, 30),
        b=st.integers(-30, 30),
        c=st.integers(-30, 30),
        d=st.integers(-30, 30),
    )
    def test_homomorphism(self, a, b, c, d):
        x = normal_form(a, b, 0, S23)
        y = normal_form(c, d, 0, S23)
        assert x + y == normal_form(a + c, b + d, 0, S23)

    @given(a=st.integers(-30, 30), b=st.integers(-30, 30), c=st.integers(-5, 5))
    def test_negation(self, a, b, c):
        x = normal_form(a, b, c, S23)
        assert x + (-x) == zero(S23)


class TestOrderAndDegree:
    def test_zero_leq_c(self):
        assert leq(zero(S23), canonical(S23))

    def test_omega_leq_zero(self):
        assert leq(dualizing(S23), zero(S23))

    def test_generators_incomparable(self):
        assert not leq(x1(S23), x2(S23))
        assert not leq(x2(S23), x1(S23))

    def test_degree_values(self):
        assert degree(x1(S23)) == 3
        assert degree(x2(S23)) == 2
        assert degree(canonical(S23)) == 6
        assert degree(zero(S23)) == 0

    @given(a=st.integers(-20, 20), b=st.integers(-20, 20))
    def test_degree_additive(self, a, b):
        x = normal_form(a, b, 0, S23)
        y = normal_form(b, a, 1, S23)
        assert degree(x + y) == degree(x) + degree(y)

    def test_dim_S(self):
        assert dim_S(canonical(S23)) == 2
        assert dim_S(dualizing(S23)) == 0
        assert dim_S(zero(S23)) == 1


class TestCurves:
    def test_bridging_canonicalization(self):
        assert Bridging(S23, 2, 0) == Bridging(S23, 0, -3)
        assert Bridging(S23, -1, 1) == Bridging(S23, 1, 4)

    def test_peripheral_canonicalization(self):
        assert InnerPeripheral(S23, 2, 4) == InnerPeripheral(S23, 0, 2)
        assert OuterPeripheral(S23, -3, -1) == OuterPeripheral(S23, 0, 2)

    def test_is_arc(self):
        assert is_arc(Bridging(S23, 5, -7))
        assert is_arc(InnerPeripheral(S23, 0, 2))
        assert not is_arc(InnerPeripheral(S23, 0, 3))  # span 3 > p = 2
        assert not is_arc(InnerPeripheral(S23, 0, 1))  # degenerate
        assert not is_arc(Loop(S23, 1, "t"))

    def test_span_zero_rejected(self):
        with pytest.raises(InvalidCurve):
            InnerPeripheral(S23, 1, 1)


class TestDictionary:
    def test_bridging_image(self):
        assert phi(Bridging(S23, 1, 1)) == line_bundle(S23, x1(S23) - x2(S23))

    def test_inner_image(self):
        assert phi(InnerPeripheral(S23, 0, 2)) == TorsionInf(S23, 0, 1)

    def test_outer_image(self):
        assert phi(OuterPeripheral(S23, -1, 2)) == TorsionZero(S23, 1, 2)

    def test_loop_image(self):
        assert phi(Loop(S23, 2, "t")) == TorsionOrdinary(S23, "t", 2)

    def test_degenerate_needs_ext(self):
        seg = InnerPeripheral(S23, 0, 1)
        with pytest.raises(OutOfScope):
            phi(seg)
        assert phi_ext(seg).key() == (4,)

    @pytest.mark.parametrize("s", ACCEPT_SURFACES, ids=str)
    def test_round_trip_on_window(self, s):
        for arc in window_arcs(s, turns=3):
            assert phi_inv(phi(arc)) == arc

    @pytest.mark.parametrize("s", ACCEPT_SURFACES, ids=str)
    def test_round_trip_sheaf_side(self, s):
        sheaves = [
            line_bundle(s, normal_form(a, b, c, s))
            for a in range(s.p)
            for b in range(s.q)
            for c in range(-4, 5)
        ]
        sheaves += [TorsionInf(s, i, j) for i in range(s.p) for j in range(1, 2 * s.p + 2)]
        sheaves += [TorsionZero(s, i, j) for i in range(s.q) for j in range(1, 2 * s.q + 2)]
        for X in sheaves:
            assert phi(phi_inv(X)) == X

    def test_surface_mismatch(self):
        other = Surface(3, 2)
        with pytest.raises(SurfaceMismatch):
            twist(structure_sheaf(S23), zero(other))


class TestMoves:
    def test_bridging_se(self):
        assert move(Bridging(S23, 0, 0), ["s", "e"]) == Bridging(S23, 1, -1)

    def test_simple_s_degenerates(self):
        s = Surface(2, 3)
        out = move(InnerPeripheral(s, 0, 2), ["s"])
        assert out == InnerPeripheral(s, 1, 2) and out.is_degenerate()

    def test_outer_e(self):
        s = Surface(2, 3)
        assert move(OuterPeripheral(s, 0, 3), ["e"]) == OuterPeripheral(s, 0, 2)

    def test_moves_invert(self):
        arc = Bridging(S23, 1, -2)
        assert move(arc, ["s", "e", "e-", "s-"]) == arc

    def test_collapse_rejected(self):
        with pytest.raises(InvalidCurve):
            move(InnerPeripheral(S23, 0, 1), ["s"])

    def test_loop_rejected(self):
        with pytest.raises(OutOfScope):
            move(Loop(S23, 1, "t"), ["s"])

    def test_collapse_checked_at_each_move(self):
        # The net effect of the four moves is nothing, but the second one
        # already collapses the curve.
        with pytest.raises(InvalidCurve):
            move(InnerPeripheral(S23, 0, 2), ["e-", "e-", "e", "e"])


def _old_connector(s, p1, p2):
    """The connector as homext, braid and tilting each wrote it before."""
    (b1, i1), (b2, i2) = p1, p2
    if b1 == b2:
        a, b = sorted((i1, i2))
        return InnerPeripheral(s, a, b) if b1 == "inner" else OuterPeripheral(s, a, b)
    inner = i1 if b1 == "inner" else i2
    outer = i2 if b1 == "inner" else i1
    return Bridging(s, inner, outer)


def _fields(curve):
    return (curve.i, curve.j) if isinstance(curve, Bridging) else (curve.a, curve.b)


BIG = 10**18
SHIFTS = [0, 1, -1, 2, -7, 40, -40, BIG, -BIG, BIG - 1, 3 * BIG + 5]


class TestEndpointModel:
    @pytest.mark.parametrize("s", ACCEPT_SURFACES, ids=str)
    def test_encoding_is_pinned(self, s):
        # Cache keys and sorted orders depend on these exact values.
        tags = {Bridging: (0, "B"), InnerPeripheral: (1, "IP"), OuterPeripheral: (2, "OP")}
        for c in window_curves(s):
            tag, name = tags[type(c)]
            x, y = _fields(c)
            assert c.key() == (tag, x, y)
            assert repr(c) == f"{name}({x},{y})"
            assert hash(c) == hash((s, x, y))
            assert c == type(c)(s, x, y) and c != type(c)(s, x, y + 1)

    @pytest.mark.parametrize("s", ACCEPT_SURFACES, ids=str)
    def test_endpoints_and_periods(self, s):
        assert (s.period(INNER), s.period(OUTER)) == (s.p, s.q)
        for c in window_curves(s):
            if isinstance(c, Bridging):
                assert (c.start, c.end) == ((OUTER, c.j), (INNER, c.i))
                assert 0 <= c.i < s.p
            else:
                side = INNER if isinstance(c, InnerPeripheral) else OUTER
                assert (c.start, c.end) == ((side, c.a), (side, c.b))
                assert 0 <= c.a < s.period(side) and c.span == c.b - c.a

    @pytest.mark.parametrize("s", ACCEPT_SURFACES, ids=str)
    def test_closed_form_shift_matches_repeated_moves(self, s):
        for c in window_curves(s):
            forward = backward = c
            for k in range(1, 41):
                forward = move(forward, [MOVE_S, MOVE_E])
                backward = move(backward, [MOVE_S_INV, MOVE_E_INV])
                assert c.se_shifted(k) == forward
                assert c.se_shifted(-k) == backward

    @pytest.mark.parametrize("s", ACCEPT_SURFACES, ids=str)
    def test_shifts_and_translations_compose_at_huge_k(self, s):
        for c in window_curves(s):
            for k1 in SHIFTS:
                shifted = c.se_shifted(k1)
                assert type(shifted)(s, *_fields(shifted)) == shifted
                for k2 in SHIFTS:
                    assert shifted.se_shifted(k2) == c.se_shifted(k1 + k2)
                lift = c.translated(k1)
                assert lift.translated(-k1) == c
                assert type(c)(s, *_fields(lift)) == c
                assert lift.aligned("start", c.start[1]) == c
                assert lift.aligned("end", c.end[1]) == c

    @pytest.mark.parametrize("s", ACCEPT_SURFACES, ids=str)
    def test_connector_matches_old_helpers(self, s):
        points = [(INNER, i) for i in range(-2 * s.p, 2 * s.p + 1)]
        points += [(OUTER, j) for j in range(-2 * s.q, 2 * s.q + 1)]
        for p1 in points:
            for p2 in points:
                if p1 == p2:
                    with pytest.raises(InternalInvariantViolation):
                        connector(s, p1, p2)
                else:
                    assert connector(s, p1, p2) == _old_connector(s, p1, p2)


class TestTwistAndTau:
    def test_tau_structure_sheaf(self):
        assert tau(structure_sheaf(S23)) == line_bundle(S23, dualizing(S23))

    def test_tau_simple(self):
        assert tau(TorsionInf(S23, 0, 1)) == TorsionInf(S23, 1, 1)  # p - 1 = 1

    def test_tau_round_trip(self):
        for X in (structure_sheaf(S23), TorsionZero(S23, 2, 2)):
            assert tau(tau_inv(X)) == X

    def test_twist_examples(self):
        assert twist(TorsionInf(S23, 0, 1), x1(S23)) == TorsionInf(S23, 1, 1)
        assert twist(structure_sheaf(S23), canonical(S23)) == line_bundle(
            S23, canonical(S23)
        )
        ordinary = TorsionOrdinary(S23, "t", 2)
        assert twist(ordinary, x1(S23)) == ordinary

    @given(
        a=st.integers(-6, 6),
        b=st.integers(-6, 6),
        c=st.integers(-6, 6),
        d=st.integers(-6, 6),
    )
    def test_twist_additive(self, a, b, c, d):
        u = normal_form(a, b, 0, S23)
        v = normal_form(c, d, 0, S23)
        X = TorsionZero(S23, 1, 2)
        assert twist(twist(X, u), v) == twist(X, u + v)

    @pytest.mark.parametrize("s", ACCEPT_SURFACES, ids=str)
    def test_twist_by_omega_is_tau(self, s):
        for X in (
            structure_sheaf(s),
            TorsionInf(s, 0, 1),
            TorsionZero(s, 0, 1),
            TorsionOrdinary(s, "t", 3),
        ):
            assert twist(X, dualizing(s)) == tau(X)

    @pytest.mark.parametrize("s", ACCEPT_SURFACES, ids=str)
    def test_tau_matches_moves(self, s):
        for arc in window_arcs(s):
            assert phi_inv(tau_inv(phi(arc))) == move(arc, ["s", "e"])
            assert phi_inv(tau(phi(arc))) == move(arc, ["s-", "e-"])


class TestARSequences:
    def test_structure_sheaf(self):
        X, middle, end = ar_sequence(structure_sheaf(S23))
        assert middle == [line_bundle(S23, x2(S23)), line_bundle(S23, x1(S23))]
        assert end == line_bundle(S23, x1(S23) + x2(S23))

    def test_simple_tube(self):
        X, middle, end = ar_sequence(TorsionInf(S23, 1, 1))
        assert middle == [TorsionInf(S23, 0, 2)]
        assert end == TorsionInf(S23, 0, 1)

    def test_ordinary_rejected(self):
        with pytest.raises(OutOfScope):
            ar_sequence(TorsionOrdinary(S23, "t", 1))

    @pytest.mark.parametrize("s", ACCEPT_SURFACES, ids=str)
    def test_class_additivity(self, s):
        for arc in window_arcs(s):
            X = phi(arc)
            _, middle, end = ar_sequence(X)
            r0, d0 = sheaf_class_vector(X)
            r1, d1 = sheaf_class_vector(end)
            rm, dm = 0, zero(s)
            for m in middle:
                r, d = sheaf_class_vector(m)
                rm += r
                dm = dm + d
            assert (r0 + r1, d0 + d1) == (rm, dm)
