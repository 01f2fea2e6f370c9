import random
from types import SimpleNamespace

import pytest

from wplarcs import core, intersect
from wplarcs.core import (
    INNER,
    Bridging,
    InnerPeripheral,
    LineBundle,
    Loop,
    OuterPeripheral,
    Surface,
    TorsionInf,
    TorsionZero,
    move,
    normal_form,
    phi,
)
from wplarcs.errors import OutOfScope, SurfaceMismatch
from wplarcs.homext import classify_nonzero, ext1_dim, hom_dim
from wplarcs.intersect import (
    endpoint_relation,
    exceptional_intersection,
    positive_int,
)

from conftest import ACCEPT_SURFACES, SMALL_SURFACES, window_arcs, window_curves
from geom_oracle import brute_positive_int

S23 = Surface(2, 3)


def positive_crossings(c1, c2):
    """Witnesses of the positive crossings of (c1, c2), one per offset of
    `_crossing_offsets`: the one count whose cost grows with the answer."""
    kmin, kmax, config = intersect._crossing_offsets(c1, c2)
    return tuple(intersect.CrossingWitness(k, config) for k in range(kmin, kmax + 1))


class TestPositiveInt:
    def test_hom_of_structure_sheaf(self):
        assert positive_int(Bridging(S23, 1, -1), Bridging(S23, 0, 0)) == 1

    @pytest.mark.parametrize("s", SMALL_SURFACES, ids=str)
    def test_rigidity(self, s):
        for arc in window_arcs(s):
            assert positive_int(arc, arc) == 0

    def test_tube_example(self):
        s = Surface(3, 1)
        assert positive_int(InnerPeripheral(s, 1, 3), InnerPeripheral(s, 0, 2)) == 1

    def test_loops_rejected(self):
        with pytest.raises(OutOfScope):
            positive_int(Loop(S23, 1, "t"), Bridging(S23, 0, 0))

    @pytest.mark.parametrize("other", [S23, Surface(3, 4)], ids=str)
    def test_loop_second_rejected(self, other):
        # Before the surfaces are compared.
        for arc in window_arcs(other, turns=1):
            with pytest.raises(OutOfScope):
                positive_int(arc, Loop(S23, 1, "t"))

    @pytest.mark.parametrize(
        "entry",
        [positive_int, intersect._crossing_offsets, exceptional_intersection],
        ids=lambda f: f.__name__,
    )
    def test_non_curves_rejected(self, entry):
        # A sheaf's `key()` is no lift: a line bundle's is a 4-tuple.
        O = LineBundle(S23, normal_form(0, 0, 0, S23))
        O1 = LineBundle(S23, normal_form(0, 0, 1, S23))
        arc = Bridging(S23, 0, 0)
        for pair in ((O, O1), (arc, O1), (O, arc), (arc, TorsionInf(S23, 0, 1)), (arc, None)):
            with pytest.raises(TypeError, match="not a curve"):
                entry(*pair)

    def test_mixed_surfaces_rejected(self):
        s34 = Surface(3, 4)
        for c1 in window_arcs(S23, turns=1):
            for c2 in window_arcs(s34, turns=1):
                for pair in [(c1, c2), (c2, c1)]:
                    with pytest.raises(SurfaceMismatch):
                        positive_int(*pair)

    def test_equal_surfaces_accepted(self):
        # A curve on an equal but distinct Surface is on the same surface.
        twin = Surface(2, 3)
        assert twin == S23 and twin is not S23
        arcs = window_arcs(S23, turns=1)
        twins = window_arcs(twin, turns=1)
        assert all(t.surface is twin for t in twins)
        for c1, t1 in zip(arcs, twins):
            for c2, t2 in zip(arcs, twins):
                assert positive_int(c1, t2) == positive_int(t1, c2) == positive_int(c1, c2)

    @pytest.mark.parametrize("s", SMALL_SURFACES, ids=str)
    def test_shift_invariance(self, s):
        arcs = window_arcs(s, turns=1)
        for a in arcs:
            for b in arcs:
                assert positive_int(
                    move(a, ["s", "e"]), move(b, ["s", "e"])
                ) == positive_int(a, b)

    def test_witness_reproduces_crossing(self):
        a = InnerPeripheral(S23, 0, 2)
        b = Bridging(S23, 1, 0)
        (w,) = positive_crossings(a, b)
        shifted = b.translated(w.offset)
        assert a.a < shifted.i < a.b

    @pytest.mark.parametrize("s", SMALL_SURFACES, ids=str)
    def test_witnesses_satisfy_defining_inequalities(self, s):
        from fractions import Fraction

        for c1 in window_arcs(s, turns=1):
            for c2 in window_arcs(s, turns=1):
                for w in positive_crossings(c1, c2):
                    t = c2.translated(w.offset)
                    if w.config == "bridging-bridging":
                        assert Fraction(c1.j, s.q) < Fraction(t.j, s.q)
                        assert Fraction(t.i, s.p) < Fraction(c1.i, s.p)
                    elif w.config == "inner-bridging":
                        assert c1.a < t.i < c1.b
                    elif w.config == "outer-bridging":
                        assert c1.a < t.j < c1.b
                    elif w.config == "inner-inner":
                        assert t.a < c1.a < t.b < c1.b
                    else:
                        assert c1.a < t.a < c1.b < t.b


@pytest.mark.parametrize("s", SMALL_SURFACES, ids=str)
def test_brute_force_oracle(s):
    """Closed-form counts match the piecewise-linear geometric counter."""
    curves = window_curves(s, turns=1, max_span_turns=2)
    for c1 in curves:
        for c2 in curves:
            assert positive_int(c1, c2) == brute_positive_int(c1, c2), (c1, c2)


class TestEndpointRelation:
    def test_shared_start_clockwise(self):
        rel = endpoint_relation(Bridging(S23, 0, 0), Bridging(S23, 1, 0))
        assert rel.shared_start and not rel.shared_end and rel.clockwise_follows

    def test_shared_end_clockwise(self):
        rel = endpoint_relation(Bridging(S23, 0, 0), Bridging(S23, 0, -1))
        assert rel.shared_end and not rel.shared_start and rel.clockwise_follows

    def test_disjoint_endpoints(self):
        rel = endpoint_relation(Bridging(S23, 1, 0), OuterPeripheral(S23, 1, 3))
        assert not rel.shared_start and not rel.shared_end

    def test_double_share(self):
        alpha = Bridging(S23, 0, 0)
        beta = Bridging(S23, 2, 0)  # the canonical twist of alpha
        rel = endpoint_relation(alpha, beta)
        assert rel.shared_start and rel.shared_end and rel.clockwise_follows

    @pytest.mark.parametrize("s", SMALL_SURFACES, ids=str)
    def test_follow_direction_matches_hom(self, s):
        """At a single shared endpoint with no crossings, following clockwise
        is equivalent to a nonzero morphism in that direction."""
        arcs = window_arcs(s, turns=1)
        for a in arcs:
            for b in arcs:
                if a == b:
                    continue
                if positive_int(a, b) or positive_int(b, a):
                    continue
                rel = endpoint_relation(a, b)
                if rel.shared_start == rel.shared_end:
                    continue
                if rel.clockwise_follows:
                    assert hom_dim(phi(a), phi(b)) >= 1, (a, b)
                else:
                    assert hom_dim(phi(b), phi(a)) >= 1, (a, b)


class TestExceptionalIntersection:
    def test_tube_crossing(self):
        s = Surface(3, 1)
        w = exceptional_intersection(
            InnerPeripheral(s, 1, 3), InnerPeripheral(s, -1, 2)
        )
        assert w is not None

    def test_order_matters(self):
        s = Surface(3, 1)
        assert (
            exceptional_intersection(
                InnerPeripheral(s, 0, 2), InnerPeripheral(s, 1, 3)
            )
            is None
        )

    def test_outer_bridging(self):
        s = Surface(2, 3)
        a, c, e = 0, 1, 1
        w = exceptional_intersection(
            OuterPeripheral(s, a, c + 1), Bridging(s, e, c)
        )
        assert w is not None

    @pytest.mark.parametrize("s", SMALL_SURFACES, ids=str)
    def test_alternative_condition_equivalent(self, s):
        """The backward-shift variant of the defining condition agrees."""
        arcs = window_arcs(s, turns=1)
        for a in arcs:
            for b in arcs:
                if positive_int(a, b) == 0:
                    continue
                forward = positive_int(move(a, ["s", "e"]), b) == 0
                backward = positive_int(a, move(b, ["s-", "e-"])) == 0
                assert forward == backward, (a, b)

    @pytest.mark.parametrize("s", SMALL_SURFACES, ids=str)
    def test_at_most_one_and_peripheral(self, s):
        arcs = window_arcs(s, turns=1)
        for a in arcs:
            for b in arcs:
                w = exceptional_intersection(a, b)
                if w is not None:
                    assert positive_int(a, b) == 1
                    assert not isinstance(a, Bridging)


HUGE = 10**18


class TestCostContract:
    """Counting builds no crossing witnesses.

    A structural check rather than a timing one: CrossingWitness is
    replaced by a subclass that records each construction.
    """

    @pytest.fixture
    def witnesses(self, monkeypatch):
        """Counts witness constructions; one past `limit` fails at once, so
        a count that builds witnesses fails instead of running for ever."""
        log = SimpleNamespace(count=0, limit=0)

        class CountingWitness(intersect.CrossingWitness):
            def __init__(self, offset, config):
                log.count += 1
                assert log.count <= log.limit, "crossing witness built"
                super().__init__(offset, config)

        monkeypatch.setattr(intersect, "CrossingWitness", CountingWitness)
        return log

    @pytest.mark.parametrize("s", [S23, Surface(3, 4), Surface(5, 6)], ids=str)
    def test_hom_ext_classify_build_no_witness_at_huge_gaps(self, s, witnesses):
        low = LineBundle(s, normal_form(0, 0, 0, s))
        high = LineBundle(s, normal_form(0, 0, HUGE, s))
        long_inner, short_inner = TorsionInf(s, 0, HUGE), TorsionInf(s, 1, HUGE // 2)
        long_outer = TorsionZero(s, 0, HUGE)
        for X, Y in [
            (low, high),
            (high, low),
            (low, long_inner),
            (long_outer, low),
            (long_inner, short_inner),
        ]:
            hom_dim(X, Y)
            ext1_dim(X, Y)
            classify_nonzero(X, Y)
        assert hom_dim(low, high) == HUGE + 1
        assert ext1_dim(high, low) == HUGE - 1
        assert witnesses.count == 0

    @pytest.mark.parametrize("s", ACCEPT_SURFACES, ids=str)
    def test_exceptional_intersection_builds_at_most_one(self, s, witnesses):
        witnesses.limit = 1
        curves = window_curves(s, turns=2, max_span_turns=2)
        curves += [InnerPeripheral(s, 0, HUGE), OuterPeripheral(s, 0, HUGE)]
        for a in curves:
            for b in curves:
                witnesses.count = 0
                w = exceptional_intersection(a, b)
                assert witnesses.count == (w is not None), (a, b)

    @pytest.mark.parametrize("s", ACCEPT_SURFACES, ids=str)
    def test_count_is_the_number_of_witnesses(self, s):
        curves = window_curves(s, 3, 3)
        for a in curves:
            for b in curves:
                assert positive_int(a, b) == len(positive_crossings(a, b)), (a, b)

    def test_count_beyond_machine_integers(self):
        # Offsets 0 .. 10**20 - 1 carry the bridging arc's end into (0, 2*10**20).
        wide = InnerPeripheral(S23, 0, 2 * 10**20)
        assert positive_int(wide, Bridging(S23, 1, 0)) == 10**20


KINDS = (0, 1, 2)  # bridging, inner, outer, as `Curve.key()` numbers them
PAIRS = [(k1, k2) for k1 in KINDS for k2 in KINDS]
LIFT_SURFACES = [Surface(1, 1), S23, Surface(3, 4), Surface(5, 6), Surface(7, 2)]


def random_lift(rng, kind, s):
    """A canonical lift (kind, x, y): x in [0, period), a bridging winding
    within two turns, a peripheral span from 1 (degenerate) to two turns."""
    period = core._CURVES[kind]._x_period(s)
    x = rng.randrange(period)
    if kind == 0:
        return kind, x, rng.randint(-2 * s.q, 2 * s.q)
    return kind, x, x + rng.randint(1, 2 * period)


def deck(lift, s, turns):
    """The lift moved `turns` full turns along the cover."""
    kind, x, y = lift
    cls = core._CURVES[kind]
    return kind, x + turns * cls._x_period(s), y + turns * cls._y_period(s)


class TestLiftForm:
    """Both compiled forms of each crossing formula, on lifts at any turn,
    against the brute-force geometric count on the curves."""

    def test_one_formula_per_kind_pair_in_both_forms(self):
        for rules in (intersect._COUNT_RULES, intersect._OFFSET_RULES):
            assert sorted(rules) == PAIRS
            # Each form reads two lifts' (x, y), then p and q: no curve.
            assert {rule.__code__.co_argcount for rule in rules.values()} == {6}
        never = [pair for pair in PAIRS if intersect._COUNT_RULES[pair] is intersect._NO_COUNT]
        assert never == [(0, 1), (0, 2), (1, 2), (2, 1)]
        assert {intersect._OFFSET_RULES[pair] for pair in never} == {intersect._NO_OFFSETS}

    def test_kinds_are_the_curve_keys(self):
        for kind, cls in enumerate(core._CURVES):
            curve = cls(S23, 1, 3)
            assert curve.key() == (kind, 1, 3)
            assert core._curve(curve.key(), S23) == curve
            # The se-step moves both points +1 on the inner boundary and -1
            # on the outer one.
            dx, dy = core._SE_STEPS[kind]
            stepped = core._ends((kind, 1 + dx, 3 + dy), S23, 0)
            assert stepped == tuple((b, i + (1 if b == INNER else -1)) for b, i in (curve.start, curve.end))
        # A sheaf's lift has the kind of its curve's `key()`.
        sheaves = (LineBundle(S23, normal_form(1, 2, 3, S23)), TorsionInf(S23, 1, 4), TorsionZero(S23, 2, 1))
        for X in sheaves:
            lift = core._LIFTS[type(X)](X)
            assert lift[0] == core.phi_inv(X).key()[0]
            assert core._CURVES[lift[0]](S23, *lift[1:]) == core.phi_inv(X)

    @pytest.mark.parametrize("k1, k2", PAIRS, ids=[f"{a}-{b}" for a, b in PAIRS])
    def test_lift_forms_match_the_brute_count(self, k1, k2):
        rng = random.Random(PAIRS.index((k1, k2)))
        count, offsets = intersect._COUNT_RULES[k1, k2], intersect._OFFSET_RULES[k1, k2]
        for _ in range(40):
            s = rng.choice(LIFT_SURFACES)
            a, b = random_lift(rng, k1, s), random_lift(rng, k2, s)
            want = brute_positive_int(core._curve(a, s), core._curve(b, s))
            kmin, kmax, _ = offsets(*a[1:], *b[1:], s.p, s.q)
            assert max(0, kmax - kmin + 1) == want, (s, a, b)
            for t1, t2 in ((0, 0), (1, 0), (0, -1), (-3, 7), (HUGE, -HUGE), (rng.randint(-HUGE, HUGE), 0)):
                a_t, b_t = deck(a, s, t1), deck(b, s, t2)
                assert count(*a_t[1:], *b_t[1:], s.p, s.q) == want, (s, a_t, b_t)
                # Deck turns shift the offsets, and not their number.
                lo, hi, _ = offsets(*a_t[1:], *b_t[1:], s.p, s.q)
                if want:
                    assert (lo, hi) == (kmin + t1 - t2, kmax + t1 - t2), (s, a_t, b_t)
                else:
                    assert hi < lo, (s, a_t, b_t)

    @pytest.mark.parametrize("s", ACCEPT_SURFACES, ids=str)
    def test_se_steps_give_the_serre_dual_count(self, s):
        # A lift moved by its kind's `_SE_STEPS` is a lift of the curve
        # se-shifted once: the count Hom and the pair test read.
        curves = window_curves(s, turns=2, max_span_turns=2)
        curves += [Bridging(s, HUGE, -HUGE), InnerPeripheral(s, -HUGE, HUGE)]
        for a in curves:
            kind, x, y = a.key()
            dx, dy = core._SE_STEPS[kind]
            assert core._CURVES[kind](s, x + dx, y + dy) == a.se_shifted(1)
            for b in curves:
                k2, x2, y2 = b.key()
                shifted = intersect._COUNT_RULES[kind, k2](x + dx, y + dy, x2, y2, s.p, s.q)
                assert shifted == positive_int(a.se_shifted(1), b)
