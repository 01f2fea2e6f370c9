"""The lift kernel against the curve routes it replaced (`anchor_literal`).

Curves are drawn from windows at windings up to 10^18 either way: bridging
arcs, peripheral arcs, degenerate segments, wrapping peripheral curves and
loops.  Only arcs reach the lift kernels (`exceptional._verdicts`,
`braid._anchor`); the others must be refused by the curve entries before
any table is read.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from wplarcs import braid, core, exceptional
from wplarcs.braid import apply_braid, canonical_theta, se_shift_collection, word
from wplarcs.core import Bridging, InnerPeripheral, Loop, OuterPeripheral, Surface
from wplarcs.errors import NotExceptional
from wplarcs.exceptional import ArcCollection, _arc_pair_verdicts

from anchor_literal import anchor, anchored_pairs, apply_braid_literal, mutate_literal, pair_verdict
from conftest import empty_braid_tables

SURFACES = [Surface(p, q) for p, q in ((1, 1), (1, 3), (2, 2), (2, 3), (3, 4), (4, 5))]
FAR = st.one_of(st.integers(-3, 3), st.integers(-(10**18), 10**18))


@st.composite
def curves(draw, s: Surface):
    """A curve on `s` with its winding or base point up to 10^18 turns away."""
    kind = draw(st.sampled_from(["bridging", "inner", "outer", "loop"]))
    if kind == "loop":
        return Loop(s, draw(st.integers(1, 3)), "t")
    turns = draw(FAR)
    if kind == "bridging":
        j = draw(st.integers(-s.q, s.q)) + turns * s.q
        return Bridging(s, draw(st.integers(0, s.p - 1)), j)
    cls, period = (InnerPeripheral, s.p) if kind == "inner" else (OuterPeripheral, s.q)
    a = draw(st.integers(0, period - 1)) + turns * period
    # Span 1 is a degenerate segment, more than a turn a wrapping curve.
    return cls(s, a, a + draw(st.integers(1, 2 * period + 1)))


@pytest.fixture
def empty_tables(monkeypatch):
    monkeypatch.setattr(exceptional, "_PAIR_CACHE", {})
    empty_braid_tables(monkeypatch)


class TestPairKernel:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_key_and_verdicts_match_the_curve_routes(self, data):
        s = data.draw(st.sampled_from(SURFACES))
        alpha, beta = data.draw(curves(s)), data.draw(curves(s))
        literal = anchor(alpha, beta)
        both = (pair_verdict(alpha, beta), pair_verdict(beta, alpha))
        sizes = len(exceptional._PAIR_CACHE), len(braid._MUTATE_CACHE)
        assert _arc_pair_verdicts(alpha, beta) == both
        assert _arc_pair_verdicts(beta, alpha) == both[::-1]
        if not (alpha.is_arc() and beta.is_arc()):
            assert literal is None and both == (False, False)
            for side in (braid.LEFT, braid.RIGHT):
                with pytest.raises(NotExceptional):
                    braid.mutate_pair(alpha, beta, side)
            # A non-arc never reaches a table.
            assert (len(exceptional._PAIR_CACHE), len(braid._MUTATE_CACHE)) == sizes
            return
        a, b = alpha.key(), beta.key()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exceptional, "_PAIR_CACHE", {})
            assert exceptional._verdicts(a, b, s) == both
            # Tabled under the literal key, if at all (Lemma 1 pairs not).
            tabled = [] if literal is None else [literal[0]]
            assert list(exceptional._PAIR_CACHE) == tabled
            assert exceptional._verdicts(b, a, s) == both[::-1]
        if literal is not None:
            assert braid._anchor(a, b, s) == literal

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_lift_twist_is_the_curve_twist(self, data):
        s = data.draw(st.sampled_from(SURFACES))
        curve = data.draw(curves(s).filter(lambda c: not isinstance(c, Loop)))
        u, v = data.draw(FAR), data.draw(FAR)
        # Inner indices move by u, outer ones by v, through the constructor.
        kind, x, y = curve.key()
        dx, dy = {0: (u, v), 1: (u, u), 2: (v, v)}[kind]
        twisted = type(curve)(s, x + dx, y + dy)
        assert core._twisted(curve.key(), u, v, s) == twisted.key()
        assert curve.twisted(u, v) == twisted
        assert core._twisted(curve.key(), s.p, s.q, s) == curve.key()


EXHAUSTIVE_SURFACES = [Surface(p, q) for p in range(1, 9) for q in range(1, 10 - p)]


class TestMutationExhaustive:
    @pytest.mark.parametrize("s", EXHAUSTIVE_SURFACES, ids=str)
    def test_every_anchored_pair_matches_the_curve_route(self, s):
        # Mutation commutes with twists, so the anchored pairs stand for
        # every exceptional pair on the surface.
        checked = 0
        for alpha, beta in anchored_pairs(s):
            if not pair_verdict(alpha, beta):
                continue
            for side in (braid.LEFT, braid.RIGHT):
                lift = braid._mutate_pair(alpha.key(), beta.key(), side, s)
                assert core._curve(lift, s) == mutate_literal(alpha, beta, side), (alpha, beta, side)
                checked += 1
        assert checked > 0


class TestLetters:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_long_words_match_the_letter_by_letter_route(self, data):
        # The letters, each through the untabled `_mutate_pair` on curves
        # (`mutate_literal`), against `apply_braid`, which holds lifts and
        # reads the table.
        s = data.draw(st.sampled_from(SURFACES[1:]))
        r = s.rank
        start = se_shift_collection(canonical_theta(s), data.draw(FAR))
        signed = st.integers(1, r - 1).flatmap(lambda i: st.sampled_from([i, -i]))
        w = word(r, *data.draw(st.lists(signed, min_size=200, max_size=200)))
        assert apply_braid(start, w) == apply_braid_literal(start, w)
        assert apply_braid(start, w, validate=False) == apply_braid_literal(start, w)

    def test_a_cold_word_fills_the_table_it_reads(self, empty_tables):
        s = Surface(3, 4)
        fan = se_shift_collection(canonical_theta(s), -(10**18))
        w = word(s.rank, *([3, -1, 4, 2, -5, 6] * 30))
        assert apply_braid(fan, w) == apply_braid_literal(fan, w)
        filled = len(braid._MUTATE_CACHE)
        assert filled > 0
        assert apply_braid(se_shift_collection(fan, 10**18), w) == apply_braid_literal(
            se_shift_collection(fan, 10**18), w
        )
        assert len(braid._MUTATE_CACHE) == filled


def built_curves(monkeypatch) -> list:
    """Records every curve built from here on: by a class constructor
    (`_EndpointCurve.__init__`) or from a lift (`core._curve`, at every
    module binding)."""
    built = []
    init, curve = core._EndpointCurve.__init__, core._curve

    def counted_init(self, *args):
        init(self, *args)
        built.append(self)

    def counted_curve(lift, s):
        built.append(curve(lift, s))
        return built[-1]

    monkeypatch.setattr(core._EndpointCurve, "__init__", counted_init)
    for name, module in list(sys.modules.items()):
        if name.startswith("wplarcs") and getattr(module, "_curve", None) is curve:
            monkeypatch.setattr(module, "_curve", counted_curve)
    return built


class TestCurvesBuilt:
    def test_cold_completion_builds_only_the_returned_arcs(self, monkeypatch, empty_tables):
        # Every pair-table miss is counted on the two lifts.
        s = Surface(3, 4)
        collection = ArcCollection.of(s, [Bridging(s, 1, 2), OuterPeripheral(s, 0, 2)])
        built = built_curves(monkeypatch)
        # Unwrapped: the tests' recheck orders the result again.
        completed = exceptional.complete_to_maximal.__wrapped__(collection)
        assert len(exceptional._PAIR_CACHE) > s.rank
        assert len(completed) == s.rank
        assert [id(c) for c in built] == [id(c) for c in completed]

    def test_a_mutation_builds_only_its_result(self, monkeypatch, empty_tables):
        # A cold pair is decided and mutated on its lifts: the one curve
        # built is the result, cold or warm.
        s = Surface(3, 4)
        arcs = apply_braid(canonical_theta(s), word(s.rank, 1, -3, 5, 2, 4, -6))
        built = built_curves(monkeypatch)
        orthogonal = 0
        for alpha, beta in zip(arcs, arcs[1:]):
            for side in (braid.LEFT, braid.RIGHT):
                braid._MUTATE_CACHE.clear()
                built.clear()
                result = braid.mutate_pair(alpha, beta, side)
                assert len(braid._MUTATE_CACHE) == 1 and built == [result]
                assert [id(c) for c in built] == [id(result)]
                orthogonal += result in (alpha, beta)
                built.clear()
                assert braid.mutate_pair(alpha, beta, side) == result
                assert built == [result]
        assert 0 < orthogonal < 2 * (s.rank - 1)

    def test_a_search_step_builds_no_curve(self, monkeypatch, empty_tables):
        # Step-table misses apply a letter to two ids' lifts and look the
        # results' ids up by lift; only the goal fan is built as curves.
        s = Surface(3, 4)
        fan = canonical_theta(s)
        start = apply_braid(fan, word(s.rank, 1, -3, 5, 2, 4, -6))
        built = built_curves(monkeypatch)
        braid.normalize_to_theta(start)
        assert len(braid._STEPS) > 0 and len(braid._MUTATE_CACHE) > 0
        assert built == list(fan)
