"""The lift kernel against the curve routes it replaced (`anchor_literal`).

Curves are drawn from windows at windings up to 10^18 either way: bridging
arcs, peripheral arcs, degenerate segments, wrapping peripheral curves and
loops.  Only arcs reach the lift kernels (`exceptional._verdicts`,
`braid._anchor`); the others must be refused by the curve entries before
any table is read.
"""

import pytest
from hypothesis import given, settings, strategies as st

from wplarcs import braid, exceptional
from wplarcs.braid import apply_braid, canonical_theta, se_shift_collection, word
from wplarcs.core import Bridging, InnerPeripheral, Loop, OuterPeripheral, Surface
from wplarcs.errors import NotExceptional
from wplarcs.exceptional import _arc_pair_verdicts, _pair_verdict

from anchor_literal import anchor, apply_braid_literal
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
        both = (_pair_verdict(alpha, beta), _pair_verdict(beta, alpha))
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
        assert braid._twisted(curve.key(), u, v, s) == curve.twisted(u, v).key()
        assert braid._twisted(curve.key(), s.p, s.q, s) == curve.key()


class TestLetters:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_long_words_match_the_letter_by_letter_route(self, data):
        # The letters, each through the untabled `_mutate_pair` on curves,
        # against `apply_braid`, which holds lifts and reads the table.
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
