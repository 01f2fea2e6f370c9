"""The weight swap sigma (`sigma.py`) against L4 and L5.

Pair verdicts are invariant under sigma, mutation on either side commutes
with it on the same side, and so does the braid action, letter by letter.
Pairs are drawn from a window around the anchor and twisted together by up
to 10^18 turns.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from wplarcs import braid, exceptional
from wplarcs.braid import LEFT, RIGHT, apply_braid, canonical_theta, se_shift_collection, word
from wplarcs.core import Surface, _curve, _twisted

from conftest import window_arcs
from sigma import sigma, sigma_curves, swapped

SURFACES = [Surface(p, q) for p, q in ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 5), (2, 5))]
FAR = st.one_of(st.integers(-3, 3), st.integers(-(10**18), 10**18))


@lru_cache(maxsize=None)
def window(s: Surface) -> list:
    """The lifts of the arcs within one turn of the anchor on `s`."""
    return [a.key() for a in window_arcs(s, turns=1)]


@lru_cache(maxsize=None)
def window_pairs(s: Surface, exceptional_only: bool) -> list:
    arcs = window(s)
    pairs = [(a, b) for a in arcs for b in arcs]
    if exceptional_only:
        pairs = [(a, b) for a, b in pairs if exceptional._verdicts(a, b, s)[0]]
    return pairs


@st.composite
def twisted_pairs(draw, exceptional_only=False):
    """(a, b, s): two lifts on `s` twisted together by up to 10^18 turns."""
    s = draw(st.sampled_from(SURFACES))
    a, b = draw(st.sampled_from(window_pairs(s, exceptional_only)))
    u, v = draw(FAR), draw(FAR)
    return _twisted(a, u, v, s), _twisted(b, u, v, s), s


class TestSigma:
    def test_is_an_involution_on_arcs(self):
        for s in SURFACES:
            for a in window(s):
                assert sigma(sigma(a, s), swapped(s)) == a
                assert _curve(sigma(a, s), swapped(s)).is_arc()

    @settings(max_examples=400, deadline=None)
    @given(pair=twisted_pairs())
    def test_verdicts_are_invariant(self, pair):
        a, b, s = pair
        assert exceptional._verdicts(sigma(a, s), sigma(b, s), swapped(s)) == exceptional._verdicts(a, b, s)

    @settings(max_examples=400, deadline=None)
    @given(pair=twisted_pairs(exceptional_only=True), side=st.sampled_from([LEFT, RIGHT]))
    def test_mutation_commutes_on_the_same_side(self, pair, side):
        a, b, s = pair
        t = swapped(s)
        mutated = braid._mutate_pair(a, b, side, s)
        assert braid._mutate_pair(sigma(a, s), sigma(b, s), side, t) == sigma(mutated, s)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_braid_action_commutes_letter_by_letter(self, data):
        s = data.draw(st.sampled_from(SURFACES[1:]))
        r, t = s.rank, swapped(s)
        arcs = se_shift_collection(canonical_theta(s), data.draw(FAR))
        images = sigma_curves(arcs, s)
        signed = st.integers(1, r - 1).flatmap(lambda i: st.sampled_from([i, -i]))
        for letter in data.draw(st.lists(signed, min_size=1, max_size=30)):
            arcs = apply_braid(arcs, word(r, letter))
            images = apply_braid(images, word(r, letter))
            assert images == sigma_curves(arcs, s)
