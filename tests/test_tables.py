"""The pair-verdict, mutation and search tables: bounded by (p, q), whatever the shift."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from wplarcs import braid, exceptional
from wplarcs.braid import (
    LEFT,
    RIGHT,
    _mutate_pair,
    apply_braid,
    canonical_theta,
    mutate_pair,
    normalize_to_theta,
    se_shift_collection,
    word,
)
from wplarcs.core import (
    Bridging,
    InnerPeripheral,
    Loop,
    OuterPeripheral,
    Surface,
    normal_form,
    phi,
    twist,
)
from wplarcs.errors import NotExceptional, SurfaceMismatch
from wplarcs.exceptional import (
    ArcCollection,
    _arc_pair_verdicts,
    _curve,
    _pair_verdict,
    complete_to_maximal,
    is_ordered_exceptional_collection,
)

from anchor_literal import anchor
from conftest import empty_braid_tables, window_arcs

KINDS = (Bridging, InnerPeripheral, OuterPeripheral)
MIX_SURFACES = [Surface(2, 3), Surface(3, 4), Surface(4, 5)]
WINDINGS = [0, 10**9, -(10**9), 10**18, -(10**18)]
TWISTS = [(0, 0), (1, 0), (0, -1), (10**18, -(10**18) + 1), (-(10**9), 7)]


def table_bound(s: Surface) -> int:
    """Anchored pairs on a surface, as the `exceptional` module comment counts them."""
    p, q = s.p, s.q
    return p * (2 * q + 1) + p * (p * p - 1) + q * (q * q - 1) + 2 * (p - 1) * (q - 1)


def search_bounds(s: Surface) -> tuple:
    """(ids, steps, shift entries) of the search tables on a surface, as the
    `braid` comment above `_ARCS` counts them."""
    p, q = s.p, s.q
    peripheral = p * (p - 1) + q * (q - 1)
    window = p * (p + 3 * q) + peripheral
    steps = 2 * (p * (p + 3 * q) * (p * q + 2 * peripheral) + peripheral**2)
    ids = window + steps
    # Into the window, one-to-one for each k, and each k a bridging id's shift.
    return ids, steps, window * ids


def search_table_sizes(s: Surface) -> tuple:
    """(ids, steps, shift entries) of the search tables on the surface s."""
    on_s = {i for i, arc in enumerate(braid._ARCS) if arc.surface == s}
    return (
        len(on_s),
        sum(key[0] in on_s for key in braid._STEPS),
        sum(key[0] in on_s for key in braid._SHIFTS),
    )


def in_folded_window(arc) -> bool:
    """An arc of the window every member of a folded state lies in."""
    s = arc.surface
    if type(arc) is Bridging:
        return -(s.p + 2 * s.q) < arc.j <= s.q
    return arc.is_arc()


def kernel_key(alpha, beta):
    """The key `exceptional._verdicts` tables two arcs' lifts under, or None;
    `braid._anchor` must give the same key for a tabled pair."""
    a, b, s = alpha.key(), beta.key(), alpha.surface
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exceptional, "_PAIR_CACHE", {})
        exceptional._verdicts(a, b, s)
        keys = list(exceptional._PAIR_CACHE)
    assert len(keys) <= 1
    if keys:
        assert braid._anchor(a, b, s)[0] == keys[0]
    return keys[0] if keys else None


def anchored_pair(key: tuple):
    p, q, ka, xa, ya, kb, xb, yb = key
    s = Surface(p, q)
    return KINDS[ka](s, xa, ya), KINDS[kb](s, xb, yb)


def letters(rng: random.Random, r: int, n: int) -> list:
    return [rng.choice([1, -1]) * rng.randint(1, r - 1) for _ in range(n)]


@pytest.fixture
def empty_tables(monkeypatch):
    monkeypatch.setattr(exceptional, "_PAIR_CACHE", {})
    empty_braid_tables(monkeypatch)


class TestTwist:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_twisted_is_the_line_bundle_twist(self, data):
        s = data.draw(st.sampled_from(MIX_SURFACES))
        arc = data.draw(st.sampled_from(window_arcs(s, turns=1)))
        u = data.draw(st.integers(-(10**18), 10**18))
        v = data.draw(st.integers(-(10**18), 10**18))
        assert phi(arc.twisted(u, v)) == twist(phi(arc), normal_form(u, -v, 0, s))
        assert arc.twisted(s.p, s.q) == arc  # the deck translation


class TestEquivariance:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_pair_test_and_mutation_commute_with_twists(self, data):
        s = data.draw(st.sampled_from([Surface(1, 2), Surface(2, 2)] + MIX_SURFACES))
        arcs = window_arcs(s, turns=1)
        alpha = data.draw(st.sampled_from(arcs))
        beta = data.draw(st.sampled_from(arcs))
        u = data.draw(st.integers(-(10**18), 10**18))
        v = data.draw(st.integers(-(10**18), 10**18))
        moved = (alpha.twisted(u, v), beta.twisted(u, v))
        verdict = _pair_verdict(alpha, beta)
        assert _pair_verdict(*moved) == verdict
        both = (verdict, _pair_verdict(beta, alpha))
        assert _arc_pair_verdicts(*moved) == _arc_pair_verdicts(alpha, beta) == both
        keys = [a and a[0] for a in (anchor(alpha, beta), anchor(*moved))]
        assert keys[0] == keys[1] == kernel_key(alpha, beta) == kernel_key(*moved)
        for side in (LEFT, RIGHT):
            if verdict:
                expected = _mutate_pair(alpha, beta, side).twisted(u, v)
                assert _mutate_pair(*moved, side) == expected
                assert mutate_pair(*moved, side) == expected
                assert mutate_pair(alpha, beta, side).twisted(u, v) == expected
            else:
                with pytest.raises(NotExceptional):
                    mutate_pair(*moved, side)


class TestTables:
    @pytest.fixture
    def mixed_run(self, empty_tables):
        """Completions at windings 0, +-1e9 and +-1e18, braids and
        normalisations on each mix surface; the normalised inputs."""
        normalised = []
        rng = random.Random(17)
        for s in MIX_SURFACES:
            r = s.rank
            fan = canonical_theta(s)
            for _ in range(4):
                scrambled = apply_braid(fan, word(r, *letters(rng, r, rng.randint(0, 6))))
                for w in WINDINGS:
                    arcs = se_shift_collection(scrambled, w)
                    seed = [rng.choice([a for a in arcs if isinstance(a, Bridging)])]
                    peripheral = [a for a in arcs if not isinstance(a, Bridging)]
                    seed += rng.sample(peripheral, min(rng.randint(0, 2), len(peripheral)))
                    completed = complete_to_maximal(ArcCollection.of(s, seed))
                    assert set(seed) <= set(completed)
                    assert is_ordered_exceptional_collection(completed)
                    w_letters = word(r, *letters(rng, r, 10))
                    moved = apply_braid(arcs, w_letters)
                    assert apply_braid(moved, w_letters.inverse()) == arcs
                shift = rng.randint(-5, 5)
                start = apply_braid(
                    se_shift_collection(fan, shift), word(r, *letters(rng, r, 4))
                )
                assert apply_braid(start, normalize_to_theta(start)) == fan
                normalised.append(start)
        return normalised

    def test_entries_match_the_uncached_answers(self, mixed_run):
        # An entry holds both verdicts of its pair: (alpha, beta), then
        # (beta, alpha).
        for key, (fwd, bwd) in exceptional._PAIR_CACHE.items():
            alpha, beta = anchored_pair(key)
            assert anchor(alpha, beta)[0] == key == kernel_key(alpha, beta)
            for u, v in TWISTS:
                moved = (alpha.twisted(u, v), beta.twisted(u, v))
                assert _pair_verdict(*moved) == fwd
                assert _pair_verdict(*moved[::-1]) == bwd
        # A mutation entry is the canonical lift of the result at the
        # anchor, read back through the lift twist.
        for (key, side), entry in braid._MUTATE_CACHE.items():
            alpha, beta = anchored_pair(key)
            s = alpha.surface
            assert anchor(alpha, beta)[0] == key == kernel_key(alpha, beta)
            assert KINDS[entry[0]](s, *entry[1:]).key() == entry
            for u, v in TWISTS:
                moved = (alpha.twisted(u, v), beta.twisted(u, v))
                expected = _mutate_pair(*moved, side)
                assert _curve(braid._twisted(entry, u, v, s), s) == expected

    def test_sizes_match_the_curve_tables(self, mixed_run):
        # The curve-keyed tables these replaced ended this run holding
        # 320 pair entries and 232 mutation entries.
        assert (len(exceptional._PAIR_CACHE), len(braid._MUTATE_CACHE)) == (320, 232)

    def test_sizes_stay_within_the_bound(self, mixed_run):
        for s in MIX_SURFACES:
            pairs = [k for k in exceptional._PAIR_CACHE if k[:2] == (s.p, s.q)]
            mutations = [k for k, _ in braid._MUTATE_CACHE if k[:2] == (s.p, s.q)]
            assert 0 < len(pairs) <= table_bound(s)
            assert 0 < len(mutations) <= 2 * table_bound(s)

    def test_search_entries_match_the_curves(self, mixed_run):
        arcs = braid._ARCS
        assert len(arcs) == len(set(arcs)) == len(braid._IDS) == len(braid._FOLDS)
        for i, arc in enumerate(arcs):
            assert braid._IDS[arc] == i
            fold = arc.anchoring_shift()[0] if isinstance(arc, Bridging) else None
            assert braid._FOLDS[i] == fold
        for (a, b, sign), (a2, b2) in braid._STEPS.items():
            alpha, beta = arcs[a], arcs[b]
            if sign > 0:
                expected = (_mutate_pair(alpha, beta, LEFT), alpha)
            else:
                expected = (beta, _mutate_pair(alpha, beta, RIGHT))
            assert (arcs[a2], arcs[b2]) == expected
        for (a, k), b in braid._SHIFTS.items():
            assert k and arcs[a].se_shifted(k) == arcs[b]

    def test_search_tables_stay_within_the_bound(self, mixed_run):
        for s in MIX_SURFACES:
            ids, steps, shifts = search_table_sizes(s)
            bound_ids, bound_steps, bound_shifts = search_bounds(s)
            assert 0 < steps <= bound_steps, (s, steps, bound_steps)
            assert ids <= bound_ids and shifts <= bound_shifts, (s, ids, shifts)

    def test_steps_and_refolds_stay_in_the_folded_window(self, mixed_run):
        # Steps are keyed on two members of a folded state, and a refold
        # lands on one: the argument behind the bound.
        arcs = braid._ARCS
        for a, b, _ in braid._STEPS:
            assert in_folded_window(arcs[a]) and in_folded_window(arcs[b])
        for target in braid._SHIFTS.values():
            assert in_folded_window(arcs[target])

    def test_searches_at_far_shifts_add_no_entries(self, mixed_run):
        sizes = [search_table_sizes(s) for s in MIX_SURFACES]
        mutations = len(braid._MUTATE_CACHE)
        for start in mixed_run:
            s = start[0].surface
            goal, depth = canonical_theta(s), 4 * s.rank
            m, found = braid._bidirectional_search(start, goal, depth, 10**6)
            for t in (10**9, 10**18):
                far = se_shift_collection(start, t)
                assert braid._bidirectional_search(far, goal, depth, 10**6) == (m + t, found)
        assert [search_table_sizes(s) for s in MIX_SURFACES] == sizes
        assert len(braid._MUTATE_CACHE) == mutations

    @pytest.mark.parametrize(
        "s", [Surface(1, 1), Surface(1, 5), Surface(2, 3), Surface(5, 2), Surface(4, 5)],
        ids=str,
    )
    def test_a_bridging_arc_is_followed_by_pq_bridging_arcs(self, s):
        # Bridging partners lie within q turns (Lemma 1), so a 3-turn
        # window sees them all.
        first = Bridging(s, 0, 0)
        after = [b for b in window_arcs(s, turns=3) if isinstance(b, Bridging)]
        assert sum(_pair_verdict(first, b) for b in after) == s.p * s.q

    @pytest.mark.parametrize(
        "s", [Surface(1, 1), Surface(1, 3), Surface(2, 3), Surface(3, 3), Surface(4, 5)],
        ids=str,
    )
    def test_bound_counts_every_anchored_pair(self, s):
        # Bridging arcs within 3 turns reach every anchored bridging pair
        # (|y| <= q), so the keys met are exactly the bounded set.
        arcs = window_arcs(s, turns=3)
        keys = set()
        for alpha in arcs:
            for beta in arcs:
                anchored = anchor(alpha, beta)
                assert kernel_key(alpha, beta) == (anchored and anchored[0])
                if anchored is not None:
                    keys.add(anchored[0])
        assert len(keys) == table_bound(s)

    @pytest.mark.parametrize("s", MIX_SURFACES, ids=str)
    def test_completion_hits_at_every_winding(self, s, empty_tables):
        # Moving every outer index by a multiple of q leaves the peripheral
        # pool and the order of the bridging window as they were, so the
        # completion moves with the seed and meets only tabled pairs.
        seed = [Bridging(s, 1, 2), OuterPeripheral(s, 0, 2)]
        completed = complete_to_maximal(ArcCollection.of(s, seed))
        sizes = len(exceptional._PAIR_CACHE), len(braid._MUTATE_CACHE)
        for w in WINDINGS:
            far = [a.twisted(0, w * s.q) for a in seed]
            assert complete_to_maximal(ArcCollection.of(s, far)) == tuple(
                a.twisted(0, w * s.q) for a in completed
            )
        assert (len(exceptional._PAIR_CACHE), len(braid._MUTATE_CACHE)) == sizes


class TestNonArcs:
    @pytest.mark.parametrize("s", [Surface(2, 3), Surface(3, 4)], ids=str)
    def test_never_anchored_nor_tabled(self, s, empty_tables):
        non_arcs = [
            Loop(s, 1, "t"),
            InnerPeripheral(s, 0, 1),
            InnerPeripheral(s, 0, s.p + 1),
            OuterPeripheral(s, 0, 1),
            OuterPeripheral(s, 0, s.q + 1),
        ]
        partners = [
            Bridging(s, 0, 0),
            Bridging(s, 1, 10**18),
            InnerPeripheral(s, 0, 2),
            OuterPeripheral(s, 1, 3),
        ] + non_arcs
        for bad in non_arcs:
            for other in partners:
                for pair in ((bad, other), (other, bad)):
                    assert _arc_pair_verdicts(*pair) == (False, False)
                    for side in (LEFT, RIGHT):
                        with pytest.raises(NotExceptional):
                            mutate_pair(*pair, side)
        assert exceptional._PAIR_CACHE == {} and braid._MUTATE_CACHE == {}


class TestSurfaces:
    def test_mixed_surfaces_are_refused_even_when_tabled(self, empty_tables):
        # The key holds the first arc's (p, q) only, so a pair whose second
        # arc lies on another surface must be refused before the look-up.
        s, other = Surface(2, 3), Surface(2, 5)
        alpha, beta = Bridging(s, 0, 0), Bridging(s, 1, 0)
        assert _arc_pair_verdicts(alpha, beta)[0]
        mutate_pair(alpha, beta, LEFT)
        stranger = Bridging(other, 1, 0)
        with pytest.raises(SurfaceMismatch):
            _arc_pair_verdicts(alpha, stranger)
        with pytest.raises(SurfaceMismatch):
            mutate_pair(alpha, stranger, LEFT)
