import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from wplarcs import core, exceptional, homext

from wplarcs.core import (
    Bridging,
    InnerPeripheral,
    OuterPeripheral,
    Surface,
    TorsionInf,
    TorsionOrdinary,
    Zero,
    line_bundle,
    phi,
    structure_sheaf,
    x1,
)
from wplarcs.braid import (
    apply_braid,
    canonical_theta,
    mutate_pair,
    normalize_to_theta,
    word,
)
from wplarcs.errors import InternalInvariantViolation, InvalidArguments, NotApplicable
from wplarcs.exceptional import (
    _arc_pair_verdicts,
    _bridging_pool,
    _can_add,
    _pair_verdict,
    _topological_order,
    DISJOINT,
    EXCEPTIONAL_CROSSING,
    NOT_PAIR,
    SHARED_ENDPOINT,
    ArcCollection,
    adjust_endpoints,
    complete_to_maximal,
    extended_boundary_sets,
    external_points,
    is_exceptional_pair,
    is_ordered_exceptional_collection,
    order_collection,
    pair_position,
)
from wplarcs.homext import ext1_dim, hom_dim, is_exceptional

from algebra_oracle import exceptional_pair_oracle
from conftest import (
    ACCEPT_SURFACES,
    SMALL_SURFACES,
    empty_braid_tables,
    window_arcs,
    window_curves,
)
import completion_literal

S23 = Surface(2, 3)
O = structure_sheaf(S23)


def peripheral_pool(s: Surface) -> list:
    """Completion's peripheral pool, as curves."""
    return [exceptional._curve(a, s) for a in exceptional._peripheral_pool(s)]


class TestPairs:
    def test_basic_pairs(self):
        Ox1 = line_bundle(S23, x1(S23))
        assert is_exceptional_pair(O, Ox1)
        assert not is_exceptional_pair(Ox1, O)

    def test_tube_pairs(self):
        s = Surface(3, 1)
        assert is_exceptional_pair(TorsionInf(s, 2, 1), TorsionInf(s, 1, 1))
        assert not is_exceptional_pair(TorsionInf(s, 1, 1), TorsionInf(s, 2, 1))

    def test_non_exceptional_objects(self):
        assert not is_exceptional_pair(TorsionOrdinary(S23, "t", 1), O)
        assert not is_exceptional_pair(TorsionInf(S23, 0, 2), O)

    @pytest.mark.parametrize("s", SMALL_SURFACES, ids=str)
    def test_matches_the_homext_route(self, s):
        """The pair test on curves gives the verdict of the Hom and Ext^1
        counts of `homext`, for exceptional objects and for others."""

        def through_homext(E, F):
            if isinstance(E, (Zero, TorsionOrdinary)) or isinstance(F, (Zero, TorsionOrdinary)):
                return False
            if not (is_exceptional(E) and is_exceptional(F)):
                return False
            return hom_dim(F, E) == 0 and ext1_dim(F, E) == 0

        curves = [c for c in window_curves(s, turns=1) if not c.is_degenerate()]
        objects = [phi(c) for c in curves] + [Zero(s), TorsionOrdinary(s, "t", 1)]
        verdicts = set()
        for E in objects:
            for F in objects:
                expected = through_homext(E, F)
                assert is_exceptional_pair(E, F) == expected, (E, F)
                verdicts.add(expected)
        assert verdicts == {False, True}


class TestPairPosition:
    def test_shared_endpoint(self):
        cls = pair_position(Bridging(S23, 0, 0), Bridging(S23, 1, 0))
        assert cls.tag == SHARED_ENDPOINT

    def test_disjoint(self):
        cls = pair_position(Bridging(S23, 1, 0), OuterPeripheral(S23, 1, 3))
        assert cls.tag == DISJOINT

    def test_exceptional_crossing(self):
        s = Surface(3, 1)
        cls = pair_position(InnerPeripheral(s, -1, 1), InnerPeripheral(s, -2, 0))
        assert cls.tag == EXCEPTIONAL_CROSSING

    def test_reverse_crossing_fails(self):
        # Both extension directions are nonzero here, so no exceptional pair
        # even though the forward crossing passes the shift test.
        s = Surface(3, 1)
        cls = pair_position(InnerPeripheral(s, 1, 3), InnerPeripheral(s, -1, 2))
        assert cls.tag == NOT_PAIR

    @pytest.mark.parametrize(
        "s", SMALL_SURFACES + [Surface(4, 2), Surface(1, 4)], ids=str
    )
    def test_consistent_with_algebra(self, s):
        arcs = window_arcs(s, turns=1)
        for a in arcs:
            for b in arcs:
                geometric = pair_position(a, b).tag != NOT_PAIR
                algebraic = is_exceptional_pair(phi(a), phi(b))
                assert geometric == algebraic, (a, b)


class TestOrderCollection:
    def test_hom_chain(self):
        arcs = [Bridging(S23, 0, 0), Bridging(S23, 1, 0), Bridging(S23, 2, 0)]
        collection = ArcCollection.of(S23, arcs)
        assert order_collection(collection) == (
            Bridging(S23, 0, 0),
            Bridging(S23, 1, 0),
            Bridging(S23, 2, 0),
        )

    def test_covering_fan_rejected(self):
        s = Surface(3, 1)
        arcs = [
            InnerPeripheral(s, 0, 2),
            InnerPeripheral(s, 1, 3),
            InnerPeripheral(s, 2, 4),
        ]
        assert order_collection(ArcCollection.of(s, arcs)) is None

    def test_singleton(self):
        arc = Bridging(S23, 0, 0)
        assert order_collection(ArcCollection.of(S23, [arc])) == (arc,)

    # B(2, 3) is B(0, 0) one turn on: the same arc.
    @pytest.mark.parametrize("second", [(0, 0), (2, 3)], ids=str)
    def test_repeated_arc_refused(self, second):
        arcs = [Bridging(S23, 0, 0), Bridging(S23, *second)]
        with pytest.raises(NotApplicable, match="an arc repeats"):
            ArcCollection.of(S23, arcs)
        # A non-arc is still refused as such, before any repeat.
        with pytest.raises(NotApplicable, match="not an arc"):
            ArcCollection.of(S23, [InnerPeripheral(S23, 0, 3)] * 2)

    def test_empty_list_ordered(self):
        assert is_ordered_exceptional_collection(()) is True

    def test_canonical_fan_ordered_but_not_reversed(self):
        from wplarcs.braid import canonical_theta

        fan = canonical_theta(S23)
        assert is_ordered_exceptional_collection(fan)
        assert not is_ordered_exceptional_collection(tuple(reversed(fan)))

    @pytest.mark.parametrize("s", SMALL_SURFACES, ids=str)
    def test_thm_equivalence_random_lists(self, s):
        """Geometric verdict equals the pairwise algebraic verdict."""
        rng = random.Random(7)
        arcs = window_arcs(s, turns=1)
        for _ in range(150):
            size = rng.randint(1, s.rank)
            sample = rng.sample(arcs, min(size, len(arcs)))
            listed = tuple(sample)
            algebraic = all(
                is_exceptional_pair(phi(listed[i]), phi(listed[j]))
                for i in range(len(listed))
                for j in range(i + 1, len(listed))
            )
            assert is_ordered_exceptional_collection(listed) == algebraic
            ordered = order_collection(ArcCollection.of(s, sample))
            if ordered is not None:
                assert is_ordered_exceptional_collection(ordered)


class TestExternalPoints:
    def test_single_peripheral(self):
        collection = ArcCollection.of(S23, [InnerPeripheral(S23, 0, 2)])
        inner, outer = external_points(collection)
        assert inner == {0}
        assert outer == {0, 1, 2}

    def test_all_bridging(self):
        collection = ArcCollection.of(S23, [Bridging(S23, 0, 0)])
        inner, outer = external_points(collection)
        assert inner == {0, 1}
        assert outer == {0, 1, 2}

    def test_two_arc_fan(self):
        # Strict containment: the endpoints 0 and 3 = 0 stay external.
        s = Surface(3, 1)
        collection = ArcCollection.of(
            s, [InnerPeripheral(s, 0, 2), InnerPeripheral(s, 1, 3)]
        )
        inner, _ = external_points(collection)
        assert inner == {0}

    def test_covering_fan(self):
        s = Surface(3, 1)
        collection = ArcCollection.of(
            s,
            [
                InnerPeripheral(s, 0, 2),
                InnerPeripheral(s, 1, 3),
                InnerPeripheral(s, 2, 4),
            ],
        )
        inner, _ = external_points(collection)
        assert inner == set()


class TestAdjustEndpoints:
    def test_adjustment(self):
        collection = ArcCollection.of(S23, [InnerPeripheral(S23, 0, 2)])
        # Point 1 is contained in the peripheral, which starts at 0 = 1 - 1,
        # so it lies in the extended inner set and adjusts forward to 2.
        assert adjust_endpoints(collection, Bridging(S23, 1, 0)) == Bridging(
            S23, 2, 0
        )

    def test_fixpoint(self):
        collection = ArcCollection.of(S23, [InnerPeripheral(S23, 0, 2)])
        arc = Bridging(S23, 0, 0)
        assert adjust_endpoints(collection, arc) == arc

    def test_outside_rejected(self):
        s = Surface(3, 1)
        collection = ArcCollection.of(s, [InnerPeripheral(s, 0, 3)])
        inner_bar, _ = extended_boundary_sets(collection)
        assert 2 not in inner_bar
        with pytest.raises(NotApplicable):
            adjust_endpoints(collection, Bridging(s, 2, 0))


class TestCompletion:
    def test_empty_at_11(self):
        s = Surface(1, 1)
        completed = complete_to_maximal(ArcCollection.of(s, []))
        assert len(completed) == 2

    def test_contains_seed(self):
        seed = Bridging(S23, 0, 0)
        completed = complete_to_maximal(ArcCollection.of(S23, [seed]))
        assert len(completed) == 5
        assert seed in completed

    def test_already_maximal(self):
        from wplarcs.braid import canonical_theta

        arcs = canonical_theta(S23)
        completed = complete_to_maximal(ArcCollection.of(S23, arcs))
        assert set(completed) == set(arcs)

    @pytest.mark.parametrize("s", SMALL_SURFACES + [Surface(3, 3)], ids=str)
    def test_random_completions_census(self, s):
        """Completions reach size p + q with the external-point census."""
        rng = random.Random(11)
        arcs = window_arcs(s, turns=1)
        for _ in range(25):
            sample = []
            rng.shuffle(arcs)
            for arc in arcs:
                trial = sample + [arc]
                if order_collection(ArcCollection.of(s, trial)) is not None:
                    sample = trial
                if len(sample) >= rng.randint(1, s.rank):
                    break
            completed = complete_to_maximal(ArcCollection.of(s, sample))
            assert len(completed) == s.rank
            assert set(sample) <= set(completed)
            assert is_ordered_exceptional_collection(completed)
            collection = ArcCollection.of(s, completed)
            inner, outer = external_points(collection)
            k, l = len(inner), len(outer)
            inner_p = sum(1 for a in completed if isinstance(a, InnerPeripheral))
            outer_p = sum(1 for a in completed if isinstance(a, OuterPeripheral))
            bridging = sum(1 for a in completed if isinstance(a, Bridging))
            assert (inner_p, outer_p, bridging) == (s.p - k, s.q - l, k + l)


LEMMA_SURFACES = [Surface(p, q) for p in range(1, 6) for q in range(1, 6)]
RANK_8_SURFACES = [Surface(p, n - p) for n in range(2, 9) for p in range(1, n)]


class TestOnePassCompletion:
    """The facts that make one first-fit pass complete every collection."""

    @pytest.mark.parametrize("s", LEMMA_SURFACES, ids=str)
    def test_far_bridging_arcs_never_pair(self, s):
        # Lemma 1: B(i, j), B(i', j') with i, i' in [0, p) form an
        # exceptional pair in some order only if |j - j'| <= q.
        bridging = [a for a in window_arcs(s, turns=3) if isinstance(a, Bridging)]
        pairs = 0
        for a in bridging:
            for b in bridging:
                if abs(a.j - b.j) > s.q:
                    assert not _pair_verdict(a, b), (a, b)
                elif _pair_verdict(a, b):
                    pairs += 1
        assert pairs > 0

    @pytest.mark.parametrize("s", LEMMA_SURFACES, ids=str)
    def test_peripheral_verdicts_depend_on_j_mod_q(self, s):
        # Lemma 2: against a peripheral arc, B(i, j) behaves as B(i, j mod q).
        arcs = window_arcs(s, turns=3)
        peripheral = [a for a in arcs if not isinstance(a, Bridging)]
        for b in arcs:
            if isinstance(b, Bridging):
                rep = Bridging(s, b.i, b.j % s.q)
                for c in peripheral:
                    assert _pair_verdict(b, c) == _pair_verdict(rep, c), (b, c)
                    assert _pair_verdict(c, b) == _pair_verdict(c, rep), (b, c)

    @pytest.mark.parametrize("s", RANK_8_SURFACES, ids=str)
    def test_seeds_without_bridging_arcs(self, s):
        pool = peripheral_pool(s)
        rng = random.Random(23)
        seeds = [[]] + [[arc] for arc in pool]
        for _ in range(10):
            seed = []
            for arc in rng.sample(pool, len(pool)):
                if order_collection(ArcCollection.of(s, seed + [arc])) is not None:
                    seed.append(arc)
            seeds.append(seed[: rng.randint(1, max(1, len(seed)))])
        for seed in seeds:
            completed = complete_to_maximal(ArcCollection.of(s, seed))
            assert len(completed) == s.rank
            assert set(seed) <= set(completed)
            assert is_ordered_exceptional_collection(completed)

    @pytest.mark.parametrize("s", [Surface(1, 1), Surface(2, 3), Surface(4, 5)], ids=str)
    @pytest.mark.parametrize("js", [[], [0], [10**18, 10**18 + 1]], ids=str)
    def test_bridging_window_rule(self, s, js):
        # Nearest the anchor interval first: the argument for one pass
        # needs the first bridging arc kept to be within q/2 of 0.
        seed = [(0, 0, j) for j in js] + [(1, 0, 2)]
        lo, hi, margin = (min(js), max(js), s.q) if js else (0, 0, 2 * s.q)
        pool = list(_bridging_pool(s, seed))
        window = range(lo - margin, hi + margin + 1)
        assert set(pool) == {Bridging(s, i, j).key() for i in range(s.p) for j in window}
        distances = [max(lo - j, j - hi, 0) for _, _, j in pool]
        assert distances == sorted(distances)
        for d in set(distances):
            same = [c for c, e in zip(pool, distances) if e == d]
            assert same == sorted(same)

    @pytest.mark.parametrize(
        "s", [Surface(2, 3), Surface(3, 3), Surface(4, 5), Surface(1, 7)], ids=str
    )
    def test_pair_tests_per_completion(self, s, monkeypatch):
        # Every peripheral arc and a window of at most p(4q + 1) bridging
        # arcs, each tried against at most r arcs with one kernel call
        # for both orders, plus one call per pair of the seed.  No
        # unordered pair is looked up twice; the kernel anchors its pair
        # in line, once a call.  The completion is called unwrapped,
        # without the recheck that conftest adds.
        bound = s.rank * (s.p**2 + s.q**2 + 4 * s.p * s.q + s.p)
        complete = exceptional.complete_to_maximal.__wrapped__
        verdicts = exceptional._verdicts
        looked_up = []
        for j in (0, s.q * 10**18):
            calls = [0]
            pairs = set()

            def counting(a, b, s):
                calls[0] += 1
                pairs.add(frozenset((a, b)))
                return verdicts(a, b, s)

            monkeypatch.setattr(exceptional, "_verdicts", counting)
            complete(ArcCollection.of(s, [Bridging(s, 0, j)]))
            assert len(pairs) == calls[0]
            looked_up.append(calls[0])
        assert 0 < looked_up[0] == looked_up[1] <= bound

    @pytest.mark.parametrize("s", [Surface(2, 3), Surface(4, 5)], ids=str)
    def test_seed_pairs_are_looked_up_once(self, s, monkeypatch):
        # A seed that is already maximal costs one kernel call per
        # unordered pair.
        calls = [0]
        verdicts = exceptional._verdicts

        def counting(a, b, s):
            calls[0] += 1
            return verdicts(a, b, s)

        monkeypatch.setattr(exceptional, "_verdicts", counting)
        fan = canonical_theta(s)
        exceptional.complete_to_maximal.__wrapped__(ArcCollection.of(s, fan))
        assert calls[0] == s.rank * (s.rank - 1) // 2


LITERAL_SURFACES = ACCEPT_SURFACES + [Surface(4, 5)]


class TestLiteralCompletion:
    """The lazy, tabled completion returns the tuple of the literal pass in
    `completion_literal`: full sorted pools, untabled verdicts both ways."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_same_tuple_as_the_literal_pass(self, data):
        s = data.draw(st.sampled_from(LITERAL_SURFACES))
        seed = []
        if data.draw(st.booleans()):
            j = data.draw(
                st.one_of(st.integers(-3 * s.q, 3 * s.q), st.integers(-(10**18), 10**18))
            )
            seed.append(Bridging(s, data.draw(st.integers(0, s.p - 1)), j))
        pool = peripheral_pool(s)
        extra = st.lists(st.sampled_from(pool), max_size=2) if pool else st.just([])
        for arc in data.draw(extra):
            trial = ArcCollection.of(s, set(seed + [arc]))
            if completion_literal.order_collection(trial) is not None:
                seed = list(trial.arcs)
        collection = ArcCollection.of(s, seed)
        expected = completion_literal.complete_to_maximal(collection)
        assert complete_to_maximal(collection) == expected

    @pytest.mark.parametrize("s", LITERAL_SURFACES, ids=str)
    def test_peripheral_seeds(self, s):
        # The empty seed and every one-arc peripheral seed: the bridging
        # window is then the 2q window around 0.
        for arc in [None] + peripheral_pool(s):
            collection = ArcCollection.of(s, [] if arc is None else [arc])
            expected = completion_literal.complete_to_maximal(collection)
            assert complete_to_maximal(collection) == expected, arc


class TestCompletionGuard:
    @pytest.mark.parametrize(
        "p, q", [(1, 100), (51, 50), (1000, 1000), (1, 99), (50, 50)]
    )
    def test_refused_above_the_rank_bound_before_any_work(self, monkeypatch, p, q):
        def started(*args):
            raise RuntimeError("completion started")

        monkeypatch.setattr(exceptional, "_precedence", started)
        s = Surface(p, q)
        refused = p + q > 100
        with pytest.raises(InvalidArguments if refused else RuntimeError):
            complete_to_maximal(ArcCollection.of(s, [Bridging(s, 0, 0)]))


class TestCompletionRecheck:
    def test_every_completion_is_rechecked(self, monkeypatch):
        # conftest wraps `complete_to_maximal` before this module binds it,
        # so a completion that loses exceptionality fails the test that
        # made it.  Here every candidate is added, unchecked, with no edge.
        assert complete_to_maximal is exceptional.complete_to_maximal
        assert complete_to_maximal.__wrapped__ is not complete_to_maximal

        def add_unchecked(arcs, edges, candidate, s):
            edges[len(arcs)] = set()
            arcs.append(candidate)
            return True

        monkeypatch.setattr(exceptional, "_can_add", add_unchecked)
        with pytest.raises(InternalInvariantViolation, match="lost exceptionality"):
            complete_to_maximal(ArcCollection.of(S23, [Bridging(S23, 0, 0)]))


class TestCanAdd:
    @pytest.mark.parametrize("s", ACCEPT_SURFACES + [Surface(3, 4)], ids=str)
    def test_matches_ordering_the_enlarged_set(self, s):
        """A window arc can be added exactly when the enlarged set orders,
        by the untabled literal order; an added arc leaves the digraph
        ordering the enlarged set, a refused one leaves it as it was."""
        rng = random.Random(31)
        r = s.rank
        fan = canonical_theta(s)
        window = window_arcs(s, turns=1)
        cycles = 0  # every pair passes one way, yet the order has a cycle
        for _ in range(8):
            letters = [
                rng.choice([1, -1]) * rng.randint(1, r - 1)
                for _ in range(rng.randint(0, 6))
            ]
            L = apply_braid(fan, word(r, *letters), validate=False)
            subset = rng.sample(L, rng.randint(1, r))
            lifts, edges = exceptional._precedence(ArcCollection.of(s, subset))
            arcs = [exceptional._curve(a, s) for a in lifts]
            for cand in window:
                if cand in arcs:
                    continue
                grown, grown_edges = list(lifts), {i: set(e) for i, e in edges.items()}
                added = _can_add(grown, grown_edges, cand.key(), s)
                both_ways = completion_literal._pairs_ok
                pairs_pass = all(any(both_ways(a, cand)) for a in arcs)
                enlarged = ArcCollection.of(s, arcs + [cand])
                ordered = completion_literal.order_collection(enlarged)
                assert added == (ordered is not None), (arcs, cand)
                if added:
                    assert grown == lifts + [cand.key()]
                    assert _topological_order(grown, grown_edges, s) == ordered
                else:
                    assert (grown, grown_edges) == (lifts, edges)
                cycles += pairs_pass and ordered is None
        if r >= 4:
            assert cycles > 0


class TestArcsAlone:
    """Collections are decided and completed on the arcs, never on sheaves."""

    @pytest.mark.parametrize(
        "s", ACCEPT_SURFACES + [Surface(3, 4), Surface(4, 5)], ids=str
    )
    def test_pair_test_matches_curve_free_oracle(self, s, monkeypatch):
        monkeypatch.setattr(exceptional, "_PAIR_CACHE", {})
        arcs = window_arcs(s, turns=3)
        sheaves = [phi(a) for a in arcs]
        for a, E in zip(arcs, sheaves):
            for b, F in zip(arcs, sheaves):
                expected = exceptional_pair_oracle(E, F)
                assert _pair_verdict(a, b) == expected, (a, b)
                assert _arc_pair_verdicts(a, b)[0] == expected, (a, b)
                assert is_exceptional_pair(E, F) == expected, (a, b)

    @pytest.mark.parametrize("kind", [InnerPeripheral, OuterPeripheral])
    @pytest.mark.parametrize("j", [10**18, -(10**18)])
    @pytest.mark.parametrize("s", [Surface(2, 3), Surface(4, 5)], ids=str)
    def test_completion_at_huge_winding(self, s, j, kind):
        seed = [Bridging(s, 0, j), kind(s, 1, 3)]
        completed = complete_to_maximal(ArcCollection.of(s, seed))
        assert len(completed) == s.rank
        assert set(seed) <= set(completed)
        assert is_ordered_exceptional_collection(completed)

    @pytest.mark.parametrize("s", [Surface(2, 3), Surface(4, 5)], ids=str)
    def test_bridging_pool_is_anchored_at_the_collection(self, s):
        far = list(_bridging_pool(s, [(0, 0, 10**18)]))
        assert len(far) == len(list(_bridging_pool(s, [(0, 0, 0)])))
        assert (0, 0, 10**18) in far

    def test_collections_build_no_sheaf(self, monkeypatch):
        s = Surface(3, 4)
        fan = canonical_theta(s)
        arcs = apply_braid(fan, word(s.rank, 1, -3, 5, 2))
        seed = [a for a in arcs if isinstance(a, Bridging)][:1]

        def boom(*args, **kwargs):
            raise AssertionError("a collection operation built a sheaf")

        banned = (core.phi, core.phi_inv, homext.hom_dim, homext.ext1_dim)
        for name, module in list(sys.modules.items()):
            if name == "wplarcs" or name.startswith("wplarcs."):
                for attr, value in list(vars(module).items()):
                    if any(value is f for f in banned):
                        monkeypatch.setattr(module, attr, boom)
        monkeypatch.setattr(exceptional, "_PAIR_CACHE", {})
        empty_braid_tables(monkeypatch)
        with pytest.raises(AssertionError):
            is_exceptional_pair(O, O)

        assert set(order_collection(ArcCollection.of(s, arcs))) == set(arcs)
        assert is_ordered_exceptional_collection(arcs)
        completed = complete_to_maximal(ArcCollection.of(s, seed))
        assert len(completed) == s.rank and set(seed) <= set(completed)
        assert mutate_pair(arcs[0], arcs[1], "left").is_arc()
        back = apply_braid(arcs, word(s.rank, -2, -5, 3, -1))
        assert tuple(back) == tuple(fan)
        assert tuple(apply_braid(arcs, normalize_to_theta(arcs))) == tuple(fan)
