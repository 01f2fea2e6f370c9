import random

import pytest
from hypothesis import given, settings, strategies as st

from wplarcs import braid
from wplarcs.core import (
    Bridging,
    InnerPeripheral,
    Loop,
    OuterPeripheral,
    Surface,
    canonical,
    line_bundle,
    move,
    phi,
    structure_sheaf,
)
from wplarcs.braid import (
    BraidWord,
    apply_braid,
    canonical_theta,
    full_twist_word,
    mutate_pair,
    normalize_to_theta,
    se_shift_collection,
    start_shift_word,
    theta,
    word,
)
from wplarcs.errors import IndexOutOfRange, InvalidArguments, NotApplicable, NotExceptional
from wplarcs.exceptional import (
    is_exceptional_pair,
    is_ordered_exceptional_collection,
    order_collection,
    ArcCollection,
)

from anchor_literal import apply_letter
from conftest import ACCEPT_SURFACES, empty_braid_tables, window_arcs
from normalize_literal import _compose_power, curve_keyed_search, normalize_literal
from normalize_literal import _fold as fold_literal
from algebra_oracle import (
    algebraic_left_mutation,
    algebraic_right_mutation,
    exceptional_pair_oracle,
)

S23 = Surface(2, 3)

MUTATION_SURFACES = [
    Surface(1, 1),
    Surface(1, 2),
    Surface(2, 2),
    Surface(2, 3),
    Surface(3, 1),
    Surface(1, 3),
]


def random_collections(s, rng, count, max_letters=6):
    base = canonical_theta(s)
    out = [base]
    r = s.rank
    for _ in range(count - 1):
        letters = [
            rng.choice([1, -1]) * rng.randint(1, r - 1)
            for _ in range(rng.randint(0, max_letters))
        ]
        out.append(apply_braid(base, word(r, *letters), validate=False))
    return out


class TestMutatePair:
    def test_doubly_shared(self):
        assert mutate_pair(Bridging(S23, 0, 0), Bridging(S23, 2, 0), "left") == (
            Bridging(S23, 0, 3)
        )
        assert mutate_pair(Bridging(S23, 0, 0), Bridging(S23, 2, 0), "right") == (
            Bridging(S23, 4, 0)
        )

    def test_shared_end(self):
        # Kernel of the unique mono: an outer torsion class.
        result = mutate_pair(Bridging(S23, 0, 0), Bridging(S23, 0, -1), "left")
        assert result == OuterPeripheral(S23, -1, 1)

    def test_orthogonal(self):
        a = Bridging(S23, 1, 0)
        b = OuterPeripheral(S23, 1, 3)
        assert mutate_pair(a, b, "left") == b
        assert mutate_pair(a, b, "right") == a

    def test_crossing_smoothing(self):
        s = Surface(3, 1)
        a, b = InnerPeripheral(s, -1, 1), InnerPeripheral(s, -2, 0)
        assert mutate_pair(a, b, "left") == InnerPeripheral(s, -2, 1)

    def test_not_exceptional(self):
        with pytest.raises(NotExceptional):
            mutate_pair(Bridging(S23, 1, 0), Bridging(S23, 0, 0), "left")

    @pytest.mark.parametrize("s", MUTATION_SURFACES, ids=str)
    def test_matches_algebraic_mutation(self, s):
        """Arc smoothing agrees with class-level mutation in all four cases."""
        arcs = window_arcs(s, turns=1)
        checked = 0
        for a in arcs:
            for b in arcs:
                if a == b or not is_exceptional_pair(phi(a), phi(b)):
                    continue
                left = mutate_pair(a, b, "left")
                right = mutate_pair(a, b, "right")
                assert phi(left) == algebraic_left_mutation(phi(a), phi(b)), (a, b)
                assert phi(right) == algebraic_right_mutation(phi(a), phi(b)), (a, b)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("s", MUTATION_SURFACES, ids=str)
    def test_mutation_preserves_pairs(self, s):
        arcs = window_arcs(s, turns=1)
        for a in arcs:
            for b in arcs:
                if a == b or not is_exceptional_pair(phi(a), phi(b)):
                    continue
                left = mutate_pair(a, b, "left")
                assert is_exceptional_pair(phi(left), phi(a)), (a, b, left)


class TestApplyBraid:
    def test_inverse_cancels(self):
        th = canonical_theta(S23)
        for idx in range(1, 5):
            w = word(5, idx, -idx)
            assert apply_braid(th, w) == th
            w = word(5, -idx, idx)
            assert apply_braid(th, w) == th

    def test_braid_relation_adjacent(self):
        th = canonical_theta(S23)
        lhs = apply_braid(th, word(5, 1, 2, 1))
        rhs = apply_braid(th, word(5, 2, 1, 2))
        assert lhs == rhs

    def test_braid_relation_distant(self):
        th = canonical_theta(S23)
        assert apply_braid(th, word(5, 1, 3)) == apply_braid(th, word(5, 3, 1))

    def test_wrong_strand_count(self):
        from wplarcs.errors import IndexOutOfRange

        with pytest.raises(IndexOutOfRange):
            apply_braid(canonical_theta(S23), word(4, 1))

    @pytest.mark.parametrize("s", MUTATION_SURFACES, ids=str)
    def test_relations_random(self, s):
        rng = random.Random(5)
        r = s.rank
        if r < 3:
            return
        for L in random_collections(s, rng, 12):
            idx = rng.randint(1, r - 2)
            assert apply_braid(L, word(r, idx, idx + 1, idx)) == apply_braid(
                L, word(r, idx + 1, idx, idx + 1)
            )
            if r >= 4:
                assert apply_braid(L, word(r, 1, 3)) == apply_braid(
                    L, word(r, 3, 1)
                )

    @pytest.mark.parametrize("s", MUTATION_SURFACES, ids=str)
    def test_periodicities(self, s):
        """Square/cube periods by adjacent pair type, and the twist ladder."""
        rng = random.Random(9)
        r = s.rank
        from wplarcs.homext import ext1_dim, hom_dim

        for L in random_collections(s, rng, 10):
            for idx in range(1, r):
                E, F = phi(L[idx - 1]), phi(L[idx])
                h, e = hom_dim(E, F), ext1_dim(E, F)
                if h == 0 and e == 0:
                    assert apply_braid(L, word(r, *( [idx] * 2 ))) == L
                elif h == 2:
                    from wplarcs.core import canonical, twist

                    # Left mutation twists down, right mutation twists up.
                    c = canonical(s)
                    out = apply_braid(L, word(r, *([idx] * 3)))
                    assert phi(out[idx - 1]) == twist(E, -3 * c)
                    assert phi(out[idx]) == twist(E, -2 * c)
                    out = apply_braid(L, word(r, *([-idx] * 3)))
                    assert phi(out[idx - 1]) == twist(E, 3 * c)
                    assert phi(out[idx]) == twist(E, 4 * c)
                else:
                    assert apply_braid(L, word(r, *([idx] * 3))) == L

    @pytest.mark.parametrize("s", MUTATION_SURFACES, ids=str)
    def test_double_mutation_identities(self, s):
        """L_{L_E F} E = F and L_F' (L_E F) = E at the arc level."""
        arcs = window_arcs(s, turns=1)
        from wplarcs.homext import ext1_dim, hom_dim

        checked = 0
        for a in arcs:
            for b in arcs:
                if a == b or not is_exceptional_pair(phi(a), phi(b)):
                    continue
                E, F = phi(a), phi(b)
                if not (
                    hom_dim(E, F) == 1
                    and ext1_dim(E, F) == 0
                    or hom_dim(E, F) == 0
                    and ext1_dim(E, F) == 1
                ):
                    continue
                left = mutate_pair(a, b, "left")
                assert mutate_pair(left, a, "left") == b
                assert mutate_pair(b, left, "left") == a
                right = mutate_pair(a, b, "right")
                assert mutate_pair(b, right, "right") == a
                assert mutate_pair(right, a, "right") == b
                checked += 1
        if s.rank > 2:
            assert checked > 0

    @pytest.mark.parametrize("s", MUTATION_SURFACES, ids=str)
    def test_line_bundle_presence_invariant(self, s):
        rng = random.Random(3)
        r = s.rank
        for L in random_collections(s, rng, 8):
            has_line = any(isinstance(a, Bridging) for a in L)
            idx = rng.randint(1, r - 1)
            out = apply_braid(L, word(r, rng.choice([1, -1]) * idx))
            assert any(isinstance(a, Bridging) for a in out) == has_line


def collections_near_fan(s, letters=3, shift=3):
    """Every collection reached from the fan se-shifted by `shift` in at
    most `letters` letters."""
    start = se_shift_collection(canonical_theta(s), shift)
    seen = {start}
    frontier = [start]
    for _ in range(letters):
        new = []
        for L in frontier:
            for idx in range(1, s.rank):
                for sign in (1, -1):
                    nxt = apply_letter(L, idx, sign)
                    if nxt not in seen:
                        seen.add(nxt)
                        new.append(nxt)
        frontier = new
    return seen


class TestLetterClosure:
    """apply_braid checks its input only: every letter must map an ordered
    exceptional collection to another one."""

    @pytest.mark.parametrize("s", ACCEPT_SURFACES + [Surface(3, 4)], ids=str)
    def test_every_letter_keeps_collections_exceptional(self, s):
        r = s.rank
        for L in collections_near_fan(s):
            for idx in range(1, r):
                for sign in (1, -1):
                    out = apply_letter(L, idx, sign)
                    assert is_ordered_exceptional_collection(out), (L, idx, sign)
                    sheaves = [phi(a) for a in out]
                    for i in range(r):
                        for j in range(i + 1, r):
                            assert exceptional_pair_oracle(sheaves[i], sheaves[j]), (
                                L, idx, sign, i, j,
                            )

    def test_apply_braid_checks_its_input_once(self, monkeypatch):
        # Each arc is checked once on the way in (`_lifts`), and with
        # `validate` the pairs once (`_ordered`); no letter checks again.
        calls = {"_lifts": [], "_ordered": []}
        for name, log in calls.items():
            check = getattr(braid, name)

            def counting(*args, log=log, check=check):
                log.append(args[0])
                return check(*args)

            monkeypatch.setattr(braid, name, counting)
        s = Surface(3, 4)
        r = s.rank
        rng = random.Random(11)
        w = word(r, *(rng.choice([1, -1]) * rng.randint(1, r - 1) for _ in range(200)))
        fan = canonical_theta(s)
        out = apply_braid(fan, w)
        assert len(calls["_lifts"]) == len(calls["_ordered"]) == 1
        for log in calls.values():
            log.clear()
        assert apply_braid(fan, w, validate=False) == out
        assert len(calls["_lifts"]) == 1 and calls["_ordered"] == []

    def test_validate_rejects_the_input(self):
        with pytest.raises(NotExceptional):
            apply_braid(tuple(reversed(canonical_theta(S23))), word(5, 1))


class TestTheta:
    def test_fan_example(self):
        assert theta(S23, 0, 0, 2, 2) == (
            Bridging(S23, 0, 0),
            Bridging(S23, 1, 0),
            Bridging(S23, 2, 2),
            Bridging(S23, 2, 1),
            Bridging(S23, 2, 0),
        )

    def test_size(self):
        assert len(theta(S23, 1, -1, 2, 1)) == 4

    def test_is_ordered_collection(self):
        for s in MUTATION_SURFACES:
            assert is_ordered_exceptional_collection(canonical_theta(s))
            if s.q >= 2 and s.p >= 2:
                assert is_ordered_exceptional_collection(theta(s, 1, 2, 1, 1))

    def test_twisted_theta(self):
        from wplarcs.core import normal_form, twist

        x, y = 2, 1
        base = theta(S23, 0, 0, 2, 2)
        shifted = theta(S23, x, y, 2, 2)
        tw = normal_form(y, -x, 0, S23)
        for b, t in zip(base, shifted):
            assert phi(t) == twist(phi(b), tw)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidArguments):
            theta(S23, 0, 0, 3, 3)  # k + l = p + q with k != q - 1


class TestExplicitWords:
    def test_fan_insertion_word(self):
        """sigma_k ... sigma_{r-1} merges a bridge through the peripheral fan."""
        s = Surface(2, 3)
        g1 = OuterPeripheral(s, -2, 0)
        g2 = OuterPeripheral(s, -3, 0)
        g3 = InnerPeripheral(s, 0, 2)
        g4 = Bridging(s, 1, -1)
        L = (g1, g2, g3, g4)
        assert is_ordered_exceptional_collection(L)
        out = apply_braid(L, word(4, 2, 3))
        assert out == (g1, Bridging(s, 2, -3), g2, g3)

    def test_four_arc_rearrangement_word(self):
        """The explicit length-ten word rearranging a fan block."""
        for s in (Surface(2, 3), Surface(3, 4)):
            x, y = 0, 0
            L = (
                Bridging(s, y, x + 2),
                Bridging(s, y, x + 1),
                Bridging(s, y, x),
                Bridging(s, y + 1, x + 2),
            )
            assert is_ordered_exceptional_collection(L)
            w = word(4, 3, 3, 2, 2, 1, 2, 2, 3, 1, 1)
            out = apply_braid(L, w)
            assert out == (
                Bridging(s, y + 1, x + 2),
                Bridging(s, y + 1, x + 1),
                Bridging(s, y, x),
                Bridging(s, y + 1, x),
            )

    @pytest.mark.parametrize(
        "s", [Surface(1, 2), Surface(2, 2), Surface(2, 3)], ids=str
    )
    def test_start_shift_word(self, s):
        th = canonical_theta(s)
        got = apply_braid(th, start_shift_word(s))
        assert got == tuple(move(a, ["s"]) for a in th)

    @pytest.mark.parametrize(
        "s",
        [Surface(1, 1), Surface(1, 2), Surface(2, 2), Surface(2, 3), Surface(3, 3)],
        ids=str,
    )
    def test_full_twist_is_se_shift(self, s):
        rng = random.Random(1)
        for L in random_collections(s, rng, 4):
            assert apply_braid(L, full_twist_word(s)) == se_shift_collection(L, -1)


class TestNormalize:
    def test_identity(self):
        th = canonical_theta(S23)
        w = normalize_to_theta(th)
        assert len(w) == 0

    def test_se_shifted(self):
        th = canonical_theta(S23)
        L = se_shift_collection(th, 2)
        w = normalize_to_theta(L)
        assert apply_braid(L, w) == th

    @pytest.mark.parametrize(
        "s",
        [Surface(1, 1), Surface(2, 2), Surface(2, 3), Surface(3, 3)],
        ids=str,
    )
    def test_round_trips(self, s):
        rng = random.Random(17)
        th = canonical_theta(s)
        r = s.rank
        for _ in range(10):
            letters = [
                rng.choice([1, -1]) * rng.randint(1, r - 1)
                for _ in range(rng.randint(0, 12))
            ]
            L = apply_braid(th, word(r, *letters), validate=False)
            L = se_shift_collection(L, rng.randint(-2, 2))
            w = normalize_to_theta(L)
            assert apply_braid(L, w, validate=False) == th


class TestNormalizeLongShifts:
    """The shift part of a normalising word is built in one step."""

    @pytest.mark.parametrize("m", [10**4, -(10**4)])
    def test_se_shift_is_a_twist_power(self, m):
        twist = full_twist_word(S23)
        if m < 0:
            twist = twist.inverse()
        w = normalize_to_theta(se_shift_collection(canonical_theta(S23), m))
        assert w == BraidWord(S23.rank, twist.letters * abs(m))

    def test_word_constructions_do_not_grow_with_the_shift(self, monkeypatch):
        built = []
        post_init = BraidWord.__post_init__

        def counting(self):
            built.append(len(self.letters))
            post_init(self)

        monkeypatch.setattr(BraidWord, "__post_init__", counting)
        counts = {}
        for m in (10, 1000, -10, -1000):
            built.clear()
            normalize_to_theta(se_shift_collection(canonical_theta(S23), m))
            counts[m] = len(built)
        assert counts[10] == counts[1000] and counts[-10] == counts[-1000], counts
        assert max(counts.values()) <= 8, counts


class TestOrderingStability:
    @pytest.mark.parametrize("s", [Surface(2, 2), Surface(2, 3)], ids=str)
    def test_two_orders_braid_related(self, s):
        """Different admissible orders are swaps of orthogonal neighbours."""
        rng = random.Random(23)
        for L in random_collections(s, rng, 6):
            ordered = order_collection(ArcCollection.of(s, L))
            assert ordered is not None
            assert set(ordered) == set(L)
            # Walk from `ordered` to L by adjacent transpositions; each swap
            # must fix both arcs (sigma on an orthogonal pair).
            current = list(ordered)
            letters = []
            for target_pos in range(len(L)):
                i = current.index(L[target_pos])
                while i > target_pos:
                    a, b = current[i - 1], current[i]
                    current[i - 1], current[i] = b, a
                    letters.append(i)  # 1-based index of the left slot
                    i -= 1
            braid = word(len(L), *reversed(letters))
            assert apply_braid(tuple(ordered), braid) == tuple(L)



FOLD_SURFACES = [
    Surface(1, 1),
    Surface(1, 2),
    Surface(2, 2),
    Surface(2, 3),
    Surface(3, 3),
    Surface(3, 4),
    Surface(4, 5),
]


def _letters(rng, r, n):
    return [rng.choice([1, -1]) * rng.randint(1, r - 1) for _ in range(n)]


def _scrambled(s, rng, max_letters=10, max_shift=9):
    """The canonical fan se-shifted by up to max_shift, then scrambled."""
    L = se_shift_collection(canonical_theta(s), rng.randint(-max_shift, max_shift))
    letters = _letters(rng, s.rank, rng.randint(0, max_letters))
    return apply_braid(L, word(s.rank, *letters), validate=False)


def _keys(arcs):
    return tuple([a.key() for a in arcs])


def _search(start, goal, depth, budget):
    """`braid._bidirectional_search` from one collection of curves to another."""
    return braid._bidirectional_search(_keys(start), _keys(goal), start[0].surface, depth, budget)


class TestNormalizeWordAssembly:
    """The answer is (full twist)^m then the search letters, in one word."""

    @pytest.mark.parametrize("m", range(-10, 11))
    @pytest.mark.parametrize("s", [Surface(1, 1), S23, Surface(4, 5)], ids=str)
    def test_twist_power_then_letters(self, s, m, monkeypatch):
        r = s.rank
        rng = random.Random(m)
        letters = [(rng.randint(1, r - 1), rng.choice([1, -1])) for _ in range(7)]
        monkeypatch.setattr(braid, "_bidirectional_search", lambda *args: (m, letters))
        w = normalize_to_theta(canonical_theta(s))
        assert w == _compose_power(full_twist_word(s), m) * BraidWord(r, tuple(letters))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_the_search_it_makes(self, data):
        s = data.draw(st.sampled_from(ACCEPT_SURFACES + [Surface(4, 5)]))
        r = s.rank
        L = se_shift_collection(canonical_theta(s), data.draw(st.integers(-10, 10)))
        signed = st.integers(1, r - 1).flatmap(lambda i: st.sampled_from([i, -i]))
        L = apply_braid(L, word(r, *data.draw(st.lists(signed, max_size=4))))
        m, letters = _search(L, canonical_theta(s), 4 * r, 10**6)
        expected = _compose_power(full_twist_word(s), m) * BraidWord(r, tuple(letters))
        assert normalize_to_theta(L) == expected
        assert apply_braid(L, expected, validate=False) == canonical_theta(s)


def _counting_letters(monkeypatch):
    calls = [0]
    original = braid._apply_letter

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(braid, "_apply_letter", counting)
    return calls


class TestFold:
    @pytest.mark.parametrize("s", FOLD_SURFACES, ids=str)
    def test_shifts_fold_to_one_tuple(self, s):
        rng = random.Random(41)
        for _ in range(6):
            L = _scrambled(s, rng)
            k, folded = braid._fold(_keys(L), s)
            assert folded == _keys(se_shift_collection(L, k))
            # The fold on curves it replaced.
            assert (k, folded) == (fold_literal(L)[0], _keys(fold_literal(L)[1]))
            assert braid._fold(folded, s) == (0, folded)
            for t in (1, -3, 10**18, -(10**18), rng.randint(-(10**18), 10**18)):
                assert braid._fold(_keys(se_shift_collection(L, t)), s) == (k - t, folded)

    def test_no_shift_returns_the_input(self):
        _, folded = braid._fold(_keys(se_shift_collection(canonical_theta(S23), 7)), S23)
        assert braid._fold(folded, S23)[1] is folded

    @pytest.mark.parametrize("s", FOLD_SURFACES, ids=str)
    def test_letters_commute_with_the_se_shift(self, s):
        rng = random.Random(43)
        for _ in range(6):
            L = _scrambled(s, rng)
            w = word(s.rank, *_letters(rng, s.rank, 8))
            for t in (1, -3, 10**18):
                shifted_first = apply_braid(se_shift_collection(L, t), w)
                assert shifted_first == se_shift_collection(apply_braid(L, w), t)


class TestNormalizeFolded:
    """One folded search against the shift estimate and its nine retries."""

    @pytest.mark.parametrize("s", FOLD_SURFACES, ids=str)
    def test_matches_the_estimate_with_no_more_letters(self, s, monkeypatch):
        calls = _counting_letters(monkeypatch)
        rng = random.Random(47)
        th = canonical_theta(s)
        for _ in range(30):
            L = _scrambled(s, rng)
            calls[0] = 0
            folded = normalize_to_theta(L)
            folded_calls = calls[0]
            calls[0] = 0
            literal = normalize_literal(L)
            literal_calls = calls[0]
            # Compared by their action: the two may join at other shifts.
            assert apply_braid(L, folded, validate=False) == th
            assert apply_braid(L, literal, validate=False) == th
            assert folded_calls <= literal_calls, (L, folded_calls, literal_calls)

    @pytest.mark.parametrize("s", [S23, Surface(3, 4), Surface(4, 5)], ids=str)
    def test_work_does_not_depend_on_the_shift(self, s, monkeypatch):
        calls = _counting_letters(monkeypatch)
        rng = random.Random(53)
        th = canonical_theta(s)
        for _ in range(4):
            L = _scrambled(s, rng, max_letters=6, max_shift=0)
            found, counts = [], []
            for t in (0, 10**6):
                # From empty tables, so that both counts are of cold work.
                empty_braid_tables(monkeypatch)
                calls[0] = 0
                shifted = se_shift_collection(L, t)
                found.append(_search(shifted, th, 4 * s.rank, 10**6))
                counts.append(calls[0])
            (m0, letters0), (m1, letters1) = found
            assert counts[0] == counts[1]
            assert letters0 == letters1 and m1 - m0 == 10**6
            # Warm, a search at another shift meets only tabled steps.
            calls[0] = 0
            far = se_shift_collection(L, -(10**18))
            again = _search(far, th, 4 * s.rank, 10**6)
            assert again == (m0 - 10**18, letters0) and calls[0] == 0
            # normalize_to_theta makes the same search, then refuses the
            # word of 10**6 full twists.
            empty_braid_tables(monkeypatch)
            calls[0] = 0
            with pytest.raises(InvalidArguments):
                normalize_to_theta(se_shift_collection(L, 10**6))
            assert calls[0] == counts[0]

    def test_huge_shift_is_refused_before_the_word_is_built(self, monkeypatch):
        built = []
        post_init = BraidWord.__post_init__

        def counting(self):
            built.append(len(self.letters))
            post_init(self)

        monkeypatch.setattr(BraidWord, "__post_init__", counting)
        L = se_shift_collection(canonical_theta(S23), 10**18)
        with pytest.raises(InvalidArguments, match="full twist"):
            normalize_to_theta(L)
        assert built == []


DIFFERENTIAL_SURFACES = ACCEPT_SURFACES + [Surface(3, 4), Surface(4, 5)]


class TestIdSearch:
    """The search on arc ids against the curve-keyed search it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_answer_as_the_curve_keyed_search(self, data):
        s = data.draw(st.sampled_from(DIFFERENTIAL_SURFACES))
        r = s.rank
        shift = data.draw(st.integers(-(10**18), 10**18))
        signed = st.integers(1, r - 1).flatmap(lambda i: st.sampled_from([i, -i]))
        n = data.draw(st.integers(0, 5))
        letters = data.draw(st.lists(signed, min_size=n, max_size=n))
        budget = data.draw(st.one_of(st.just(10**6), st.integers(1, 300)))
        goal = canonical_theta(s)
        L = apply_braid(se_shift_collection(goal, shift), word(r, *letters))
        with pytest.MonkeyPatch.context() as mp:
            if data.draw(st.booleans(), label="empty tables"):
                empty_braid_tables(mp)
            found = _search(L, goal, 4 * r, budget)
        assert found == curve_keyed_search(L, goal, 4 * r, budget)

    @pytest.mark.parametrize("s", DIFFERENTIAL_SURFACES, ids=str)
    def test_same_answer_on_seeded_scrambles(self, s):
        rng = random.Random(59)
        goal, depth = canonical_theta(s), 4 * s.rank
        for _ in range(40):
            L = _scrambled(s, rng, max_letters=5, max_shift=10**18)
            for budget in (10**6, 50):
                found = _search(L, goal, depth, budget)
                assert found == curve_keyed_search(L, goal, depth, budget), L

    def test_some_inputs_use_up_a_small_budget(self):
        # So the differential test's budgets reach the None answer.
        s = Surface(4, 5)
        L = apply_braid(canonical_theta(s), word(s.rank, 3, -7, 5, 1, -8))
        for budget in (1, 50):
            assert _search(L, canonical_theta(s), 36, budget) is None
            assert curve_keyed_search(L, canonical_theta(s), 36, budget) is None


class TestBraidWordCheck:
    def test_the_first_bad_letter_is_reported(self):
        letters = ((1, 1), (2, -1), (1, 1), (5, 1), (2, 0), (7, 1))
        with pytest.raises(IndexOutOfRange, match=r"^letter 5 outside 1\.\.2$"):
            BraidWord(3, letters)
        with pytest.raises(InvalidArguments, match="sign"):
            BraidWord(3, letters[:3] + letters[4:])


class TestNormalizeGuard:
    @pytest.mark.parametrize(
        "p, q, refused",
        [
            (7, 8, False),
            (20, 20, False),
            (1, 39, False),
            (20, 21, True),
            (60, 60, True),
            (1000, 1000, True),
        ],
    )
    def test_refused_above_the_rank_bound_before_any_work(self, monkeypatch, p, q, refused):
        def started(lifts, s):
            raise RuntimeError("normalisation started")

        monkeypatch.setattr(braid, "_ordered", started)
        s = Surface(p, q)
        with pytest.raises(InvalidArguments if refused else RuntimeError):
            normalize_to_theta(canonical_theta(s))


class TestNotACurve:
    """A value that is not a curve is refused with TypeError at each entry."""

    O, O1 = structure_sheaf(S23), line_bundle(S23, canonical(S23))

    def test_ordered_collection_check(self):
        with pytest.raises(TypeError, match=r"^not a curve: O\(0,0,0\)$"):
            is_ordered_exceptional_collection([self.O, self.O1])
        with pytest.raises(TypeError, match="not a curve"):
            is_ordered_exceptional_collection([Bridging(S23, 0, 0), self.O1])
        # A loop is a curve but no arc.
        assert not is_ordered_exceptional_collection([Loop(S23, 1, "t")])

    def test_apply_braid(self):
        with pytest.raises(TypeError, match="not a curve"):
            apply_braid([self.O, self.O1], word(2, 1))
        with pytest.raises(NotExceptional):
            apply_braid([Loop(S23, 1, "t"), Bridging(S23, 0, 0)], word(2, 1))

    def test_mutate_pair(self):
        with pytest.raises(TypeError, match="not a curve"):
            mutate_pair(self.O, self.O1, "left")
        with pytest.raises(NotExceptional):
            mutate_pair(Bridging(S23, 0, 0), Loop(S23, 1, "t"), "left")

    def test_normalize_to_theta(self):
        with pytest.raises(TypeError, match="not a curve"):
            normalize_to_theta([self.O] * S23.rank)
        with pytest.raises(NotApplicable):
            normalize_to_theta(canonical_theta(S23)[:-1] + (Loop(S23, 1, "t"),))

    def test_arc_collection(self):
        with pytest.raises(TypeError, match=r"^not a curve: O\(0,0,0\)$"):
            ArcCollection.of(S23, [self.O])
        with pytest.raises(NotApplicable, match="is not an arc"):
            ArcCollection.of(S23, [Loop(S23, 1, "t")])
