import collections
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from wplarcs.core import (
    Bridging,
    InnerPeripheral,
    OuterPeripheral,
    Surface,
    degree,
    normal_form,
    phi,
)
from wplarcs.braid import canonical_theta
from wplarcs import tilting
from wplarcs.cli import main
from wplarcs.errors import (
    InternalInvariantViolation,
    InvalidArguments,
    NotApplicable,
    WplArcsError,
)
from wplarcs.tilting import (
    MAX_SHEAF_CLASSES,
    LatticePath,
    bizley_count,
    canonical_bundle_rep,
    catalan,
    census,
    enumerate_anchored_triangulations,
    enumerate_lattice_paths,
    is_dyck,
    is_triangulation,
    path_to_tilting,
    se_canonical,
    se_shift,
    sheaf_class_formula,
    tilting_to_path,
    triangulation,
)
from wplarcs.intersect import positive_int

from bizley_literal import bizley_count_literal, bizley_count_literal_binomial
from census_literal import census_literal, enumerate_anchored_literal
from conftest import count_kernels
from se_canonical_literal import scan_bound, se_canonical_literal

S23 = Surface(2, 3)


class TestTriangulations:
    def test_theta_arcs(self):
        assert is_triangulation(S23, canonical_theta(S23))

    def test_crossing_pair_rejected(self):
        arcs = list(canonical_theta(S23))[:-1] + [Bridging(S23, 0, 1)]
        assert not is_triangulation(S23, arcs)

    def test_cardinality(self):
        assert not is_triangulation(S23, list(canonical_theta(S23))[:-1])


class TestLatticePaths:
    def test_count(self):
        assert len(enumerate_lattice_paths(2, 3)) == 10

    def test_dyck_basic(self):
        north_first = LatticePath(((0, 0), (0, 1), (1, 1), (2, 1), (2, 2), (2, 3)))
        assert not is_dyck(north_first)

    def test_dyck_count_23(self):
        dyck = [p for p in enumerate_lattice_paths(2, 3) if is_dyck(p)]
        assert len(dyck) == 2

    def test_path_validation(self):
        with pytest.raises(Exception):
            LatticePath(((0, 0), (1, 1)))


class TestBizley:
    @pytest.mark.parametrize(
        "p,q,expected", [(1, 1, 1), (2, 2, 2), (2, 3, 2), (3, 3, 5), (2, 4, 3)]
    )
    def test_counts(self, p, q, expected):
        assert bizley_count(p, q) == expected

    def test_literal_binomial_reading_fails(self):
        # The plain-binomial atom overcounts; the documented value at (2,2).
        assert bizley_count_literal_binomial(2, 2) == 8
        assert bizley_count(2, 2) == 2

    @pytest.mark.parametrize("p", range(1, 6))
    @pytest.mark.parametrize("q", range(1, 6))
    def test_formula_matches_enumeration(self, p, q):
        dyck = sum(1 for path in enumerate_lattice_paths(p, q) if is_dyck(path))
        assert bizley_count(p, q) == dyck

    def test_recurrence_matches_partition_sum(self):
        for p in range(1, 13):
            for q in range(1, 13):
                assert bizley_count(p, q) == bizley_count_literal(p, q)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_recurrence_matches_dyck_dp(self, data):
        # Drawn as a common factor times (p1, q1), so that p + q <= 30 and
        # gcd(p, q) > 1, the case the recurrence is for, is frequent.
        factor = data.draw(st.integers(1, 15))
        p1 = data.draw(st.integers(1, 30 // factor - 1))
        q1 = data.draw(st.integers(1, 30 // factor - p1))
        p, q = factor * p1, factor * q1
        assert bizley_count(p, q) == dyck_paths_dp(p, q)


def dyck_paths_dp(p: int, q: int) -> int:
    """Monotone lattice paths (0,0) -> (p,q) with p*y <= q*x, by dynamic programming."""
    ways = [[0] * (q + 1) for _ in range(p + 1)]
    ways[0][0] = 1
    for x in range(p + 1):
        for y in range(q + 1):
            if (x, y) == (0, 0) or p * y > q * x:
                continue
            ways[x][y] = (ways[x - 1][y] if x else 0) + (ways[x][y - 1] if y else 0)
    return ways[p][q]


class TestPathBijection:
    def test_staircase_example(self):
        path = LatticePath(((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (2, 3)))
        t = path_to_tilting(S23, path)
        assert t.arcs == frozenset(
            [
                Bridging(S23, 0, 0),
                Bridging(S23, 1, 0),
                Bridging(S23, 1, 1),
                Bridging(S23, 2, 1),
                Bridging(S23, 2, 2),
            ]
        )
        assert is_triangulation(S23, t.arcs)

    def test_fan_path(self):
        path = LatticePath(
            tuple((x, 0) for x in range(3)) + tuple((2, y) for y in range(1, 4))
        )
        t = path_to_tilting(S23, path)
        assert t.arcs == frozenset(canonical_theta(S23))

    @pytest.mark.parametrize("p", range(1, 6))
    @pytest.mark.parametrize("q", range(1, 6))
    def test_round_trip(self, p, q):
        s = Surface(p, q)
        for path in enumerate_lattice_paths(p, q):
            assert tilting_to_path(path_to_tilting(s, path)) == path

    def test_dyck_iff_nonnegative_degrees(self):
        for path in enumerate_lattice_paths(2, 3):
            t = path_to_tilting(S23, path)
            degrees_ok = all(
                degree(normal_form(a.i, -a.j, 0, S23)) >= 0 for a in t.arcs
            )
            assert is_dyck(path) == degrees_ok

    @pytest.mark.parametrize("p", range(1, 7))
    @pytest.mark.parametrize("q", range(1, 7))
    def test_staircase_successors_cross(self, p, q):
        # A triangulation holds at most one of the east and north
        # successors, so unfolding a staircase never backtracks.
        s = Surface(p, q)
        for a in range(-p, 2 * p):
            for b in range(-q, 2 * q):
                east, north = Bridging(s, a + 1, b), Bridging(s, a, b + 1)
                assert tilting._crossing(east.key(), north.key(), p, q)
                assert positive_int(east, north) or positive_int(north, east)

    @pytest.mark.parametrize("p", range(1, 5))
    @pytest.mark.parametrize("q", range(1, 5))
    def test_round_trip_from_shifts(self, p, q):
        s = Surface(p, q)
        for path in enumerate_lattice_paths(p, q):
            t = path_to_tilting(s, path)
            for k in (1, -3, 17, 10**12):
                shifted = se_shift(t, k)
                assert canonical_bundle_rep(shifted) == t
                assert tilting_to_path(shifted) == path

    def test_staircase_check_is_live(self, monkeypatch):
        fan = se_shift(triangulation(S23, canonical_theta(S23)), 1)
        monkeypatch.setattr(tilting, "canonical_bundle_rep", lambda t: t)
        with pytest.raises(InternalInvariantViolation, match="not a staircase"):
            tilting_to_path(fan)

    def test_peripheral_rejected(self):
        arcs = [
            InnerPeripheral(S23, 0, 2),
            Bridging(S23, 0, 0),
            Bridging(S23, 0, -1),
            Bridging(S23, 0, -2),
            Bridging(S23, 0, -3),
        ]
        t = triangulation(S23, arcs)
        with pytest.raises(NotApplicable):
            tilting_to_path(t)


class TestCanonicalRep:
    def test_shift_of_fan(self):
        t = triangulation(S23, canonical_theta(S23))
        shifted = se_shift(t, 3)
        assert canonical_bundle_rep(shifted) == t

    def test_idempotent(self):
        t = triangulation(S23, canonical_theta(S23))
        assert canonical_bundle_rep(t) == t

    def test_rank_two_classes(self):
        s = Surface(1, 1)
        even = triangulation(s, [Bridging(s, 0, 0), Bridging(s, 0, -1)])
        # The two arcs have windings 0 and 1; shifting twice lands back.
        assert canonical_bundle_rep(se_shift(even, 2)) == canonical_bundle_rep(even)
        odd = triangulation(s, [Bridging(s, 0, 0), Bridging(s, 0, 1)])
        assert canonical_bundle_rep(odd) != canonical_bundle_rep(even)


class TestSeShift:
    def test_identity(self):
        t = triangulation(S23, canonical_theta(S23))
        assert se_shift(t, 0) == t
        assert se_shift(se_shift(t, 4), -4) == t

    def test_matches_tau_on_sheaves(self):
        from wplarcs.core import tau_inv

        t = triangulation(S23, canonical_theta(S23))
        shifted = se_shift(t, 1)
        assert {phi(a) for a in shifted.arcs} == {
            tau_inv(phi(a)) for a in t.arcs
        }

    def test_preserves_triangulation(self):
        t = triangulation(S23, canonical_theta(S23))
        assert is_triangulation(S23, se_shift(t, 5).arcs)


class TestSeCanonical:
    def test_rank_two_anchors(self):
        s = Surface(1, 1)
        t1 = triangulation(s, [Bridging(s, 0, 0), Bridging(s, 0, 1)])
        assert se_canonical(t1) == t1
        t2 = triangulation(s, [Bridging(s, 0, 0), Bridging(s, 1, 0)])
        assert se_canonical(t2) == t2

    def test_orbit_invariance(self):
        t = triangulation(S23, canonical_theta(S23))
        assert se_canonical(se_shift(t, 5)) == se_canonical(t)

    @pytest.mark.parametrize("s", [Surface(1, 2), Surface(2, 2), Surface(2, 3)], ids=str)
    def test_canonical_forms_distinct_on_anchored(self, s):
        reps = enumerate_anchored_triangulations(s)
        assert len(set(t.arcs for t in reps)) == len(reps)
        for t in reps:
            assert se_canonical(t) == t


SHIFT_SURFACES = [Surface(1, 2), Surface(2, 3), Surface(3, 3), Surface(2, 5)]
ANCHORED = {s: enumerate_anchored_triangulations(s) for s in SHIFT_SURFACES}


def shift_range(s):
    """Every k with |k| <= 3 (p + q) max(p, q), far past the old scan window."""
    reach = 3 * s.rank * max(s.p, s.q)
    return range(-reach, reach + 1)


class TestSeCanonicalShifts:
    @pytest.mark.parametrize("s", SHIFT_SURFACES, ids=str)
    def test_large_shifts_return_to_the_anchor(self, s):
        for t in ANCHORED[s]:
            for k in shift_range(s):
                assert se_canonical(se_shift(t, k)) == t

    @pytest.mark.parametrize("s", SHIFT_SURFACES, ids=str)
    def test_matches_the_old_scan_where_it_answers(self, s):
        compared = 0
        for t in ANCHORED[s]:
            for k in shift_range(s):
                shifted = se_shift(t, k)
                # The scan tries shifts -bound..bound of its input, and the
                # anchored one is the shift by -k.
                if abs(k) > scan_bound(shifted):
                    continue
                assert se_canonical_literal(shifted) == se_canonical(shifted)
                compared += 1
        assert compared >= len(ANCHORED[s]) * (2 * s.rank + 1)

    def test_old_scan_misses_large_shifts(self):
        s = Surface(3, 4)
        t = triangulation(s, canonical_theta(s))
        with pytest.raises(InternalInvariantViolation):
            se_canonical_literal(se_shift(t, 50))
        assert se_canonical(se_shift(t, 50)) == t

    @pytest.mark.parametrize("k", [0, 50, -50, 10**18, -(10**18)])
    def test_one_shifted_triangulation_per_call(self, monkeypatch, k):
        s = Surface(3, 4)
        calls = []
        real_shift = tilting.se_shift

        def counting_shift(t, k):
            calls.append(k)
            return real_shift(t, k)

        for t in enumerate_anchored_triangulations(s)[::50]:
            shifted = se_shift(t, k)
            calls.clear()
            monkeypatch.setattr(tilting, "se_shift", counting_shift)
            assert se_canonical(shifted) == t
            monkeypatch.undo()
            assert calls == [-k]

    def test_two_anchored_shifts_rejected(self):
        # The union of an anchored triangulation and a shift of it has two
        # anchored shifts; se_canonical refuses to pick one.
        s = Surface(2, 3)
        t = triangulation(s, canonical_theta(s))
        both = tilting.Triangulation(s, t.arcs | se_shift(t, 7).arcs)
        with pytest.raises(InternalInvariantViolation):
            se_canonical(both)

    def test_no_anchored_shift_rejected(self):
        s = Surface(2, 3)
        lone = tilting.Triangulation(s, frozenset([Bridging(s, 0, 0)]))
        with pytest.raises(InternalInvariantViolation):
            se_canonical(lone)


class TestCensus:
    @pytest.mark.parametrize(
        "p,q,expected",
        [
            (1, 1, {"bundle_classes": 2, "fundamental": 1, "sheaf_classes": 2}),
            (1, 2, {"bundle_classes": 3, "fundamental": 1, "sheaf_classes": 6}),
            (2, 3, {"bundle_classes": 10, "fundamental": 2, "sheaf_classes": 60}),
        ],
    )
    def test_values(self, p, q, expected):
        assert census(p, q) == expected

    def test_sheaf_formula_values(self):
        assert sheaf_class_formula(1, 1) == 2
        assert sheaf_class_formula(1, 2) == 6
        assert sheaf_class_formula(2, 3) == 60

    def test_guard(self):
        assert census(7, 7) == closed_forms(7, 7)
        for p, q in [(11, 10), (10**18, 3)]:
            with pytest.raises(InvalidArguments):
                census(p, q)

    def test_size_guard(self):
        assert census(6, 6) == closed_forms(6, 6)
        for p, q in [(5, 6), (1, 10), (6, 6)]:
            assert sheaf_class_formula(p, q) > MAX_SHEAF_CLASSES
            with pytest.raises(InvalidArguments):
                enumerate_anchored_triangulations(Surface(p, q))
        # Refused before the formula is evaluated on huge numbers.
        with pytest.raises(InvalidArguments):
            census(10**18, 3)
        # The largest surfaces the guard admits, at p + q = 10.
        for p, q in [(5, 5), (1, 9)]:
            assert sheaf_class_formula(p, q) <= MAX_SHEAF_CLASSES
            tilting._check_enumeration_size(Surface(p, q))

    def test_path_counts_guard(self, monkeypatch):
        # Refused before any work: a patched counter would raise if reached.
        monkeypatch.setattr(tilting, "math", None)
        for p, q in [(100_000, 100_000), (1, tilting.MAX_PATH_CELLS + 1)]:
            for count in (tilting.lattice_path_counts, bizley_count):
                with pytest.raises(InvalidArguments):
                    count(p, q)
        monkeypatch.undo()
        assert tilting.lattice_path_counts(14, 14) == (40_116_600, 2_674_440)
        assert bizley_count(14, 14) == 2_674_440

    @pytest.mark.parametrize("p,q", [(-5, 3), (0, 3), (3, 0), (0, 0), (2, -1)])
    def test_path_counts_refuse_non_surfaces(self, monkeypatch, p, q):
        # Refused before any work: a patched counter would raise if reached.
        monkeypatch.setattr(tilting, "math", None)
        for count in (tilting.lattice_path_counts, bizley_count):
            with pytest.raises(InvalidArguments, match="weights"):
                count(p, q)

    @pytest.mark.parametrize("p,q", [(0, 3), (-5, 3), (3, 0)])
    def test_census_refuses_non_surfaces(self, monkeypatch, p, q):
        # Refused as the package's own error, before any work: a patched
        # Surface would raise if reached.
        monkeypatch.setattr(tilting, "Surface", None)
        with pytest.raises(InvalidArguments, match="weights") as refused:
            census(p, q)
        assert isinstance(refused.value, WplArcsError)

    def test_census_cli_refuses_non_surfaces(self, capsys):
        assert main(["--p", "0", "--q", "3", "--json", "census"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_cli_classes_guarded(self, capsys):
        code = main(["--p", "6", "--q", "6", "tilting", "classes"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("p", range(1, 4))
    @pytest.mark.parametrize("q", range(1, 4))
    def test_small_census_consistent(self, p, q):
        result = census(p, q)
        assert result["bundle_classes"] == math.comb(p + q, p)
        assert result["fundamental"] == bizley_count(p, q)
        assert result["sheaf_classes"] == sheaf_class_formula(p, q)


def closed_forms(p, q):
    return {
        "bundle_classes": math.comb(p + q, p),
        "fundamental": bizley_count(p, q),
        "sheaf_classes": sheaf_class_formula(p, q),
    }


LITERAL_SURFACES = [
    (p, q) for p in range(1, 8) for q in range(1, 8) if p + q <= 8
] + [(5, 5), (1, 9)]


class TestCensusByFamilies:
    @pytest.mark.parametrize("p,q", LITERAL_SURFACES)
    def test_matches_the_member_checking_census(self, p, q):
        assert census(p, q) == census_literal(p, q)

    @pytest.mark.parametrize("p,q", [(6, 6), (8, 8), (10, 10), (1, 19)])
    def test_closed_forms(self, p, q):
        assert census(p, q) == closed_forms(p, q)

    @pytest.mark.parametrize(
        "s", [Surface(p, q) for p in range(1, 6) for q in range(1, 6) if p + q <= 6],
        ids=str,
    )
    def test_lemma_against_members(self, s):
        # Anchors and chords lie in one member exactly when
        # `_held_together` accepts their places.
        for family in tilting._families(s):
            verdicts = tilting._Verdicts()
            places = family.validate(verdicts)
            members = [
                {verdicts.arc_id(arc) for arc in arcs}
                for arcs in family.members(verdicts)
            ]
            assert len(members) == family.size()
            for size in (2, 3):
                for held in itertools.combinations(places, size):
                    in_a_member = any(set(held) <= member for member in members)
                    together = tilting._held_together(places[x] for x in held)
                    assert together == in_a_member

    @pytest.mark.parametrize("k", [1, -1, 2])
    def test_shifted_family_refused(self, k):
        # A shifted family is a valid family, but its members are anchored
        # at shift -k, not 0.
        for family in tilting._families(S23):
            shifted = tilting._Family(
                S23,
                tuple(x.se_shifted(k) for x in family.anchors),
                shift_vertices(family.inside, k),
                shift_vertices(family.outside, k),
            )
            verdicts = tilting._Verdicts()
            places = shifted.validate(verdicts)
            with pytest.raises(InternalInvariantViolation, match="anchoring shift"):
                shifted.check_anchoring(verdicts, places)

    def test_pattern_of_another_family_refused(self, monkeypatch):
        # B(0, 0) and B(0, 2) are both anchors of the plain family (0, 2),
        # so as an extra pattern for a = 0 they are held at k = 0 there.
        real = tilting._anchor_patterns

        def with_extra(s, a):
            extra = ((Bridging(s, 0, 2),),) if a == 0 else ()
            return real(s, a) + extra

        monkeypatch.setattr(tilting, "_anchor_patterns", with_extra)
        with pytest.raises(InternalInvariantViolation, match="share a member"):
            census(2, 3)

    def test_unanchored_family_refused(self, monkeypatch):
        monkeypatch.setattr(tilting, "_anchor_patterns", lambda s, a: ())
        with pytest.raises(InternalInvariantViolation, match="no anchored"):
            census(2, 3)

    def test_size_mismatch_refused(self, monkeypatch):
        real = tilting._plain_family

        def dropping_a_vertex(s, a, b):
            family = real(s, a, b)
            return tilting._Family(
                family.surface, family.anchors, family.inside, family.outside[:-1]
            )

        monkeypatch.setattr(tilting, "_plain_family", dropping_a_vertex)
        with pytest.raises(InternalInvariantViolation, match="arcs, not"):
            census(2, 3)

    def test_arc_held_twice_refused(self):
        family = tilting._plain_family(S23, 0, 3)
        # B(0, 0) as an extra anchor repeats the anchor B(0, 0), and the
        # inside polygon loses a vertex so the size still matches.
        doubled = tilting._Family(
            family.surface,
            family.anchors + family.anchors[:1],
            family.inside[:-1],
            family.outside,
        )
        with pytest.raises(InternalInvariantViolation, match="holds an arc twice"):
            doubled.validate(tilting._Verdicts())


def shift_vertices(vertices, k):
    """Lift points moved as the se-shift by k moves arc endpoints."""
    return tuple(
        (boundary, index + k if boundary == "inner" else index - k)
        for boundary, index in vertices
    )


class TestEnumerationAsClasses:
    @pytest.mark.parametrize("s", [Surface(1, 2), Surface(2, 2)], ids=str)
    def test_random_triangulation_lands_in_enumeration(self, s):
        reps = {t.arcs for t in enumerate_anchored_triangulations(s)}
        rng = random.Random(5)
        for t in enumerate_anchored_triangulations(s):
            shifted = se_shift(t, rng.randint(-4, 4))
            assert se_canonical(shifted).arcs in reps


FAMILY_SURFACES = [
    Surface(p, q) for p in range(1, 8) for q in range(1, 8) if p + q <= 8
]


def crossing_reported_for(monkeypatch, x, y):
    """Patch the census's crossing test on lifts to report that x and y cross."""
    real, lifts = tilting._crossing, {x.key(), y.key()}

    def lying(a, b, p, q):
        return {a, b} == lifts or real(a, b, p, q)

    monkeypatch.setattr(tilting, "_crossing", lying)


class TestFamilyValidation:
    @pytest.mark.parametrize("s", FAMILY_SURFACES, ids=str)
    def test_matches_the_member_checking_enumeration(self, s):
        # The literal enumeration passes every member through
        # `triangulation()`, so each one also passes `is_triangulation`.
        literal = [t.arcs for t in enumerate_anchored_literal(s)]
        assert [t.arcs for t in enumerate_anchored_triangulations(s)] == literal

    @pytest.mark.parametrize("p,q,most", [(3, 3, 198), (4, 4, 632), (10, 10, 24_950)])
    def test_crossing_tests_per_census(self, monkeypatch, p, q, most):
        # Checking every member and every path costs 6,600 positive_int
        # calls at (3, 3) and 141,120 at (4, 4).  Validating each family
        # once, with the staircases in a table of their own, cost 534, 1,616
        # and 58,130.  One table for the census tests each distinct pair
        # once: 198, 632 and 24,950 crossing tests on lifts, each counting
        # both orders, as no pair crosses.
        calls = collections.Counter()
        real = tilting._crossing

        def counting(a, b, p, q):
            calls[a, b] += 1
            return real(a, b, p, q)

        monkeypatch.setattr(tilting, "_crossing", counting)
        kernels = count_kernels(monkeypatch)
        census(p, q)
        assert set(calls.values()) == {1}
        assert not any(calls[b, a] for a, b in calls)
        assert 0 < sum(calls.values()) <= most
        assert len(kernels) == 2 * sum(calls.values())
        assert {(a, b) for a, b in calls} == {
            ((k1, *args[:2]), (k2, *args[2:4])) for (k1, k2), args in kernels[::2]
        }

    def test_censuses_on_equal_surfaces_share_no_arc(self, monkeypatch):
        # Each census builds its own Surface; its anchoring probes are built
        # on that surface too, so every arc of its table lies on it and
        # each probe look-up compares surfaces by identity.
        made, tables = [], []
        real_surface, real_verdicts = tilting.Surface, tilting._Verdicts

        def surface(p, q):
            made.append(real_surface(p, q))
            return made[-1]

        def verdicts():
            tables.append(real_verdicts())
            return tables[-1]

        monkeypatch.setattr(tilting, "Surface", surface)
        monkeypatch.setattr(tilting, "_Verdicts", verdicts)
        assert census(3, 3) == census(3, 3)
        assert len(made) == 2 and made[0] == made[1] and made[0] is not made[1]
        assert len(tables) == 2
        for s, table in zip(made, tables):
            assert table.arcs and all(arc.surface is s for arc in table.arcs)
            assert table.lifts == [arc.key() for arc in table.arcs]

    @pytest.mark.parametrize(
        "x,y,check",
        [
            # B(0, 0) and OP(0, 2) anchor the plain family (0, 2).
            (Bridging(S23, 0, 0), OuterPeripheral(S23, 0, 2), "two anchors cross"),
            # IP(0, 2) is a chord of that family's outer polygon.
            (Bridging(S23, 0, 0), InnerPeripheral(S23, 0, 2), "an anchor crosses a chord"),
            # Two chords of the outer polygon of the plain family (0, 1).
            (Bridging(S23, 0, 3), InnerPeripheral(S23, 0, 2), "two chords of one polygon"),
            # The staircases through (0, 0) and (1, 1).
            (Bridging(S23, 0, 0), Bridging(S23, 1, 1), "two arcs of one staircase"),
        ],
        ids=["anchors", "anchor-chord", "one-polygon", "staircase"],
    )
    def test_check_is_live(self, monkeypatch, x, y, check):
        # Each pair is tested first by the named check.
        crossing_reported_for(monkeypatch, x, y)
        with pytest.raises(InternalInvariantViolation, match=check):
            census(2, 3)

    @pytest.mark.parametrize(
        "rejected",
        [
            # A chord of five families, never an anchor or a staircase arc.
            OuterPeripheral(S23, 1, 3),
            # An anchor of the plain family (-2, 1) alone, never a chord or
            # a staircase arc.
            OuterPeripheral(S23, 1, 4),
        ],
        ids=repr,
    )
    def test_arc_test_is_live(self, monkeypatch, rejected):
        # The arc test runs once per join or anchor set of the census, and
        # still sees every arc that some family holds.
        real = tilting.is_arc
        monkeypatch.setattr(tilting, "is_arc", lambda c: c != rejected and real(c))
        with pytest.raises(InternalInvariantViolation, match="is not an arc"):
            census(2, 3)

    def test_inside_outside_check_is_live(self, monkeypatch):
        # In the plain family (0, 3), OP(0, 2) is an inside chord and B(1, 3)
        # an outside one.  The whole enumeration tests the pair earlier, as
        # an anchor and a chord, so the family is also validated on its own.
        s = S23
        x, y = OuterPeripheral(s, 0, 2), Bridging(s, 1, 3)
        crossing_reported_for(monkeypatch, x, y)
        with pytest.raises(InternalInvariantViolation):
            census(2, 3)
        family = tilting._plain_family(s, 0, 3)
        with pytest.raises(
            InternalInvariantViolation, match="chords of the two polygons cross"
        ):
            list(family)

    def test_repeated_staircase_arc_rejected(self, monkeypatch):
        # Read (1, 1) as B(0, 0): the pair does not cross, but then a path
        # through both points gives fewer than p + q arcs.
        real = tilting.Bridging
        monkeypatch.setattr(
            tilting,
            "Bridging",
            lambda s, i, j: real(s, 0, 0) if (i, j) == (1, 1) else real(s, i, j),
        )
        with pytest.raises(InternalInvariantViolation, match="one staircase arc"):
            tilting._check_staircases(S23, tilting._Verdicts())

    def test_duplicate_member_rejected(self, monkeypatch):
        real = tilting._polygon_triangulations

        def repeating_first(n):
            triangulations = real(n)
            return triangulations[:1] + triangulations

        monkeypatch.setattr(tilting, "_polygon_triangulations", repeating_first)
        with pytest.raises(InternalInvariantViolation, match="share an arc set"):
            enumerate_anchored_triangulations(S23)

    def test_wrong_member_size_rejected(self, monkeypatch):
        # Polygons left untriangulated give members with too few arcs.
        monkeypatch.setattr(
            tilting, "_polygon_triangulations", lambda n: (frozenset(),)
        )
        with pytest.raises(InternalInvariantViolation, match="arcs, not"):
            enumerate_anchored_triangulations(S23)


class TestEmptyShift:
    @pytest.mark.parametrize(
        "curve",
        [Bridging(S23, 1, -4), InnerPeripheral(S23, 1, 3), OuterPeripheral(S23, 2, 4)],
        ids=repr,
    )
    def test_shift_by_zero_is_the_curve(self, curve):
        assert curve.se_shifted(0) is curve
        assert curve.se_shifted(1) != curve
