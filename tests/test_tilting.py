import math
import random

import pytest

from wplarcs.core import Bridging, InnerPeripheral, Surface, degree, normal_form, phi
from wplarcs.braid import canonical_theta
from wplarcs.errors import InternalInvariantViolation, NotApplicable
from wplarcs.tilting import (
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

from bizley_literal import bizley_count_literal_binomial

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
        with pytest.raises(Exception):
            census(7, 7)

    @pytest.mark.parametrize("p", range(1, 4))
    @pytest.mark.parametrize("q", range(1, 4))
    def test_small_census_consistent(self, p, q):
        result = census(p, q)
        assert result["bundle_classes"] == math.comb(p + q, p)
        assert result["fundamental"] == bizley_count(p, q)
        assert result["sheaf_classes"] == sheaf_class_formula(p, q)


class TestEnumerationAsClasses:
    @pytest.mark.parametrize("s", [Surface(1, 2), Surface(2, 2)], ids=str)
    def test_random_triangulation_lands_in_enumeration(self, s):
        reps = {t.arcs for t in enumerate_anchored_triangulations(s)}
        rng = random.Random(5)
        for t in enumerate_anchored_triangulations(s):
            shifted = se_shift(t, rng.randint(-4, 4))
            assert se_canonical(shifted).arcs in reps
