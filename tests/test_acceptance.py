"""Acceptance criteria, one test per criterion with its stated budget.

Every check is an exact integer equality; each test prints a single
PASS line with the exercised case count and elapsed time.
"""

import math
import random
import time

import pytest

from wplarcs.core import (
    Bridging,
    InnerPeripheral,
    LineBundle,
    OuterPeripheral,
    Surface,
    canonical,
    move,
    phi,
    phi_inv,
    tau,
    tau_inv,
    twist,
)
from wplarcs.braid import (
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
from wplarcs.errors import NotApplicable
from wplarcs.exceptional import (
    ArcCollection,
    complete_to_maximal,
    external_points,
    is_exceptional_pair,
    is_ordered_exceptional_collection,
    order_collection,
)
from wplarcs.homext import (
    EPI,
    MONO,
    classify_nonzero,
    cokernel_of_mono,
    ext1_dim,
    hom_dim,
    hom_dim_oracle,
    kernel_of_epi,
)
from wplarcs.tilting import (
    bizley_count,
    census,
    enumerate_anchored_triangulations,
    enumerate_lattice_paths,
    is_dyck,
    path_to_tilting,
    se_canonical,
    sheaf_class_formula,
    tilting_to_path,
    triangulation,
)

from bizley_literal import bizley_count_literal_binomial
from conftest import window_arcs, window_curves
from algebra_oracle import (
    algebraic_left_mutation,
    algebraic_right_mutation,
    class_additivity_holds,
)

SURFACES = [Surface(1, 1), Surface(1, 2), Surface(2, 2), Surface(2, 3), Surface(3, 3)]
ALL_3x3 = [Surface(p, q) for p in range(1, 4) for q in range(1, 4)]


def _report(num, label, cases, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"PASS criterion {num:2d}: {label} ({cases} checks, {elapsed:.2f}s)")


def test_criterion_01_dictionary_translate_coherence():
    started = time.monotonic()
    cases = 0
    for s in SURFACES:
        for arc in window_arcs(s, turns=2):
            X = phi(arc)
            assert phi_inv(X) == arc
            assert phi_inv(tau_inv(X)) == move(arc, ["s", "e"])
            assert phi_inv(tau(X)) == move(arc, ["s-", "e-"])
            cases += 3
        # Widened bridging sweep for volume: round trips both ways.
        for i in range(s.p):
            for j in range(-600, 601):
                arc = Bridging(s, i, j)
                assert phi_inv(phi(arc)) == arc
                cases += 1
    assert cases >= 10_000
    _report(1, "dictionary and translate coherence", cases, started, 10.0)


def test_criterion_02_hom_matches_oracle():
    started = time.monotonic()
    cases = 0
    for s in SURFACES:
        turns = 3 if s.rank >= 5 else 2
        sheaves = [phi(c) for c in window_curves(s, turns=turns, max_span_turns=2)]
        for X in sheaves:
            for Y in sheaves:
                try:
                    expected = hom_dim_oracle(X, Y)
                except NotApplicable:
                    continue
                assert hom_dim(X, Y) == expected, (X, Y)
                cases += 1
    assert cases >= 10_000
    _report(2, "geometric Hom equals algebraic oracle", cases, started, 30.0)


def test_criterion_03_pair_dimension_bounds():
    started = time.monotonic()
    cases = 0
    for s in SURFACES:
        arcs = window_arcs(s, turns=2)
        c = canonical(s)
        for a in arcs:
            for b in arcs:
                E, F = phi(a), phi(b)
                if a == b or not is_exceptional_pair(E, F):
                    continue
                h = hom_dim(E, F)
                e = ext1_dim(E, F)
                assert h <= 2 and e <= 1 and h * e == 0, (E, F)
                if h == 2:
                    assert isinstance(E, LineBundle) and F == twist(E, c), (E, F)
                cases += 1
    _report(3, "exceptional pair dimension bounds", cases, started, 30.0)


def test_criterion_04_kernel_cokernel_bookkeeping():
    started = time.monotonic()
    cases = 0
    for s in SURFACES:
        sheaves = [phi(c) for c in window_curves(s, turns=2, max_span_turns=2)]
        for X in sheaves:
            for Y in sheaves:
                cls = classify_nonzero(X, Y)
                if cls.tag == MONO and not cls.same_object:
                    try:
                        parts = cokernel_of_mono(X, Y)
                    except NotApplicable:
                        continue
                    assert class_additivity_holds(X, Y, parts), (X, Y)
                    cases += 1
                elif cls.tag == EPI:
                    try:
                        k1, k2 = kernel_of_epi(X, Y)
                    except NotApplicable:
                        continue
                    assert class_additivity_holds(k1, X, [k2, Y]), (X, Y)
                    cases += 1
    assert cases > 0
    _report(4, "kernel/cokernel class additivity", cases, started, 30.0)


def test_criterion_05_ordered_collection_equivalence():
    started = time.monotonic()
    rng = random.Random(2024)
    cases = 0
    while cases < 1000:
        s = SURFACES[cases % len(SURFACES)]
        arcs = window_arcs(s, turns=1)
        size = rng.randint(1, s.rank)
        listed = tuple(rng.sample(arcs, min(size, len(arcs))))
        algebraic = all(
            is_exceptional_pair(phi(listed[i]), phi(listed[j]))
            for i in range(len(listed))
            for j in range(i + 1, len(listed))
        )
        assert is_ordered_exceptional_collection(listed) == algebraic
        ordered = order_collection(ArcCollection.of(s, listed))
        if ordered is not None:
            assert is_ordered_exceptional_collection(ordered)
        cases += 1
    _report(5, "ordered collections match exceptional sequences", cases, started, 30.0)


def test_criterion_06_completion_census():
    started = time.monotonic()
    rng = random.Random(77)
    cases = 0
    while cases < 1000:
        s = SURFACES[cases % len(SURFACES)]
        arcs = window_arcs(s, turns=1)
        seed = []
        rng.shuffle(arcs)
        target_seed = rng.randint(0, s.rank - 1)
        for arc in arcs:
            if len(seed) >= target_seed:
                break
            trial = seed + [arc]
            if order_collection(ArcCollection.of(s, trial)) is not None:
                seed = trial
        completed = complete_to_maximal(ArcCollection.of(s, seed))
        assert len(completed) == s.rank
        assert set(seed) <= set(completed)
        inner, outer = external_points(ArcCollection.of(s, completed))
        k, l = len(inner), len(outer)
        counts = (
            sum(1 for a in completed if isinstance(a, InnerPeripheral)),
            sum(1 for a in completed if isinstance(a, OuterPeripheral)),
            sum(1 for a in completed if isinstance(a, Bridging)),
        )
        assert counts == (s.p - k, s.q - l, k + l), (s, completed)
        cases += 1
    _report(6, "completions reach p+q with the type census", cases, started, 60.0)


def test_criterion_07_mutation_compatibility():
    started = time.monotonic()
    cases = 0
    for s in SURFACES:
        arcs = window_arcs(s, turns=1)
        for a in arcs:
            for b in arcs:
                if a == b or not is_exceptional_pair(phi(a), phi(b)):
                    continue
                left = mutate_pair(a, b, "left")
                right = mutate_pair(a, b, "right")
                assert phi(left) == algebraic_left_mutation(phi(a), phi(b)), (a, b)
                assert phi(right) == algebraic_right_mutation(phi(a), phi(b)), (a, b)
                cases += 2
    # The named double-twist identities.
    for s in SURFACES:
        O = phi_inv(LineBundle(s, canonical(s) * 0))
        Oc = phi_inv(LineBundle(s, canonical(s)))
        assert phi(mutate_pair(O, Oc, "left")) == LineBundle(s, -canonical(s))
        assert phi(mutate_pair(O, Oc, "right")) == LineBundle(s, 2 * canonical(s))
        cases += 2
    _report(7, "arc mutation matches algebraic mutation", cases, started, 30.0)


def test_criterion_08_braid_axioms():
    started = time.monotonic()
    rng = random.Random(5150)
    cases = 0
    sequences = []
    while len(sequences) < 1000:
        s = SURFACES[len(sequences) % len(SURFACES)]
        base = canonical_theta(s)
        r = s.rank
        letters = [
            rng.choice([1, -1]) * rng.randint(1, r - 1)
            for _ in range(rng.randint(0, 6))
        ]
        sequences.append((s, apply_braid(base, word(r, *letters), validate=False)))
    for s, L in sequences:
        r = s.rank
        idx = rng.randint(1, r - 1)
        assert apply_braid(L, word(r, idx, -idx), validate=False) == L
        assert apply_braid(L, word(r, -idx, idx), validate=False) == L
        cases += 2
        if r >= 3:
            i = rng.randint(1, r - 2)
            assert apply_braid(L, word(r, i, i + 1, i), validate=False) == (
                apply_braid(L, word(r, i + 1, i, i + 1), validate=False)
            )
            cases += 1
        if r >= 4:
            assert apply_braid(L, word(r, 1, 3), validate=False) == (
                apply_braid(L, word(r, 3, 1), validate=False)
            )
            cases += 1
        # Periodicity of the adjacent pair by its class.
        E, F = phi(L[idx - 1]), phi(L[idx])
        h, e = hom_dim(E, F), ext1_dim(E, F)
        if h == 0 and e == 0:
            assert apply_braid(L, word(r, idx, idx), validate=False) == L
        elif h == 2:
            out = apply_braid(L, word(r, -idx, -idx, -idx), validate=False)
            c = canonical(s)
            assert phi(out[idx - 1]) == twist(E, 3 * c)
            assert phi(out[idx]) == twist(E, 4 * c)
        else:
            assert apply_braid(L, word(r, idx, idx, idx), validate=False) == L
        cases += 1
        # Double mutation identities on the adjacent pair.
        if (h == 1 and e == 0) or (h == 0 and e == 1):
            a, b = L[idx - 1], L[idx]
            left = mutate_pair(a, b, "left")
            assert mutate_pair(left, a, "left") == b
            right = mutate_pair(a, b, "right")
            assert mutate_pair(b, right, "right") == a
            cases += 2
        # Line-bundle presence is invariant letter by letter.
        has_line = any(isinstance(x, Bridging) for x in L)
        out = apply_braid(L, word(r, rng.choice([1, -1]) * idx), validate=False)
        assert any(isinstance(x, Bridging) for x in out) == has_line
        cases += 1
    _report(8, "braid axioms and periodicities", cases, started, 60.0)


def test_criterion_09_explicit_braid_words():
    started = time.monotonic()
    cases = 0
    # The explicit four-strand rearrangement word.
    for s in (Surface(2, 3), Surface(3, 4)):
        L = (
            Bridging(s, 0, 2),
            Bridging(s, 0, 1),
            Bridging(s, 0, 0),
            Bridging(s, 1, 2),
        )
        out = apply_braid(L, word(4, 3, 3, 2, 2, 1, 2, 2, 3, 1, 1))
        assert out == (
            Bridging(s, 1, 2),
            Bridging(s, 1, 1),
            Bridging(s, 0, 0),
            Bridging(s, 1, 0),
        )
        cases += 1
    # The fan-insertion word sigma_k ... sigma_{r-1}.
    s = Surface(2, 3)
    L = (
        OuterPeripheral(s, -2, 0),
        OuterPeripheral(s, -3, 0),
        InnerPeripheral(s, 0, 2),
        Bridging(s, 1, -1),
    )
    out = apply_braid(L, word(4, 2, 3))
    assert out == (L[0], Bridging(s, 2, -3), L[1], L[2])
    cases += 1
    # The global start-shift word used by the normalizer machinery.
    for s in (Surface(1, 2), Surface(2, 2), Surface(2, 3)):
        th = canonical_theta(s)
        got = apply_braid(th, start_shift_word(s))
        assert got == tuple(move(a, ["s"]) for a in th)
        cases += 1
    _report(9, "explicit rearrangement and shift words", cases, started, 5.0)


def test_criterion_10_transitivity_round_trip():
    started = time.monotonic()
    rng = random.Random(31337)
    cases = 0
    while cases < 200:
        s = ALL_3x3[cases % len(ALL_3x3)]
        th = canonical_theta(s)
        r = s.rank
        letters = [
            rng.choice([1, -1]) * rng.randint(1, r - 1)
            for _ in range(rng.randint(0, 12))
        ]
        L = apply_braid(th, word(r, *letters), validate=False)
        L = se_shift_collection(L, rng.randint(-3, 3))
        t0 = time.monotonic()
        w = normalize_to_theta(L)
        assert time.monotonic() - t0 < 5.0, (s, letters)
        assert apply_braid(L, w, validate=False) == th, (s, letters)
        cases += 1
    _report(10, "normalization round trips", cases, started, 1000.0)


def test_criterion_11_tilting_bundle_classes():
    started = time.monotonic()
    cases = 0
    for p in range(1, 6):
        for q in range(1, 6):
            s = Surface(p, q)
            paths = enumerate_lattice_paths(p, q)
            reps = set()
            for path in paths:
                t = path_to_tilting(s, path)
                assert tilting_to_path(t) == path
                reps.add(t.arcs)
            assert len(reps) == math.comb(p + q, p)
            cases += len(paths)
    _report(11, "tilting bundle classes count the binomial", cases, started, 30.0)


def test_criterion_12_fundamental_bundles():
    started = time.monotonic()
    cases = 0
    for p in range(1, 6):
        for q in range(1, 6):
            dyck = sum(1 for path in enumerate_lattice_paths(p, q) if is_dyck(path))
            assert dyck == bizley_count(p, q)
            cases += 1
    # Documented failure of the plain-binomial atom.
    assert bizley_count_literal_binomial(2, 2) == 8
    assert bizley_count(2, 2) == 2
    assert bizley_count_literal_binomial(2, 2) != bizley_count(2, 2)
    cases += 1
    _report(12, "fundamental bundles match the gcd formula", cases, started, 30.0)


def test_criterion_13_tilting_sheaf_census():
    started = time.monotonic()
    expected = {(1, 1): 2, (1, 2): 6, (2, 3): 60}
    for (p, q), value in expected.items():
        assert census(p, q)["sheaf_classes"] == value
    cases = len(expected)
    for p in range(1, 5):
        for q in range(1, 5):
            s = Surface(p, q)
            reps = enumerate_anchored_triangulations(s)
            assert len(reps) == sheaf_class_formula(p, q)
            for t in reps:
                assert se_canonical(t) == t
            cases += len(reps)
    _report(13, "tilting sheaf census up to shift", cases, started, 60.0)
