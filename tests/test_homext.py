import pytest

from wplarcs import homext
from wplarcs.core import (
    Bridging,
    InnerPeripheral,
    Surface,
    TorsionInf,
    TorsionOrdinary,
    TorsionZero,
    canonical,
    dim_S,
    dualizing,
    line_bundle,
    normal_form,
    phi,
    phi_inv,
    structure_sheaf,
    tau,
    x1,
    x2,
    zero,
)
from wplarcs.errors import NotApplicable, OutOfScope
from wplarcs.homext import (
    EPI,
    MIXED,
    MONO,
    NO_MAP,
    _tube_hom_count,
    class_additivity_holds,
    classify_nonzero,
    cokernel_of_mono,
    epi_mono_factor,
    ext1_dim,
    hom_dim,
    hom_dim_oracle,
    is_exceptional,
    kernel_of_epi,
)
from wplarcs.intersect import positive_int

from conftest import ACCEPT_SURFACES, SMALL_SURFACES, window_arcs, window_curves
from tube_literal import tube_hom_count_literal

S23 = Surface(2, 3)
O = structure_sheaf(S23)


def sheaf_window(s, turns=2):
    return [phi(c) for c in window_curves(s, turns=turns, max_span_turns=2)]


class TestDimensions:
    def test_ext_serre_dual_of_end(self):
        assert ext1_dim(O, line_bundle(S23, dualizing(S23))) == 1

    def test_rigidity(self):
        for s in SMALL_SURFACES:
            for arc in window_arcs(s):
                X = phi(arc)
                assert ext1_dim(X, X) == 0

    def test_tube_ext(self):
        s = Surface(2, 3)
        assert ext1_dim(TorsionInf(s, 0, 1), TorsionInf(s, 1, 1)) == 1

    def test_hom_k2(self):
        assert hom_dim(O, line_bundle(S23, canonical(S23))) == 2

    def test_hom_vanishing(self):
        assert hom_dim(line_bundle(S23, canonical(S23)), O) == 0
        assert hom_dim(TorsionInf(S23, 0, 1), O) == 0

    def test_out_of_scope(self):
        with pytest.raises(OutOfScope):
            hom_dim(TorsionOrdinary(S23, "t", 1), O)

    @pytest.mark.parametrize("s", SMALL_SURFACES, ids=str)
    def test_oracle_agreement(self, s):
        sheaves = sheaf_window(s)
        for X in sheaves:
            for Y in sheaves:
                try:
                    expected = hom_dim_oracle(X, Y)
                except NotApplicable:
                    continue
                assert hom_dim(X, Y) == expected, (X, Y)

    def test_oracle_examples(self):
        assert hom_dim_oracle(O, line_bundle(S23, x1(S23) + x2(S23))) == 1
        assert hom_dim_oracle(O, TorsionInf(S23, 0, 1)) == 1
        s = Surface(3, 1)
        assert hom_dim_oracle(TorsionInf(s, 2, 2), TorsionInf(s, 2, 1)) == 1

    def test_oracle_undefined_shapes(self):
        with pytest.raises(NotApplicable):
            hom_dim_oracle(TorsionInf(S23, 0, 1), TorsionZero(S23, 0, 1))

    @pytest.mark.parametrize("s", ACCEPT_SURFACES, ids=str)
    def test_tube_count_closed_form_matches_literal(self, s):
        for rank in (s.p, s.q):
            classes = [(top, n) for top in range(rank) for n in range(1, 3 * rank + 1)]
            for top_x, len_x in classes:
                for top_y, len_y in classes:
                    args = (top_x, len_x, top_y, len_y, rank)
                    assert _tube_hom_count(*args) == tube_hom_count_literal(*args), args


class TestSerreRoutes:
    """hom_dim reads one Serre-dual route; both routes agree here."""

    @pytest.mark.parametrize("s", ACCEPT_SURFACES + [Surface(3, 4)], ids=str)
    def test_routes_agree(self, s):
        curves = window_curves(s, turns=2, max_span_turns=2)
        for gx in curves:
            for gy in curves:
                assert positive_int(gy.se_shifted(1), gx) == positive_int(
                    gy, gx.se_shifted(-1)
                ), (gx, gy)

    def test_one_intersection_count_per_call(self, monkeypatch):
        calls = []

        def counting(c1, c2):
            calls.append((c1, c2))
            return positive_int(c1, c2)

        monkeypatch.setattr(homext, "positive_int", counting)
        sheaves = sheaf_window(Surface(3, 4), turns=1)
        for X in sheaves[::7]:
            for Y in sheaves[::5]:
                calls.clear()
                dim = hom_dim(X, Y)
                assert calls == [(phi_inv(Y).se_shifted(1), phi_inv(X))]
                assert dim == positive_int(*calls[0])


class TestExceptional:
    def test_line_bundles_exceptional(self):
        assert is_exceptional(O)
        assert is_exceptional(line_bundle(S23, normal_form(5, -4, 2, S23)))

    def test_full_length_tube_not_exceptional(self):
        assert not is_exceptional(TorsionInf(S23, 0, 2))  # length p
        assert not is_exceptional(TorsionZero(S23, 0, 3))  # length q

    def test_ordinary_not_exceptional(self):
        assert not is_exceptional(TorsionOrdinary(S23, "t", 1))

    @pytest.mark.parametrize("s", SMALL_SURFACES, ids=str)
    def test_matches_self_ext(self, s):
        for X in sheaf_window(s, turns=1):
            assert is_exceptional(X) == (
                ext1_dim(X, X) == 0 and hom_dim(X, X) == 1
            )


class TestClassify:
    def test_examples(self):
        assert classify_nonzero(O, line_bundle(S23, x1(S23))).tag == MONO
        assert classify_nonzero(O, TorsionInf(S23, 0, 1)).tag == EPI
        assert classify_nonzero(TorsionInf(S23, 0, 1), O).tag == NO_MAP

    def test_identity_flag(self):
        cls = classify_nonzero(O, O)
        assert cls.tag == MONO and cls.same_object

    def test_tube_shapes(self):
        s = Surface(3, 1)
        assert classify_nonzero(TorsionInf(s, 1, 1), TorsionInf(s, 2, 2)).tag == MONO
        assert classify_nonzero(TorsionInf(s, 2, 2), TorsionInf(s, 2, 1)).tag == EPI

    def test_mixed(self):
        s = Surface(2, 3)
        # Length-p object maps to its own translate in both directions.
        assert classify_nonzero(TorsionInf(s, 0, 2), TorsionInf(s, 1, 2)).tag == MIXED

    @pytest.mark.parametrize("s", SMALL_SURFACES, ids=str)
    def test_mono_epi_only_with_hom(self, s):
        for X in sheaf_window(s, turns=1):
            for Y in sheaf_window(s, turns=1):
                cls = classify_nonzero(X, Y)
                if cls.tag in (MONO, EPI):
                    assert hom_dim(X, Y) >= 1


class TestKernelsCokernels:
    def test_cokernel_simple(self):
        c1, c2 = cokernel_of_mono(O, line_bundle(S23, x1(S23)))
        assert c1 == TorsionInf(S23, 1, 1)
        assert c2.key() == (4,)

    def test_cokernel_two_parts(self):
        c1, c2 = cokernel_of_mono(O, line_bundle(S23, x1(S23) + x2(S23)))
        assert c1 == TorsionInf(S23, 1, 1)
        assert c2 == TorsionZero(S23, 1, 1)

    def test_cokernel_tube(self):
        s = Surface(4, 1)
        c1, c2 = cokernel_of_mono(TorsionInf(s, 2, 1), TorsionInf(s, 3, 2))
        assert c1 == TorsionInf(s, 3, 1)
        assert c2.key() == (4,)

    def test_cokernel_rejects_hom2(self):
        with pytest.raises(NotApplicable):
            cokernel_of_mono(O, line_bundle(S23, canonical(S23)))

    def test_kernel_line_to_inner(self):
        k1, k2 = kernel_of_epi(line_bundle(S23, x1(S23)), TorsionInf(S23, 1, 1))
        assert k1 == O
        assert k2.key() == (4,)

    def test_kernel_line_to_outer(self):
        k1, k2 = kernel_of_epi(O, TorsionZero(S23, 0, 1))
        assert k1 == line_bundle(S23, -x2(S23))
        assert k2.key() == (4,)

    def test_kernel_tube(self):
        s = Surface(3, 1)
        k1, k2 = kernel_of_epi(TorsionInf(s, 0, 2), TorsionInf(s, 0, 1))
        assert k1.key() == (4,)
        assert k2 == TorsionInf(s, 2, 1)

    @pytest.mark.parametrize("s", SMALL_SURFACES, ids=str)
    def test_class_additivity(self, s):
        sheaves = sheaf_window(s, turns=1)
        checked = 0
        for X in sheaves:
            for Y in sheaves:
                cls = classify_nonzero(X, Y)
                if cls.tag == MONO and not cls.same_object:
                    try:
                        parts = cokernel_of_mono(X, Y)
                    except NotApplicable:
                        continue
                    assert class_additivity_holds(X, Y, parts), (X, Y, parts)
                    checked += 1
                elif cls.tag == EPI:
                    try:
                        parts = kernel_of_epi(X, Y)
                    except NotApplicable:
                        continue
                    rX, dX = 1 if X.key()[0] == 0 else 0, None
                    assert class_additivity_holds(parts[0], X, [parts[1], Y]) or (
                        class_additivity_holds(parts[1], X, [parts[0], Y])
                    ), (X, Y, parts)
                    checked += 1
        if s.rank > 2:
            assert checked > 0


class TestFactorization:
    def test_line_through_tube(self):
        s = Surface(3, 1)
        X = line_bundle(s, 2 * x1(s))
        Y = TorsionInf(s, 3, 2)
        assert epi_mono_factor(X, Y) == TorsionInf(s, 2, 1)

    def test_tube_through_tube(self):
        s = Surface(3, 1)
        X = TorsionInf(s, 2, 2)
        Y = TorsionInf(s, 3, 2)
        assert epi_mono_factor(X, Y) == TorsionInf(s, 2, 1)

    def test_mono_rejected(self):
        s = Surface(3, 1)
        with pytest.raises(NotApplicable):
            epi_mono_factor(TorsionInf(s, 2, 1), TorsionInf(s, 3, 2))

    @pytest.mark.parametrize("s", SMALL_SURFACES, ids=str)
    def test_factor_coherence(self, s):
        sheaves = sheaf_window(s, turns=1)
        checked = 0
        for X in sheaves:
            for Y in sheaves:
                if not isinstance(Y, (TorsionInf, TorsionZero)):
                    continue
                try:
                    Z = epi_mono_factor(X, Y)
                except (NotApplicable, OutOfScope):
                    continue
                assert hom_dim(X, Z) >= 1 and hom_dim(Z, Y) >= 1
                assert classify_nonzero(X, Z).tag == EPI
                assert classify_nonzero(Z, Y).tag == MONO
                checked += 1
        if s.rank > 2:
            assert checked > 0
