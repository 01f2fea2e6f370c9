import random

import pytest

from wplarcs import core, homext, intersect
from wplarcs.core import (
    Bridging,
    InnerPeripheral,
    LineBundle,
    Surface,
    TorsionInf,
    TorsionOrdinary,
    TorsionZero,
    Zero,
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
from wplarcs.errors import NotApplicable, OutOfScope, SurfaceMismatch
from wplarcs.homext import (
    EPI,
    MIXED,
    MONO,
    NO_MAP,
    _tube_hom_count,
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

from algebra_oracle import class_additivity_holds
from conftest import ACCEPT_SURFACES, SMALL_SURFACES, window_arcs, window_curves
from homext_literal import (
    classify_literal,
    cokernel_literal,
    ext1_dim_literal,
    factor_literal,
    hom_dim_literal,
    kernel_literal,
    phi_inv_literal,
    serre_lift_holds,
)
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
        kernels = count_kernels(monkeypatch)
        sheaves = sheaf_window(Surface(3, 4), turns=1)
        for X in sheaves[::7]:
            for Y in sheaves[::5]:
                kernels.clear()
                dim = hom_dim(X, Y)
                ((k1, k2), (x1, y1, x2, y2, p, q)), = kernels
                s = X.surface
                assert (p, q) == (s.p, s.q)
                # The count ran on the Serre-dual pair: Y's curve se-shifted
                # once, then X's curve.
                assert k1(s, x1, y1) == phi_inv_literal(Y).se_shifted(1)
                assert k2(s, x2, y2) == phi_inv_literal(X)
                assert dim == positive_int(phi_inv(Y).se_shifted(1), phi_inv(X))


def count_kernels(monkeypatch):
    """Records each evaluation of the lift form of a crossing formula as
    ((class of c1, class of c2), its arguments)."""
    kernels = []
    for pair, rule in intersect._COUNT_RULES.items():

        def counting(*args, pair=pair, rule=rule):
            kernels.append((pair, args))
            return rule(*args)

        monkeypatch.setitem(intersect._COUNT_RULES, pair, counting)
    return kernels


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


# Each entry point beside its reference in `homext_literal`.
ROUTES = (
    (hom_dim, hom_dim_literal),
    (ext1_dim, ext1_dim_literal),
    (classify_nonzero, classify_literal),
    (cokernel_of_mono, cokernel_literal),
    (kernel_of_epi, kernel_literal),
    (epi_mono_factor, factor_literal),
)
DEEP_SURFACES = [Surface(1, 1), S23, Surface(3, 4), Surface(5, 6)]


def outcome(f, X, Y):
    """f(X, Y), or the class and message of what it raised."""
    try:
        return f(X, Y)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def assert_routes_agree(X, Y):
    for new, old in ROUTES:
        assert outcome(new, X, Y) == outcome(old, X, Y), (new.__name__, X, Y)


def deep_pool(rng, s):
    """Two line bundles near degree +-1e18 and two classes of each tube, with
    gaps and lengths log-uniform on [1, 1e4] and some small ones."""
    size = lambda: rng.choice((1, 2, round(10 ** rng.uniform(0, 4))))
    base = rng.choice((-1, 1)) * 10**18 + rng.randint(-9, 9)
    A = line_bundle(s, normal_form(rng.randrange(s.p), rng.randrange(s.q), base, s))
    gap = rng.choice((0, 1, -1)) * size()
    B = line_bundle(s, A.x + normal_form(rng.randrange(s.p), rng.randrange(s.q), gap, s))
    tubes = [
        kind(s, rng.randrange(rank), size())
        for kind, rank in ((TorsionInf, s.p), (TorsionZero, s.q))
        for _ in range(2)
    ]
    return [A, B] + tubes


class ShiftedBundle(LineBundle):
    """A subclass, which the entry points' type look-up does not know."""

    __slots__ = ()


class ShiftedTube(TorsionZero):
    """A subclass of a tube class, also unknown to the type look-up."""

    __slots__ = ()


class TestLiteralRoutes:
    """Each entry point checks its inputs once and builds one curve per
    sheaf; the references re-check and rebuild, as the entry points once did."""

    @pytest.mark.parametrize("s", DEEP_SURFACES, ids=str)
    def test_deep_pairs_agree(self, s):
        rng = random.Random(s.p * 100 + s.q)
        for _ in range(12):
            pool = deep_pool(rng, s)
            for X in pool:
                for Y in pool:
                    assert_routes_agree(X, Y)

    @pytest.mark.parametrize("s", [Surface(1, 1), S23, Surface(3, 4)], ids=str)
    def test_window_pairs_agree(self, s):
        sheaves = sheaf_window(s, turns=1)
        for X in sheaves:
            for Y in sheaves:
                assert_routes_agree(X, Y)

    def test_deep_kernels_and_cokernels_reached(self):
        # The references agree on real results at degree 1e18, not only on
        # NotApplicable.
        s = Surface(5, 6)
        X = line_bundle(s, normal_form(0, 0, 10**18, s))
        Y = line_bundle(s, X.x + x1(s) + x2(s))
        assert cokernel_of_mono(X, Y) == cokernel_literal(X, Y)
        assert cokernel_of_mono(X, Y)[1] == TorsionZero(s, 1, 1)
        T = TorsionZero(s, 0, 1)
        assert kernel_of_epi(X, T) == kernel_literal(X, T)
        T = TorsionInf(s, 3, 2)
        Xt = line_bundle(s, normal_form(2, 0, 10**18, s))
        assert epi_mono_factor(Xt, T) == factor_literal(Xt, T) == TorsionInf(s, 2, 1)

    @pytest.mark.parametrize(
        "bad", [TorsionOrdinary(S23, "t", 2), Zero(S23)], ids=["ordinary", "zero"]
    )
    def test_out_of_scope_either_place(self, bad):
        other = TorsionZero(Surface(3, 4), 1, 2)  # also on another surface
        for X, Y in ((bad, O), (O, bad), (bad, other), (other, bad), (bad, bad)):
            for new, old in ROUTES:
                got = outcome(new, X, Y)
                assert got == outcome(old, X, Y)
                assert got[0] is OutOfScope, (new.__name__, X, Y)

    def test_mixed_surfaces(self):
        other = line_bundle(Surface(3, 2))
        for X, Y in ((O, other), (other, O), (TorsionInf(S23, 0, 1), other)):
            for new, old in ROUTES:
                got = outcome(new, X, Y)
                assert got == outcome(old, X, Y)
                assert got[0] is SurfaceMismatch

    def test_equal_surfaces_of_two_instances(self):
        X = line_bundle(Surface(2, 3))
        Y = line_bundle(Surface(2, 3), canonical(Surface(2, 3)))
        assert X.surface is not Y.surface
        assert_routes_agree(X, Y)
        assert hom_dim(X, Y) == 2

    def test_non_sheaves_raise_as_before(self):
        curve = Bridging(S23, 0, 0)
        for X, Y in ((curve, O), (O, curve), (curve, curve), (3, O), (O, 3)):
            for new, old in ROUTES:
                got = outcome(new, X, Y)
                assert got == outcome(old, X, Y)
                # epi_mono_factor refuses a target that is not tube torsion
                # before it builds a curve.
                assert got[0] in (TypeError, AttributeError, NotApplicable), (X, Y)

    def test_subclass_takes_the_full_check(self):
        X = ShiftedBundle(S23, x1(S23))
        for Y in (O, line_bundle(S23, canonical(S23)), TorsionInf(S23, 1, 1)):
            assert_routes_agree(X, Y)
            assert_routes_agree(Y, X)
        assert outcome(hom_dim, X, TorsionOrdinary(S23, "t", 1))[0] is OutOfScope

    @pytest.mark.parametrize("s", [S23, Surface(5, 6)], ids=str)
    def test_deep_subclasses_and_errors(self, s):
        # Subclass sheaves take the `phi_inv` fall-back at degree 1e18.
        rng = random.Random(s.p + 7 * s.q)
        for _ in range(4):
            pool = deep_pool(rng, s)
            A, T = pool[0], pool[-1]
            pool += [ShiftedBundle(s, A.x), ShiftedTube(s, T.i, T.j)]
            for X in pool:
                for Y in pool:
                    assert_routes_agree(X, Y)
        # Each error class at degree 1e18: scope before surfaces, and a
        # curve is not a sheaf.
        far = line_bundle(Surface(s.q, s.p), normal_form(0, 0, -(10**18), Surface(s.q, s.p)))
        curve = Bridging(s, 1, 10**18)
        for X, Y, error in (
            (TorsionOrdinary(s, "t", 1), far, OutOfScope),
            (far, Zero(s), OutOfScope),
            (A, far, SurfaceMismatch),
            (curve, A, TypeError),
            (T, curve, TypeError),
        ):
            for new, old in ROUTES:
                got = outcome(new, X, Y)
                assert got == outcome(old, X, Y), (new.__name__, X, Y)
                # epi_mono_factor refuses a target that is not tube torsion
                # before it reads a lift.
                assert got[0] is error or (
                    new is epi_mono_factor and got[0] is NotApplicable
                ), (new.__name__, X, Y)

    def test_phi_inv_matches_literal(self):
        for s in DEEP_SURFACES:
            rng = random.Random(s.q)
            sheaves = deep_pool(rng, s)
            for X in sheaves + [ShiftedBundle(s, sheaves[0].x)]:
                assert phi_inv(X) == phi_inv_literal(X)
                assert serre_lift_holds(X), X
            T = TorsionOrdinary(s, "t", 3)
            assert phi_inv(T) == phi_inv_literal(T)
        for bad in (Zero(S23), Bridging(S23, 0, 0)):
            assert outcome(lambda X, _: phi_inv(X), bad, None) == outcome(
                lambda X, _: phi_inv_literal(X), bad, None
            )

    def test_one_check_and_one_lift_per_sheaf(self, monkeypatch):
        calls, curves = [], []

        def counting(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(homext, name, wrapper)

        for name in ("_in_scope", "_sheaf_lift", "phi_inv"):
            counting(name, getattr(homext, name))
        kernels = count_kernels(monkeypatch)
        init, lift = core._EndpointCurve.__init__, core._lift

        def built_init(self, *args):
            curves.append(type(self))
            init(self, *args)

        def built_lift(*args):
            curves.append(args[0])
            return lift(*args)

        monkeypatch.setattr(core._EndpointCurve, "__init__", built_init)
        monkeypatch.setattr(core, "_lift", built_lift)
        one_check = ["_in_scope", "_sheaf_lift", "_sheaf_lift"]
        # The counting entry points build no curve: one kernel evaluation
        # per count, on the lifts.
        for s in (S23, Surface(3, 4)):
            sheaves = sheaf_window(s, turns=1)
            for X in sheaves[::3]:
                for Y in sheaves[::2]:
                    for f, counts in ((hom_dim, {1}), (ext1_dim, {1}), (classify_nonzero, {1, 2})):
                        for log in (calls, curves, kernels):
                            log.clear()
                        f(X, Y)
                        assert calls == one_check, (f.__name__, X, Y)
                        assert curves == [], (f.__name__, X, Y)
                        assert len(kernels) in counts, (f.__name__, X, Y)
        # Those that need connectors build curves from the same lifts.
        X, Y = O, line_bundle(S23, x1(S23))
        for f, args in (
            (cokernel_of_mono, (X, Y)),
            (kernel_of_epi, (O, TorsionZero(S23, 0, 1))),
        ):
            calls.clear()
            f(*args)
            assert calls == one_check, f.__name__
        calls.clear()
        epi_mono_factor(line_bundle(S23, 2 * x1(S23)), TorsionInf(S23, 3, 2))
        # The factor's own lift, for the two self-checks.
        assert calls == one_check + ["_sheaf_lift"]
