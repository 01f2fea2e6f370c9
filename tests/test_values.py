"""Value semantics of every immutable value class of the library.

Each case is one instance, its field names in order, and the field values
it was built from.  A value equals one rebuilt from its fields and no value
with one field changed; it hashes as the tuple of its fields; it cannot be
changed; `copy`, `deepcopy` and `pickle` give it back equal.  The reprs are
pinned, since they are part of the output of the command line and of the
messages of errors.
"""

import copy
import importlib
import pickle
import pkgutil
import typing

import pytest

import wplarcs
from wplarcs import tilting
from wplarcs.braid import BraidWord
from wplarcs.core import (
    Bridging,
    InnerPeripheral,
    LElt,
    LineBundle,
    Loop,
    OuterPeripheral,
    Surface,
    TorsionInf,
    TorsionOrdinary,
    TorsionZero,
    Zero,
)
from wplarcs.errors import IndexOutOfRange, InvalidArguments, InvalidCurve, SurfaceMismatch
from wplarcs.exceptional import ArcCollection, PositionClass
from wplarcs.homext import MapClass
from wplarcs.intersect import CrossingWitness, EndpointRelation
from wplarcs.tilting import LatticePath, Triangulation

S = Surface(2, 3)
L = LElt(S, 1, 2, -3)
B = Bridging(S, 1, -4)
FAMILY = tilting._plain_family(S, 0, 3)
ARCS = frozenset({Bridging(S, 0, 0), Bridging(S, 1, 0)})

# (class, field names, field values, the same values with one field changed, repr)
CASES = [
    (Surface, ("p", "q"), (2, 3), (2, 4), "Surface(2,3)"),
    (LElt, ("surface", "l1", "l2", "l"), (S, 1, 2, -3), (S, 1, 2, -2), "L(1,2,-3)"),
    (Bridging, ("surface", "i", "j"), (S, 1, -4), (S, 1, -3), "B(1,-4)"),
    (InnerPeripheral, ("surface", "a", "b"), (S, 0, 2), (S, 1, 2), "IP(0,2)"),
    (OuterPeripheral, ("surface", "a", "b"), (S, 1, 3), (S, 1, 4), "OP(1,3)"),
    (Loop, ("surface", "n", "param"), (S, 2, "t"), (S, 2, "u"), "Loop(2,'t')"),
    (LineBundle, ("surface", "x"), (S, L), (S, LElt(S, 0, 2, -3)), "O(1,2,-3)"),
    (TorsionInf, ("surface", "i", "j"), (S, 1, 2), (S, 1, 3), "Tinf(1,2)"),
    (TorsionZero, ("surface", "i", "j"), (S, 2, 3), (S, 1, 3), "Tzero(2,3)"),
    (TorsionOrdinary, ("surface", "param", "n"), (S, "t", 2), (S, "t", 1), "Tord('t',2)"),
    (Zero, ("surface",), (S,), (Surface(3, 2),), "0"),
    (
        CrossingWitness,
        ("offset", "config"),
        (3, "bridging-bridging"),
        (4, "bridging-bridging"),
        "CrossingWitness(offset=3, config='bridging-bridging')",
    ),
    (
        EndpointRelation,
        ("shared_start", "shared_end", "clockwise_follows"),
        (True, False, True),
        (True, False, False),
        "EndpointRelation(shared_start=True, shared_end=False, clockwise_follows=True)",
    ),
    (
        MapClass,
        ("tag", "same_object"),
        ("mono", False),
        ("mono", True),
        "MapClass(tag='mono', same_object=False)",
    ),
    (PositionClass, ("tag",), ("disjoint",), ("shared",), "PositionClass(tag='disjoint')"),
    (
        ArcCollection,
        ("surface", "arcs"),
        (S, frozenset({B})),
        (S, frozenset({B, Bridging(S, 0, 0)})),
        "ArcCollection(surface=Surface(2,3), arcs=frozenset({B(1,-4)}))",
    ),
    (
        BraidWord,
        ("strands", "letters"),
        (5, ((1, 1),)),
        (5, ((1, -1),)),
        "BraidWord(strands=5, letters=((1, 1),))",
    ),
    (
        LatticePath,
        ("points",),
        (((0, 0), (1, 0)),),
        (((0, 0), (0, 1)),),
        "LatticePath(points=((0, 0), (1, 0)))",
    ),
    (
        Triangulation,
        ("surface", "arcs"),
        (S, ARCS),
        (S, ARCS | {B}),
        f"Triangulation(surface=Surface(2,3), arcs={ARCS!r})",
    ),
    (
        tilting._Family,
        ("surface", "anchors", "inside", "outside"),
        (S, FAMILY.anchors, FAMILY.inside, FAMILY.outside),
        (S, FAMILY.anchors, FAMILY.inside[:-1], FAMILY.outside),
        "_Family(surface=Surface(2,3), anchors=(B(0,0), B(0,3), OP(0,3)), "
        "inside=(('outer', 0), ('outer', 1), ('outer', 2), ('outer', 3)), "
        "outside=(('inner', 0), ('inner', 1), ('inner', 2), ('outer', 3)))",
    ),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, names, values, changed, text", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, names, values, changed, text):
    v = cls(*values)
    assert tuple(getattr(v, name) for name in names) == values
    assert v == cls(*values) and not v != cls(*values)
    assert v != cls(*changed) and not v == cls(*changed)
    assert hash(v) == hash(values)
    assert v.__eq__(object()) is NotImplemented and v != object()
    assert repr(v) == text


@pytest.mark.parametrize("cls, names, values, changed, text", CASES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, names, values, changed, text):
    v = cls(*values)
    for name, other in zip(names, changed):
        with pytest.raises(AttributeError):
            setattr(v, name, other)
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert tuple(getattr(v, name) for name in names) == values


def _round_trips(v):
    yield copy.copy(v)
    yield copy.deepcopy(v)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(v, protocol))


@pytest.mark.parametrize("cls, names, values, changed, text", CASES, ids=IDS)
def test_copy_and_pickle_give_an_equal_value(cls, names, values, changed, text):
    v = cls(*values)
    for w in _round_trips(v):
        assert type(w) is cls and w == v and hash(w) == hash(v)
        assert tuple(getattr(w, name) for name in names) == values


def test_translated_lift_survives_copy_and_pickle():
    # A lift outside the canonical window is a value of its own: rebuilding
    # it through the constructor would renormalise it to B.
    lift = B.translated(3)
    assert (lift.i, lift.j) == (7, 5) and lift != B
    for w in _round_trips(lift):
        assert (w.i, w.j) == (7, 5) and w == lift and hash(w) == hash((S, 7, 5))
        assert w.translated(-3) == B


def test_surface_hash_survives_copy_and_pickle():
    s = Surface(4, 7)
    for w in _round_trips(s):
        assert w == s and w is not s and hash(w) == hash((4, 7))
        assert {w: 1}[s] == 1


def test_surfaces_sort_by_p_then_q():
    surfaces = [Surface(3, 2), Surface(2, 5), Surface(2, 3), Surface(1, 9)]
    assert sorted(surfaces) == [Surface(1, 9), Surface(2, 3), Surface(2, 5), Surface(3, 2)]
    assert Surface(2, 3) < Surface(2, 4) <= Surface(2, 4) and Surface(3, 1) > Surface(2, 9)
    with pytest.raises(TypeError):
        Surface(2, 3) < (2, 4)


def test_values_of_different_classes_differ():
    assert InnerPeripheral(S, 0, 2) != OuterPeripheral(S, 0, 2)
    assert TorsionInf(S, 1, 2) != TorsionZero(S, 1, 2)
    assert Triangulation(S, ARCS) != ArcCollection(S, ARCS)


def test_constructors_still_check_and_reduce():
    assert TorsionInf(S, 5, 1).i == 1 and TorsionZero(S, -1, 1).i == 2
    assert Bridging(S, 5, 0) == Bridging(S, 1, -6)
    assert MapClass("epi") == MapClass("epi", False) == MapClass("epi", same_object=False)
    for build, error in (
        (lambda: Surface(0, 1), ValueError),
        (lambda: LElt(S, 2, 0, 0), ValueError),
        (lambda: LineBundle(Surface(3, 2), L), SurfaceMismatch),
        (lambda: TorsionInf(S, 0, 0), ValueError),
        (lambda: TorsionZero(S, 0, 0), ValueError),
        (lambda: TorsionOrdinary(S, "t", 0), ValueError),
        (lambda: Loop(S, 0, "t"), InvalidCurve),
        (lambda: InnerPeripheral(S, 2, 2), InvalidCurve),
        (lambda: BraidWord(3, ((3, 1),)), IndexOutOfRange),
        (lambda: BraidWord(3, ((1, 2),)), InvalidArguments),
        (lambda: LatticePath(((1, 0),)), InvalidArguments),
        (lambda: LatticePath(((0, 0), (1, 1))), InvalidArguments),
    ):
        with pytest.raises(error):
            build()


def test_every_class_resolves_its_type_hints():
    # Annotations are strings (`from __future__ import annotations`), so a
    # name a module never imports fails only when the hints are resolved.
    classes = [
        (module.__name__, cls)
        for info in pkgutil.iter_modules(wplarcs.__path__)
        for module in [importlib.import_module(f"wplarcs.{info.name}")]
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__
    ]
    assert len(classes) > 20
    for module, cls in classes:
        try:
            typing.get_type_hints(cls)
        except NameError as err:
            pytest.fail(f"{module}.{cls.__qualname__}: {err}")
