"""Surface parameters, grading group arithmetic, curve classes and the arc dictionary.

The marked annulus of type (p, q) carries p marked points on the inner
boundary and q on the outer one.  Working in the universal cover (a
horizontal strip with the inner boundary drawn on top), marked points sit at
x = i/p on the top boundary and x = j/q on the bottom one, for integer i, j.

Every non-loop curve is a pair of endpoints in the cover, each a (boundary,
index) pair, up to the deck translation: a full turn adds the boundary's
period (p inner, q outer) to each index.  Bridging curves run from the outer
boundary to the inner one, peripheral curves along one boundary from the
lower index to the higher.  One move rule serves every class: a move steps
one endpoint +1 on the inner boundary and -1 on the outer one, and the
se-shift (Serre duality on the sheaf side) moves both endpoints at once.

Isomorphism classes of indecomposable sheaves over the weighted projective
line of the same type are encoded by :class:`SheafClass` values; the
dictionary between the two worlds is :func:`phi` / :func:`phi_inv`.
"""

from __future__ import annotations

import math
from functools import total_ordering
from operator import attrgetter
from typing import Iterable, Tuple, Union

from .errors import (
    InternalInvariantViolation,
    InvalidCurve,
    OutOfScope,
    SurfaceMismatch,
)

# Elementary move tokens: "s"/"e" move the start/end point one step, the
# "-" suffixed forms undo them.
MOVE_S = "s"
MOVE_E = "e"
MOVE_S_INV = "s-"
MOVE_E_INV = "e-"

INNER = "inner"
OUTER = "outer"
# The Surface field holding each boundary's number of marked points.
_PERIOD_FIELD = {INNER: "p", OUTER: "q"}


_set = object.__setattr__


def _compiled(fields: Tuple[str, ...]):
    """`__eq__` and `__hash__` over `fields`, in one `eval`.

    Equality is for values of one class; it tests the surface last, and by
    identity before equality, as surfaces are mostly shared.  The hash is
    that of the tuple of the fields in order.
    """
    tests = [f"self.{f} == other.{f}" for f in fields if f != "surface"]
    if "surface" in fields:
        tests.append("(self.surface is other.surface or self.surface == other.surface)")
    return eval(
        f"(lambda self, other: ({' and '.join(tests)})"
        " if other.__class__ is self.__class__ else NotImplemented,"
        f" lambda self: hash(({''.join(f'self.{f}, ' for f in fields)})))"
    )


class _Value:
    """An immutable value: its fields are the public names in `__slots__`.

    Two values are equal when they are of one class with equal fields, and
    a value hashes as the tuple of its fields; a field cannot be set or
    deleted once `__init__` has set it (with `_set`).  A slot whose name
    starts with "_" is a cache, not a field.  Each class gets `__eq__` and
    `__hash__` compiled from its fields when it is made (`_compiled`):
    values are compared and hashed on every hot path, and the plain
    attribute loads of a compiled method are two to three times as fast
    as reading the fields through an `attrgetter`.  A method written in
    the class body wins.  Classes built on hot paths write their own
    `__init__`; the others take their fields in order, by position or by
    name.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls._fields = tuple(
            name
            for klass in reversed(cls.__mro__)
            for name in vars(klass).get("__slots__", ())
            if not name.startswith("_")
        )
        if not fields:
            return
        if len(fields) == 1:
            get = attrgetter(*fields)
            cls._values = staticmethod(lambda value: (get(value),))
        else:
            cls._values = attrgetter(*fields)
        for name, method in zip(("__eq__", "__hash__"), _compiled(fields)):
            if name not in vars(cls):
                setattr(cls, name, method)

    def __init__(self, *values, **named) -> None:
        fields = self._fields
        if named:
            values += tuple(named.pop(f) for f in fields[len(values):] if f in named)
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        for name, value in zip(fields, values):
            _set(self, name, value)

    def __repr__(self) -> str:
        shown = zip(self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


@total_ordering
class Surface(_Value):
    """An annulus with p inner and q outer marked points (p, q >= 1).

    Surfaces order by (p, q); the hash is taken once, since every curve and
    group element hashes its surface.
    """

    __slots__ = ("p", "q", "_hash")
    p: int
    q: int

    def __init__(self, p: int, q: int) -> None:
        if p < 1 or q < 1:
            raise ValueError("surface weights must be positive")
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "_hash", hash((p, q)))

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.p, self.q) < (other.p, other.q)
        return NotImplemented

    @property
    def lcm(self) -> int:
        return self.p * self.q // math.gcd(self.p, self.q)

    @property
    def rank(self) -> int:
        """Rank of the Grothendieck group, p + q."""
        return self.p + self.q

    def period(self, boundary: str) -> int:
        """Marked points on a boundary: the index shift of one full turn."""
        return getattr(self, _PERIOD_FIELD[boundary])

    def __repr__(self) -> str:
        return f"Surface({self.p},{self.q})"


def _check_same_surface(*values) -> Surface:
    surface = values[0].surface
    for v in values[1:]:
        if v.surface is not surface and v.surface != surface:
            raise SurfaceMismatch(f"mixed surfaces: {v.surface} vs {surface}")
    return surface


# ---------------------------------------------------------------------------
# The grading group on two generators with p*x1 = q*x2 = c.
# ---------------------------------------------------------------------------


class LElt(_Value):
    """Group element in normal form l1*x1 + l2*x2 + l*c, 0 <= l1 < p, 0 <= l2 < q."""

    __slots__ = ("surface", "l1", "l2", "l")
    surface: Surface
    l1: int
    l2: int
    l: int

    def __init__(self, surface: Surface, l1: int, l2: int, l: int) -> None:
        if not (0 <= l1 < surface.p and 0 <= l2 < surface.q):
            raise ValueError("LElt not in normal form")
        _set(self, "surface", surface)
        _set(self, "l1", l1)
        _set(self, "l2", l2)
        _set(self, "l", l)

    def __add__(self, other: "LElt") -> "LElt":
        s = _check_same_surface(self, other)
        return normal_form(self.l1 + other.l1, self.l2 + other.l2, self.l + other.l, s)

    def __neg__(self) -> "LElt":
        return normal_form(-self.l1, -self.l2, -self.l, self.surface)

    def __sub__(self, other: "LElt") -> "LElt":
        return self + (-other)

    def __mul__(self, n: int) -> "LElt":
        return normal_form(n * self.l1, n * self.l2, n * self.l, self.surface)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"L({self.l1},{self.l2},{self.l})"


def normal_form(raw_x1: int, raw_x2: int, raw_c: int, s: Surface) -> LElt:
    """Reduce an arbitrary integer combination to the unique normal form."""
    k1, l1 = divmod(raw_x1, s.p)
    k2, l2 = divmod(raw_x2, s.q)
    return LElt(s, l1, l2, raw_c + k1 + k2)


def zero(s: Surface) -> LElt:
    return LElt(s, 0, 0, 0)


def canonical(s: Surface) -> LElt:
    """The canonical element c = p*x1 = q*x2."""
    return LElt(s, 0, 0, 1)


def dualizing(s: Surface) -> LElt:
    """The dualizing element -(x1 + x2); twisting by it is the AR translate."""
    return normal_form(-1, -1, 0, s)


def x1(s: Surface) -> LElt:
    return normal_form(1, 0, 0, s)


def x2(s: Surface) -> LElt:
    return normal_form(0, 1, 0, s)


def leq(x: LElt, y: LElt) -> bool:
    """Order by the positive cone spanned by the two generators."""
    _check_same_surface(x, y)
    return (y - x).l >= 0


def degree(x: LElt) -> int:
    """Degree homomorphism: x1 -> lcm/p, x2 -> lcm/q."""
    s = x.surface
    return x.l1 * (s.lcm // s.p) + x.l2 * (s.lcm // s.q) + x.l * s.lcm


def dim_S(x: LElt) -> int:
    """Dimension of the degree-x homogeneous component, max(l + 1, 0)."""
    return max(x.l + 1, 0)


# Raw coefficients of x as a*x1 + b*x2 (one representative; a is well defined
# mod p and b mod q, which is all the twist formulas need).
def _coeff_x1(x: LElt) -> int:
    return x.l1


def _coeff_x2(x: LElt) -> int:
    return x.l2 + x.l * x.surface.q


# ---------------------------------------------------------------------------
# Curves on the annulus: the endpoint model.
# ---------------------------------------------------------------------------


def _lift(cls, surface: Surface, x: int, y: int):
    """The lift (x, y) of a curve of class `cls`, not renormalised."""
    lift = object.__new__(cls)
    _set(lift, "surface", surface)
    _set(lift, cls._x, x)
    _set(lift, cls._y, y)
    return lift


def _field_property(expression: str, doc: str) -> property:
    # Compiled per class so that a read is a plain attribute load, as fast
    # as a hand-written property; getattr by field name is a third slower.
    return property(eval(f"lambda curve: {expression}"), doc=doc)


class _EndpointCurve(_Value):
    """The endpoint model, shared by every non-loop curve class.

    A subclass is a `_Value` whose `__slots__` are its fields (surface, x, y)
    and that names the (boundary, field) of its start and of its end as class
    keywords.  The canonical lift keeps x in [0, period); a peripheral curve,
    with both points on one boundary, needs y > x.
    """

    __slots__ = ()

    def __init_subclass__(
        cls, *, start: Tuple[str, str], end: Tuple[str, str], **kwargs
    ) -> None:
        super().__init_subclass__(**kwargs)
        x, y = [name for name in cls.__slots__ if name != "surface"]
        boundary = {field: b for b, field in (start, end)}
        cls._x, cls._y = x, y
        cls._indices = attrgetter(x, y)
        cls._x_period = attrgetter(_PERIOD_FIELD[boundary[x]])
        cls._y_period = attrgetter(_PERIOD_FIELD[boundary[y]])
        cls._x_step = 1 if boundary[x] == INNER else -1
        cls._y_step = 1 if boundary[y] == INNER else -1
        cls._start_is_x = start[1] == x
        cls._peripheral = start[0] == end[0]
        for role, (b, field) in (("start", start), ("end", end)):
            doc = f"The {role} point of this lift as (boundary, index)."
            setattr(cls, role, _field_property(f"({b!r}, curve.{field})", doc))
        if cls._peripheral:
            doc = "Marked points from start to end along the boundary."
            cls.span = _field_property(f"curve.{y} - curve.{x}", doc)

    def __init__(self, surface: Surface, x: int, y: int) -> None:
        if self._peripheral and y <= x:
            raise InvalidCurve("peripheral span must be positive")
        period = self._x_period(surface)
        k = x // period
        if k:
            x -= k * period
            y -= k * self._y_period(surface)
        _set(self, "surface", surface)
        _set(self, self._x, x)
        _set(self, self._y, y)

    def translated(self, k: int):
        """This lift moved k full turns along the cover, not renormalised."""
        s = self.surface
        x, y = self._indices(self)
        return _lift(type(self), s, x + k * self._x_period(s), y + k * self._y_period(s))

    def __reduce__(self):
        # Through `_lift`, since the constructor would renormalise a lift.
        return _lift, (type(self), self.surface, *self._indices(self))

    def twisted(self, u: int, v: int):
        """This curve under a line-bundle twist: inner indices move by u and
        outer ones by v; (u, v) = (p, q) is the deck translation."""
        x, y = self._indices(self)
        return type(self)(
            self.surface,
            x + (u if self._x_step > 0 else v),
            y + (u if self._y_step > 0 else v),
        )

    def aligned(self, role: str, index: int):
        """The lift whose start or end (`role`) index is `index`, when congruent.

        Otherwise the lift whose index is the largest one below `index`.
        """
        boundary, own = getattr(self, role)
        return self.translated((index - own) // self.surface.period(boundary))

    def _moved(self, start_steps: int, end_steps: int):
        dx, dy = (start_steps, end_steps) if self._start_is_x else (end_steps, start_steps)
        x, y = self._indices(self)
        return type(self)(self.surface, x + dx * self._x_step, y + dy * self._y_step)

    def se_shifted(self, k: int):
        """The simultaneous start/end move applied k times; k < 0 undoes it."""
        if not k:
            return self
        return self._moved(k, k)

    def is_arc(self) -> bool:
        return not self._peripheral or 2 <= self.span <= self._x_period(self.surface)

    def is_degenerate(self) -> bool:
        return self._peripheral and self.span == 1


class Bridging(_EndpointCurve, start=(OUTER, "j"), end=(INNER, "i")):
    """Positive bridging curve from outer point j/q up to inner point i/p."""

    __slots__ = ("surface", "i", "j")
    surface: Surface
    i: int
    j: int

    def key(self):
        return (0, self.i, self.j)

    def anchoring_shift(self) -> Tuple[int, int]:
        """(k, a): the se-shift by k takes this arc to B(0, a), -(p + q) < a <= 0.

        The se-shift by k takes the lift (i, j) to (i + k, j - k), keeping
        n = i + j; so k = m*p - i with m = ceil(n / (p + q)).
        """
        s, n = self.surface, self.i + self.j
        m = -(-n // (s.p + s.q))
        return m * s.p - self.i, n - m * (s.p + s.q)

    def __repr__(self) -> str:
        return f"B({self.i},{self.j})"


class InnerPeripheral(_EndpointCurve, start=(INNER, "a"), end=(INNER, "b")):
    """Curve along the inner boundary from a/p to b/p with a < b.

    Span 1 is a degenerate boundary segment (a value of the extended curve
    set, never an arc); spans up to p are embedded arcs, larger spans wrap
    around the annulus and self-intersect.
    """

    __slots__ = ("surface", "a", "b")
    surface: Surface
    a: int
    b: int

    def key(self):
        return (1, self.a, self.b)

    def __repr__(self) -> str:
        return f"IP({self.a},{self.b})"


class OuterPeripheral(_EndpointCurve, start=(OUTER, "a"), end=(OUTER, "b")):
    """Curve along the outer boundary from a/q to b/q with a < b."""

    __slots__ = ("surface", "a", "b")
    surface: Surface
    a: int
    b: int

    def key(self):
        return (2, self.a, self.b)

    def __repr__(self) -> str:
        return f"OP({self.a},{self.b})"


class Loop(_Value):
    """An n-fold loop around the annulus carrying an opaque parameter tag."""

    __slots__ = ("surface", "n", "param")
    surface: Surface
    n: int
    param: str

    def __init__(self, surface: Surface, n: int, param: str) -> None:
        if n < 1:
            raise InvalidCurve("loop power must be >= 1")
        super().__init__(surface, n, param)

    def is_arc(self) -> bool:
        return False

    def is_degenerate(self) -> bool:
        return False

    def key(self):
        return (3, self.n, self.param)

    def __repr__(self) -> str:
        return f"Loop({self.n},{self.param!r})"


Curve = Union[Bridging, InnerPeripheral, OuterPeripheral, Loop]
Peripheral = Union[InnerPeripheral, OuterPeripheral]


def is_arc(curve: Curve) -> bool:
    return curve.is_arc()


# ---------------------------------------------------------------------------
# Sheaf classes.
# ---------------------------------------------------------------------------


class LineBundle(_Value):
    __slots__ = ("surface", "x")
    surface: Surface
    x: LElt

    def __init__(self, surface: Surface, x: LElt) -> None:
        if x.surface is not surface and x.surface != surface:
            raise SurfaceMismatch("twist does not live on the bundle's surface")
        _set(self, "surface", surface)
        _set(self, "x", x)

    def key(self):
        return (0, self.x.l1, self.x.l2, self.x.l)

    def __repr__(self) -> str:
        return f"O({self.x.l1},{self.x.l2},{self.x.l})"


class TorsionInf(_Value):
    """Length-j torsion class in the rank-p tube, top index i mod p."""

    __slots__ = ("surface", "i", "j")
    surface: Surface
    i: int
    j: int

    def __init__(self, surface: Surface, i: int, j: int) -> None:
        if j < 1:
            raise ValueError("torsion length must be >= 1")
        _set(self, "surface", surface)
        _set(self, "i", i % surface.p)
        _set(self, "j", j)

    def key(self):
        return (1, self.i, self.j)

    def __repr__(self) -> str:
        return f"Tinf({self.i},{self.j})"


class TorsionZero(_Value):
    """Length-j torsion class in the rank-q tube, top index i mod q."""

    __slots__ = ("surface", "i", "j")
    surface: Surface
    i: int
    j: int

    def __init__(self, surface: Surface, i: int, j: int) -> None:
        if j < 1:
            raise ValueError("torsion length must be >= 1")
        _set(self, "surface", surface)
        _set(self, "i", i % surface.q)
        _set(self, "j", j)

    def key(self):
        return (2, self.i, self.j)

    def __repr__(self) -> str:
        return f"Tzero({self.i},{self.j})"


class TorsionOrdinary(_Value):
    """Length-n torsion at an ordinary point; the parameter is an opaque tag."""

    __slots__ = ("surface", "param", "n")
    surface: Surface
    param: str
    n: int

    def __init__(self, surface: Surface, param: str, n: int) -> None:
        if n < 1:
            raise ValueError("torsion length must be >= 1")
        super().__init__(surface, param, n)

    def key(self):
        return (3, self.param, self.n)

    def __repr__(self) -> str:
        return f"Tord({self.param!r},{self.n})"


class Zero(_Value):
    """The zero sheaf; appears only as the image of degenerate segments."""

    __slots__ = ("surface",)
    surface: Surface

    def key(self):
        return (4,)

    def __repr__(self) -> str:
        return "0"


SheafClass = Union[LineBundle, TorsionInf, TorsionZero, TorsionOrdinary, Zero]


def line_bundle(s: Surface, x: LElt = None) -> LineBundle:
    return LineBundle(s, zero(s) if x is None else x)


def structure_sheaf(s: Surface) -> LineBundle:
    return LineBundle(s, zero(s))


# ---------------------------------------------------------------------------
# The dictionary between curves and sheaf classes.
# ---------------------------------------------------------------------------


def phi(curve: Curve) -> SheafClass:
    """Image of a non-degenerate curve class under the arc dictionary."""
    s = curve.surface
    if isinstance(curve, Bridging):
        return LineBundle(s, normal_form(curve.i, -curve.j, 0, s))
    if isinstance(curve, InnerPeripheral):
        if curve.is_degenerate():
            raise OutOfScope("degenerate segment has no sheaf image; use phi_ext")
        return TorsionInf(s, curve.b, curve.span - 1)
    if isinstance(curve, OuterPeripheral):
        if curve.is_degenerate():
            raise OutOfScope("degenerate segment has no sheaf image; use phi_ext")
        return TorsionZero(s, -curve.a, curve.span - 1)
    if isinstance(curve, Loop):
        return TorsionOrdinary(s, curve.param, curve.n)
    raise TypeError(f"not a curve: {curve!r}")


def phi_ext(curve: Curve) -> SheafClass:
    """Extension of :func:`phi` sending degenerate segments to the zero class."""
    if curve.is_degenerate():
        return Zero(curve.surface)
    return phi(curve)


# The one home of the sheaf-to-curve formula: each sheaf type of the
# exceptional part -> its curve's lift, as (curve class, x, y).
_LIFTS = {
    LineBundle: lambda X: (Bridging, X.x.l1, -(X.x.l2 + X.x.l * X.surface.q)),
    TorsionInf: lambda X: (InnerPeripheral, X.i - X.j - 1, X.i),
    TorsionZero: lambda X: (OuterPeripheral, -X.i, -X.i + X.j + 1),
}


def phi_inv(sheaf: SheafClass) -> Curve:
    """Canonical curve representative of an indecomposable class."""
    rule = _LIFTS.get(type(sheaf))
    if rule is None:  # a subclass of a key, or a class with no lift
        rule = next((r for kind, r in _LIFTS.items() if isinstance(sheaf, kind)), None)
        if rule is None:
            if isinstance(sheaf, TorsionOrdinary):
                return Loop(sheaf.surface, sheaf.n, sheaf.param)
            if isinstance(sheaf, Zero):
                raise OutOfScope("the zero class has no canonical curve")
            raise TypeError(f"not a sheaf class: {sheaf!r}")
    cls, x, y = rule(sheaf)
    return cls(sheaf.surface, x, y)


# ---------------------------------------------------------------------------
# Elementary moves.
# ---------------------------------------------------------------------------

# Each move token: (steps of the start point, steps of the end point).
_MOVES = {MOVE_S: (1, 0), MOVE_E: (0, 1), MOVE_S_INV: (-1, 0), MOVE_E_INV: (0, -1)}


def move(curve: Curve, ops: Iterable[str]) -> Curve:
    """Apply elementary start/end moves, left to right.

    "s" steps the start point and "e" the end point to the next marked
    point of its boundary, +1 on the inner boundary and -1 on the outer
    one, whatever the curve class; the "-" forms step back.  Each move
    builds its curve, so one that would collapse a peripheral curve raises
    InvalidCurve at once.  The result may be a degenerate segment or a
    non-embedded curve.
    """
    if isinstance(curve, Loop):
        raise OutOfScope("loops admit no elementary moves")
    for op in ops:
        if op not in _MOVES:
            raise ValueError(f"unknown move {op!r}")
        curve = curve._moved(*_MOVES[op])
    return curve


def connector(surface: Surface, p1, p2) -> Curve:
    """The curve of the extended set joining two lift points (boundary, index).

    Two points on one boundary give the peripheral curve from the lower
    index to the higher; an inner and an outer point give the bridging curve.
    """
    (b1, i1), (b2, i2) = p1, p2
    if b1 != b2:
        return Bridging(surface, i1, i2) if b1 == INNER else Bridging(surface, i2, i1)
    if i1 == i2:
        raise InternalInvariantViolation("connector endpoints coincide")
    cls = InnerPeripheral if b1 == INNER else OuterPeripheral
    return cls(surface, min(i1, i2), max(i1, i2))


# ---------------------------------------------------------------------------
# Twists, the AR translate, and AR sequences.
# ---------------------------------------------------------------------------


def twist(sheaf: SheafClass, x: LElt) -> SheafClass:
    """Twist by a group element; ordinary torsion is fixed."""
    if isinstance(sheaf, Zero):
        raise OutOfScope("cannot twist the zero class")
    _check_same_surface(sheaf, x)
    s = sheaf.surface
    if isinstance(sheaf, LineBundle):
        return LineBundle(s, sheaf.x + x)
    if isinstance(sheaf, TorsionInf):
        return TorsionInf(s, sheaf.i + _coeff_x1(x), sheaf.j)
    if isinstance(sheaf, TorsionZero):
        return TorsionZero(s, sheaf.i + _coeff_x2(x), sheaf.j)
    return sheaf


def tau(sheaf: SheafClass) -> SheafClass:
    """AR translate: twist by the dualizing element."""
    return twist(sheaf, dualizing(sheaf.surface))


def tau_inv(sheaf: SheafClass) -> SheafClass:
    """Inverse AR translate: twist by the negated dualizing element."""
    return twist(sheaf, -dualizing(sheaf.surface))


def ar_sequence(sheaf: SheafClass):
    """AR sequence starting at a line bundle or exceptional-tube torsion class.

    Returns (X, middle, end) where middle lists the nonzero summands of the
    middle term and end is the inverse translate of X.
    """
    if isinstance(sheaf, (TorsionOrdinary, Zero)):
        raise OutOfScope("AR sequences are computed only in the exceptional part")
    gamma = phi_inv(sheaf)
    middle = []
    for ops in ([MOVE_S], [MOVE_E]):
        summand = phi_ext(move(gamma, ops))
        if not isinstance(summand, Zero):
            middle.append(summand)
    return sheaf, middle, tau_inv(sheaf)

