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
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Sequence, Tuple, Union

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


@dataclass(frozen=True, order=True)
class Surface:
    """An annulus with p inner and q outer marked points (p, q >= 1)."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise ValueError("surface weights must be positive")

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
        if v.surface != surface:
            raise SurfaceMismatch(f"mixed surfaces: {v.surface} vs {surface}")
    return surface


# ---------------------------------------------------------------------------
# The grading group on two generators with p*x1 = q*x2 = c.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LElt:
    """Group element in normal form l1*x1 + l2*x2 + l*c, 0 <= l1 < p, 0 <= l2 < q."""

    surface: Surface
    l1: int
    l2: int
    l: int

    def __post_init__(self) -> None:
        if not (0 <= self.l1 < self.surface.p and 0 <= self.l2 < self.surface.q):
            raise ValueError("LElt not in normal form")

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

_set = object.__setattr__


def _field_property(expression: str, doc: str) -> property:
    # Compiled per class so that a read is a plain attribute load, as fast
    # as a hand-written property; getattr by field name is a third slower.
    return property(eval(f"lambda curve: {expression}"), doc=doc)


class _EndpointCurve:
    """The endpoint model, shared by every non-loop curve class.

    A subclass is a frozen dataclass with fields (surface, x, y) that names
    the (boundary, field) of its start and of its end as class keywords.
    The canonical lift keeps x in [0, period); a peripheral curve, with both
    points on one boundary, needs y > x.
    """

    def __init_subclass__(
        cls, *, start: Tuple[str, str], end: Tuple[str, str], **kwargs
    ) -> None:
        super().__init_subclass__(**kwargs)
        x, y = [name for name in cls.__annotations__ if name != "surface"]
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
        lift = object.__new__(type(self))
        _set(lift, "surface", s)
        _set(lift, self._x, x + k * self._x_period(s))
        _set(lift, self._y, y + k * self._y_period(s))
        return lift

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
        return self._moved(k, k)

    def is_arc(self) -> bool:
        return not self._peripheral or 2 <= self.span <= self._x_period(self.surface)

    def is_degenerate(self) -> bool:
        return self._peripheral and self.span == 1


@dataclass(frozen=True, init=False)
class Bridging(_EndpointCurve, start=(OUTER, "j"), end=(INNER, "i")):
    """Positive bridging curve from outer point j/q up to inner point i/p."""

    surface: Surface
    i: int
    j: int

    def key(self):
        return (0, self.i, self.j)

    def __repr__(self) -> str:
        return f"B({self.i},{self.j})"


@dataclass(frozen=True, init=False)
class InnerPeripheral(_EndpointCurve, start=(INNER, "a"), end=(INNER, "b")):
    """Curve along the inner boundary from a/p to b/p with a < b.

    Span 1 is a degenerate boundary segment (a value of the extended curve
    set, never an arc); spans up to p are embedded arcs, larger spans wrap
    around the annulus and self-intersect.
    """

    surface: Surface
    a: int
    b: int

    def key(self):
        return (1, self.a, self.b)

    def __repr__(self) -> str:
        return f"IP({self.a},{self.b})"


@dataclass(frozen=True, init=False)
class OuterPeripheral(_EndpointCurve, start=(OUTER, "a"), end=(OUTER, "b")):
    """Curve along the outer boundary from a/q to b/q with a < b."""

    surface: Surface
    a: int
    b: int

    def key(self):
        return (2, self.a, self.b)

    def __repr__(self) -> str:
        return f"OP({self.a},{self.b})"


@dataclass(frozen=True)
class Loop:
    """An n-fold loop around the annulus carrying an opaque parameter tag."""

    surface: Surface
    n: int
    param: str

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidCurve("loop power must be >= 1")

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


@dataclass(frozen=True)
class LineBundle:
    surface: Surface
    x: LElt

    def __post_init__(self) -> None:
        if self.x.surface != self.surface:
            raise SurfaceMismatch("twist does not live on the bundle's surface")

    def key(self):
        return (0, self.x.l1, self.x.l2, self.x.l)

    def __repr__(self) -> str:
        return f"O({self.x.l1},{self.x.l2},{self.x.l})"


@dataclass(frozen=True)
class TorsionInf:
    """Length-j torsion class in the rank-p tube, top index i mod p."""

    surface: Surface
    i: int
    j: int

    def __post_init__(self) -> None:
        if self.j < 1:
            raise ValueError("torsion length must be >= 1")
        object.__setattr__(self, "i", self.i % self.surface.p)

    def key(self):
        return (1, self.i, self.j)

    def __repr__(self) -> str:
        return f"Tinf({self.i},{self.j})"


@dataclass(frozen=True)
class TorsionZero:
    """Length-j torsion class in the rank-q tube, top index i mod q."""

    surface: Surface
    i: int
    j: int

    def __post_init__(self) -> None:
        if self.j < 1:
            raise ValueError("torsion length must be >= 1")
        object.__setattr__(self, "i", self.i % self.surface.q)

    def key(self):
        return (2, self.i, self.j)

    def __repr__(self) -> str:
        return f"Tzero({self.i},{self.j})"


@dataclass(frozen=True)
class TorsionOrdinary:
    """Length-n torsion at an ordinary point; the parameter is an opaque tag."""

    surface: Surface
    param: str
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("torsion length must be >= 1")

    def key(self):
        return (3, self.param, self.n)

    def __repr__(self) -> str:
        return f"Tord({self.param!r},{self.n})"


@dataclass(frozen=True)
class Zero:
    """The zero sheaf; appears only as the image of degenerate segments."""

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


def phi_inv(sheaf: SheafClass) -> Curve:
    """Canonical curve representative of an indecomposable class."""
    s = sheaf.surface
    if isinstance(sheaf, LineBundle):
        x = sheaf.x
        return Bridging(s, x.l1, -(x.l2 + x.l * s.q))
    if isinstance(sheaf, TorsionInf):
        return InnerPeripheral(s, sheaf.i - sheaf.j - 1, sheaf.i)
    if isinstance(sheaf, TorsionZero):
        return OuterPeripheral(s, -sheaf.i, -sheaf.i + sheaf.j + 1)
    if isinstance(sheaf, TorsionOrdinary):
        return Loop(s, sheaf.n, sheaf.param)
    if isinstance(sheaf, Zero):
        raise OutOfScope("the zero class has no canonical curve")
    raise TypeError(f"not a sheaf class: {sheaf!r}")


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


def move_all(curves: Iterable[Curve], ops: Sequence[str]) -> tuple:
    """Apply the same move sequence to every member."""
    return tuple(move(c, ops) for c in curves)


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


def tau(sheaf: SheafClass, direction: str = "forward") -> SheafClass:
    """AR translate: twist by the dualizing element ('forward') or undo it."""
    if direction not in ("forward", "inverse"):
        raise ValueError("direction must be 'forward' or 'inverse'")
    w = dualizing(sheaf.surface)
    return twist(sheaf, w if direction == "forward" else -w)


def tau_inv(sheaf: SheafClass) -> SheafClass:
    return tau(sheaf, "inverse")


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


def sheaf_class_vector(sheaf: SheafClass):
    """(rank, determinant) class used for exactness bookkeeping."""
    s = sheaf.surface
    if isinstance(sheaf, LineBundle):
        return (1, sheaf.x)
    if isinstance(sheaf, TorsionInf):
        return (0, sheaf.j * x1(s))
    if isinstance(sheaf, TorsionZero):
        return (0, sheaf.j * x2(s))
    if isinstance(sheaf, Zero):
        return (0, zero(s))
    raise OutOfScope("ordinary torsion carries no exceptional class vector")
