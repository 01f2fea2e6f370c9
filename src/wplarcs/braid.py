"""Arc mutations, the braid action on ordered collections, and normalization.

Left/right mutation of an exceptional pair of arcs is computed by the case
split: identity for orthogonal pairs, the double-bridging rule for pairs
sharing both endpoints, a boundary-connector move for pairs sharing one
endpoint, and crossing smoothing for exceptional intersections.  Results
are tabled up to twist and read from lifts, as in `exceptional`; a table
miss decides its case and builds its result on the lifts (kind, x, y),
with the lift helpers of `core` (`_ends`, `_join`, `_twisted`).

The braid action keeps ordered exceptional collections exceptional, so
`apply_braid` checks its input once and applies the letters unchecked to
lifts (kind, x, y); the tests check every letter near a fan.

`normalize_to_theta` sends a maximal ordered collection back to the
canonical fan by one bidirectional search over single letters on folded
collections of ids of lifts, with shared tables bounded by (p, q); it reads
the exact full-twist power off the two folds it joins, whatever the shift.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    Bridging,
    Curve,
    Surface,
    _anchoring_shift,
    _curve,
    _ends,
    _join,
    _set,
    _twisted,
    _Value,
)
from .errors import (
    IndexOutOfRange,
    InternalInvariantViolation,
    InvalidArguments,
    NotApplicable,
    NotExceptional,
    SearchExhausted,
)
from .exceptional import OrderedCollection, _lifts, _ordered, _verdicts
from .intersect import _COUNT_RULES, _OFFSET_RULES

LEFT = "left"
RIGHT = "right"


class BraidWord(_Value):
    """Word in the braid group on `strands` strands.

    Letters are (index, sign) with 1 <= index <= strands - 1; application to
    a collection is right to left (function composition order).
    """

    __slots__ = ("strands", "letters")
    strands: int
    letters: Tuple[Tuple[int, int], ...]

    def __init__(self, strands: int, letters: Tuple[Tuple[int, int], ...]) -> None:
        _set(self, "strands", strands)
        _set(self, "letters", letters)
        self.__post_init__()

    def __post_init__(self) -> None:
        for idx, sign in dict.fromkeys(self.letters):
            if not 1 <= idx <= self.strands - 1:
                raise IndexOutOfRange(f"letter {idx} outside 1..{self.strands - 1}")
            if sign not in (1, -1):
                raise InvalidArguments("letter sign must be +1 or -1")

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise InvalidArguments("cannot compose words on different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(
            self.strands, tuple((i, -s) for i, s in reversed(self.letters))
        )

    def __len__(self) -> int:
        return len(self.letters)


def word(strands: int, *letters: int) -> BraidWord:
    """Build a word from signed integers, e.g. word(4, 3, -1) = s3 * s1^-1."""
    return BraidWord(strands, tuple((abs(l), 1 if l > 0 else -1) for l in letters))


# ---------------------------------------------------------------------------
# Pair mutation.
# ---------------------------------------------------------------------------


# Mutations tabled up to twist, read from lifts: (anchored pair key, side) ->
# the result's lift twisted back to the anchor; bounded as `_PAIR_CACHE` is.
_MUTATE_CACHE: Dict[tuple, tuple] = {}


def mutate_pair(alpha: Curve, beta: Curve, side: str) -> Curve:
    """Left mutation of beta at alpha, or right mutation of alpha at beta."""
    if side not in (LEFT, RIGHT):
        raise InvalidArguments("side must be 'left' or 'right'")
    lifts = _lifts((alpha, beta))
    if lifts is None:
        raise NotExceptional(f"({alpha!r}, {beta!r}) is not an exceptional pair")
    pair = _apply_letter(lifts, 1, 1 if side == LEFT else -1, alpha.surface)
    return _curve(pair[0] if side == LEFT else pair[1], alpha.surface)


def _mutate_pair(a: tuple, b: tuple, side: str, s: Surface) -> tuple:
    """The lift of the left mutation of b at a, or of the right mutation of
    a at b, for the arcs with lifts (a, b)."""
    if not _verdicts(a, b, s)[0]:
        raise NotExceptional(f"({_curve(a, s)!r}, {_curve(b, s)!r}) is not an exceptional pair")
    (ka, xa, ya), (kb, xb, yb) = a, b
    if _COUNT_RULES[ka, kb](xa, ya, xb, yb, s.p, s.q):
        # Smooth the exceptional crossing: of the two crosswise joins of a and
        # of b turned by its one offset, one is an arc, one flat (span 1).
        kmin, kmax, _ = _OFFSET_RULES[ka, kb](xa, ya, xb, yb, s.p, s.q)
        if kmin != kmax:
            raise InternalInvariantViolation("an exceptional crossing has one offset")
        (start_a, end_a), (start_b, end_b) = _ends(a, s, 0), _ends(b, s, kmin)
        g3, g4 = _join(start_a, end_b), _join(start_b, end_a)
        flat3, flat4 = [g[0] != 0 and g[2] - g[1] == 1 for g in (g3, g4)]
        if flat3 == flat4:
            raise InternalInvariantViolation("smoothing must leave exactly one arc")
        return _twisted(g4 if flat3 else g3, 0, 0, s)

    ends_a, ends_b = _ends(a, s, 0), _ends(b, s, 0)
    shared = [
        pa[0] == pb[0] and (pa[1] - pb[1]) % s.period(pa[0]) == 0
        for pa, pb in zip(ends_a, ends_b)
    ]
    if all(shared):
        # Both endpoints shared: the two-dimensional Hom case.
        if not (ka == kb == 0 and xb == xa and yb == ya - s.q):
            raise InternalInvariantViolation("unexpected doubly-shared pair")
        # B(i, j + q) on the left, B(i + 2p, j) = B(i, j - 2q) on the right.
        return (0, xa, ya + s.q) if side == LEFT else (0, xa, ya - 2 * s.q)

    if any(shared):
        # Turn b to meet a at the shared point, join the free endpoints and widen
        # the join by one index: past its end (role 1) or before its start (role 0).
        role = shared.index(True)
        (boundary, ia), ib = ends_a[role], ends_b[role][1]
        turned = _ends(b, s, (ia - ib) // s.period(boundary))
        (b0, i0), (b1, i1) = _ends(_join(ends_a[1 - role], turned[1 - role]), s, 0)
        return _twisted(_join((b0, i0 + role - 1), (b1, i1 + role)), 0, 0, s)

    # Orthogonal: mutation fixes the arcs.
    return b if side == LEFT else a


# ---------------------------------------------------------------------------
# The braid action.
# ---------------------------------------------------------------------------


def _anchor(a: tuple, b: tuple, s: Surface) -> Tuple[tuple, int, int]:
    """(key, u, v): the key under which `exceptional._verdicts` tables the
    lifts (a, b), and the twist (u, v) taking the anchored pair it encodes
    to (a, b).  The anchor is the pair's first bridging arc, moved to
    B(0, 0); with none, each peripheral start moves to 0, a's first."""
    (ka, xa, ya), (kb, xb, yb) = a, b
    if not ka:
        return (s.p, s.q, 0, 0, 0, *_twisted(b, -xa, -ya, s)), xa, ya
    if not kb:
        return (s.p, s.q, *_twisted(a, -xb, -yb, s), 0, 0, 0), xb, yb
    u, v = (xa, xb if kb == 2 else 0) if ka == 1 else (xb if kb == 1 else 0, xa)
    return (s.p, s.q, ka, 0, ya - xa, *_twisted(b, -u, -v, s)), u, v


def _apply_letter(arcs: tuple, idx: int, sign: int, s: Surface) -> tuple:
    """One letter on a tuple of lifts: (a, b) becomes (L_a b, a) or (b, R_b a).
    The mutation is read from the table up to twist; `_mutate_pair` runs,
    and a pair that is not exceptional raises, only on a table miss."""
    i = idx - 1
    a, b = arcs[i], arcs[i + 1]
    side = LEFT if sign > 0 else RIGHT
    key, u, v = _anchor(a, b, s)
    hit = _MUTATE_CACHE.get((key, side))
    if hit is None:
        c = _mutate_pair(a, b, side, s)
        _MUTATE_CACHE[key, side] = _twisted(c, -u, -v, s)
    else:
        c = _twisted(hit, u, v, s)
    return arcs[:i] + ((c, a) if sign > 0 else (b, c)) + arcs[i + 2 :]


def apply_braid(
    collection: Sequence[Curve], braid: BraidWord, validate: bool = True
) -> OrderedCollection:
    """Act on an ordered exceptional collection, rightmost letter first.

    The arcs are checked once, and with `validate` NotExceptional is raised
    if they are not an ordered exceptional collection; every letter maps
    such a collection to another one, so the letters act unchecked on lifts.
    """
    arcs = tuple(collection)
    if braid.strands != len(arcs):
        raise IndexOutOfRange(f"word on {braid.strands} strands versus {len(arcs)} arcs")
    s = arcs[0].surface if arcs else None
    lifts = _lifts(arcs)
    if lifts is None or validate and not _ordered(lifts, s):
        raise NotExceptional("input is not an ordered exceptional collection")
    for idx, sign in reversed(braid.letters):
        lifts = _apply_letter(lifts, idx, sign, s)
    return tuple([_curve(a, s) for a in lifts])


# ---------------------------------------------------------------------------
# Canonical fan collections.
# ---------------------------------------------------------------------------


def theta(s: Surface, x: int, y: int, k: int, l: int) -> OrderedCollection:
    """The fan collection: l bridging arcs at outer x, then k+1 at inner y+l."""
    canonical_max = k == s.q - 1 and l == s.p
    if not canonical_max:
        if not (1 <= k <= s.q and 1 <= l <= s.p and k + l < s.p + s.q):
            raise InvalidArguments("fan parameters out of range")
    arcs: List[Curve] = []
    for i in range(1, l + 1):
        arcs.append(Bridging(s, y + i - 1, x))
    for i in range(l + 1, k + l + 2):
        arcs.append(Bridging(s, y + l, x + k + l + 1 - i))
    return tuple(arcs)


def canonical_theta(s: Surface) -> OrderedCollection:
    return theta(s, 0, 0, s.q - 1, s.p)


def se_shift_collection(collection: Sequence[Curve], k: int) -> OrderedCollection:
    """Apply the simultaneous start/end shift k times to every member."""
    return tuple(arc.se_shifted(k) for arc in collection)


# ---------------------------------------------------------------------------
# Shift words.
# ---------------------------------------------------------------------------


def start_shift_word(s: Surface) -> BraidWord:
    """Word sending the canonical fan to its start-shifted translate."""
    p, q = s.p, s.q
    r = p + q
    letters: List[int] = []
    letters += [r - 1, r - 1]
    letters += list(range(r - 2, p, -1))
    letters += list(range(p, 1, -1))
    letters += [1, 1]
    letters += list(range(2, p + 1))
    return word(r, *letters)


def full_twist_word(s: Surface) -> BraidWord:
    """The full twist; acts on maximal collections as the inverse se-shift."""
    r = s.rank
    return word(r, *(list(range(1, r)) * r))


# Largest p + q `normalize_to_theta` admits.  Using up the default budget of
# 10**6 states takes 5.3 s and 480 MB at (10, 10), 5.6 s and 580 MB at (20, 20),
# (1, 39) and (39, 1) (2-CPU x86-64, CPython 3.11); a state holds r ids.
MAX_NORMALIZE_RANK = 40

# Longest word `normalize_to_theta` builds.  The full twist has r(r - 1)
# letters, so at (2, 3) this admits twist powers up to 5 * 10**4; each
# letter costs about 0.2 us to build and 5 bytes of JSON to print.
MAX_NORMALIZE_LETTERS = 1_000_000


# ---------------------------------------------------------------------------
# Normalization to the canonical fan.
# ---------------------------------------------------------------------------


def _fold(arcs: tuple, s: Surface) -> Tuple[int, tuple]:
    """(k, lifts se-shifted by k), k anchoring the last bridging arc.

    Every se-shift of a collection folds to the same tuple.  A maximal
    collection holds a bridging arc: an exceptional collection holds at most
    p - 1 inner and q - 1 outer peripheral arcs.  In searches from scrambled
    fans the last bridging arc needs a nonzero refold 4 to 12 times less
    often than the first.
    """
    for kind, x, y in reversed(arcs):
        if not kind:
            k = _anchoring_shift(x, y, s)[0]
            return k, tuple([_twisted(a, k, -k, s) for a in arcs]) if k else arcs
    raise InternalInvariantViolation("a maximal collection without bridging arcs")


class _Table(dict):
    """A dict that fills each missing entry with `fill(key)`."""

    def __init__(self, fill) -> None:
        self.fill = fill

    def __missing__(self, key):
        self[key] = value = self.fill(key)
        return value


def _new_id(arc: tuple) -> int:
    s, (kind, x, y) = arc
    _ARCS.append(arc)
    _FOLDS.append(None if kind else _anchoring_shift(x, y, s)[0])
    return len(_ARCS) - 1


def _step(key: Tuple[int, int, int]) -> Tuple[int, int]:
    s, a = _ARCS[key[0]]
    pair = _apply_letter((a, _ARCS[key[1]][1]), 1, key[2], s)
    return tuple([_IDS[s, c] for c in pair])


def _shift(key: Tuple[int, int]) -> int:
    s, lift = _ARCS[key[0]]
    return _IDS[s, _twisted(lift, key[1], -key[1], s)]


# Shared by every search, by id: arcs as (surface, lift) and their anchoring
# se-shifts, steps (a, b, sign) -> (a', b') and refolds (id, k) -> id.  A folded
# state's last bridging arc is B(0, a), -(p + q) < a <= 0, and its members pair with
# it, so by Lemma 1 of `complete_to_maximal` they lie in a window of F = p(p + 3q) + P
# arcs: B(i, j), 0 <= i < p, -(p + 2q) < j <= q, and the P = p(p - 1) + q(q - 1)
# peripheral ones.  A bridging arc is followed in an exceptional pair by pq bridging
# arcs, so at most 2(p(p + 3q)(pq + 2P) + P^2) steps each add at most one id, and a
# refold by k, a bridging id's shift, maps ids one-to-one into F.
_ARCS: List[Tuple[Surface, tuple]] = []
_FOLDS: List[Optional[int]] = []
_IDS = _Table(_new_id)
_STEPS = _Table(_step)
_SHIFTS = _Table(_shift)


def _bidirectional_search(
    start: tuple, goal: tuple, s: Surface, max_depth: int, budget: int
) -> Optional[Tuple[int, List[Tuple[int, int]]]]:
    """(m, letters): letters (right to left) carrying start to goal se-shifted by m.

    Both sides search folded collections of lifts on `s` (`_fold`), as ids,
    each state carrying the shift its folds applied; letters commute with
    the se-shift, so where the sides meet m is the difference of their
    shifts.  `budget` bounds the states of both sides together.
    """
    shift, start = _fold(start, s)
    goal_shift, goal = _fold(goal, s)
    if start == goal:
        return goal_shift - shift, []
    start, goal = tuple([_IDS[s, a] for a in start]), tuple([_IDS[s, a] for a in goal])
    # Entries: folded state -> (carried shift, letters so far, leftmost last).
    sides = ({start: (shift, [])}, {goal: (goal_shift, [])})
    # Only the last layer of a side has neighbours outside it.
    layers = [list(sides[0].items()), list(sides[1].items())]
    alphabet = [(idx, sign) for idx in range(1, len(start)) for sign in (1, -1)]
    folds, steps, shifts = _FOLDS, _STEPS, _SHIFTS
    for _ in range(max_depth):
        side = int(len(sides[0]) > len(sides[1]))  # 0 expands forward
        seen, other = sides[side], sides[1 - side]
        new: Dict[tuple, tuple] = {}
        for state, (carried, trail) in layers[side]:
            # Every state is a folded ordered exceptional collection, so every
            # letter applies.  Letters right of its last bridging arc mutate
            # peripheral arcs into peripheral arcs, and letters left of it
            # leave it in place: only the two letters at it can need a refold.
            last = max(i for i, a in enumerate(state) if folds[a] is not None)
            for letter in alphabet:
                i, sign = letter
                nxt = state[: i - 1] + steps[state[i - 1], state[i], sign] + state[i + 1 :]
                k = 0
                if last <= i <= last + 1:  # `_fold`, through the tables
                    k = next(folds[a] for a in reversed(nxt) if folds[a] is not None)
                    if k:
                        nxt = tuple([shifts[a, k] for a in nxt])
                if nxt in seen or nxt in new:
                    continue
                entry = (carried + k, trail + [letter])
                hit = other.get(nxt)
                if hit is not None:
                    (fwd_shift, fwd), (bwd_shift, bwd) = (hit, entry) if side else (entry, hit)
                    # Application order: the forward letters, then the
                    # backward ones undone back to front.
                    inv = [(i, -sg) for i, sg in bwd]
                    return bwd_shift - fwd_shift, inv + fwd[::-1]
                new[nxt] = entry
                if len(seen) + len(other) + len(new) > budget:
                    return None
        if not new:
            return None
        seen.update(new)
        layers[side] = list(new.items())
    return None


def normalize_to_theta(
    collection: Sequence[Curve], budget: int = 1_000_000
) -> BraidWord:
    """A braid word carrying a maximal ordered collection to the canonical fan.

    One search (`_bidirectional_search`), at most 4r letters deep and within
    `budget` states, finds letters w carrying the input to the fan
    se-shifted by an exact m; the answer is (full twist)^m * w.  Surfaces
    with p + q > MAX_NORMALIZE_RANK are refused before any work.
    """
    arcs = tuple(collection)
    if not arcs:
        raise NotApplicable(
            "normalization needs a maximal collection, got an empty one"
        )
    lifts = _lifts(arcs)
    s = arcs[0].surface
    r = s.rank
    if r > MAX_NORMALIZE_RANK:
        raise InvalidArguments(f"normalize is guarded to p + q <= {MAX_NORMALIZE_RANK}")
    if len(arcs) != r:
        raise NotApplicable(f"normalization needs a maximal collection of {r} arcs")
    if lifts is None or not _ordered(lifts, s):
        raise NotApplicable("input is not an ordered exceptional collection")

    found = _bidirectional_search(lifts, _lifts(canonical_theta(s)), s, 4 * r, budget)
    if found is None:
        raise SearchExhausted("no normalizing word found within the search budget")
    m, letters = found
    if r * (r - 1) * abs(m) + len(letters) > MAX_NORMALIZE_LETTERS:
        raise InvalidArguments(
            f"the normalizing word holds the full twist {m} times, "
            f"more than {MAX_NORMALIZE_LETTERS} letters"
        )
    # The full twist undoes one se-shift per application, its inverse adds one:
    # (full twist)^m, then the letters, checked once as one word.
    sign = 1 if m >= 0 else -1
    twist = tuple(zip(range(1, r)[::sign], [sign] * (r - 1)))
    return BraidWord(r, twist * (r * abs(m)) + tuple(letters))
