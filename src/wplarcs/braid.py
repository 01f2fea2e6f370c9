"""Arc mutations, the braid action on ordered collections, and normalization.

Left/right mutation of an exceptional pair of arcs is computed by the case
split: identity for orthogonal pairs, the double-bridging rule for pairs
sharing both endpoints, a boundary-connector move for pairs sharing one
endpoint, and crossing smoothing for exceptional intersections.

`normalize_to_theta` sends a maximal ordered collection back to the
canonical fan by a guided search: a shift estimate, explicit shift words
(the start-shift word and the full twist), and a bidirectional search over
single letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    Bridging,
    Curve,
    Surface,
    _check_same_surface,
    connector,
)
from .errors import (
    IndexOutOfRange,
    InternalInvariantViolation,
    InvalidArguments,
    NotApplicable,
    NotExceptional,
    SearchExhausted,
)
from .exceptional import (
    OrderedCollection,
    _arc_pair_ok,
    is_ordered_exceptional_collection,
)
from .intersect import (
    endpoint_relation,
    exceptional_intersection,
    positive_int,
)

LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True)
class BraidWord:
    """Word in the braid group on `strands` strands.

    Letters are (index, sign) with 1 <= index <= strands - 1; application to
    a collection is right to left (function composition order).
    """

    strands: int
    letters: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        for idx, sign in self.letters:
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


def _smooth_crossing(alpha: Curve, beta: Curve) -> Curve:
    witness = exceptional_intersection(alpha, beta)
    if witness is None:
        raise InternalInvariantViolation("crossing vanished during smoothing")
    beta_k = beta.translated(witness.offset)
    s = alpha.surface
    g3 = connector(s, alpha.start, beta_k.end)
    g4 = connector(s, beta_k.start, alpha.end)
    deg3 = g3.is_degenerate()
    deg4 = g4.is_degenerate()
    if deg3 == deg4:
        raise InternalInvariantViolation("smoothing must leave exactly one arc")
    return g4 if deg3 else g3


_MUTATE_CACHE: Dict[tuple, Curve] = {}


def mutate_pair(alpha: Curve, beta: Curve, side: str) -> Curve:
    """Left mutation of beta at alpha, or right mutation of alpha at beta."""
    if side not in (LEFT, RIGHT):
        raise InvalidArguments("side must be 'left' or 'right'")
    cache_key = (alpha.surface, alpha.key(), beta.key(), side)
    hit = _MUTATE_CACHE.get(cache_key)
    if hit is not None:
        return hit
    result = _mutate_pair(alpha, beta, side)
    _MUTATE_CACHE[cache_key] = result
    return result


def _mutate_pair(alpha: Curve, beta: Curve, side: str) -> Curve:
    s = _check_same_surface(alpha, beta)
    if not _arc_pair_ok(alpha, beta):
        raise NotExceptional(f"({alpha!r}, {beta!r}) is not an exceptional pair")

    if positive_int(alpha, beta) >= 1:
        return _smooth_crossing(alpha, beta)

    rel = endpoint_relation(alpha, beta)
    if rel.shared_start and rel.shared_end:
        # Both endpoints shared: the two-dimensional Hom case.
        if not (
            isinstance(alpha, Bridging)
            and isinstance(beta, Bridging)
            and beta.i == alpha.i
            and beta.j == alpha.j - s.q
        ):
            raise InternalInvariantViolation("unexpected doubly-shared pair")
        if side == LEFT:
            return Bridging(s, alpha.i, alpha.j + s.q)
        return Bridging(s, alpha.i + 2 * s.p, alpha.j)

    if rel.shared_start or rel.shared_end:
        # Join the free endpoints, then widen that connector by one index:
        # past its end when the ends are shared, before its start otherwise.
        role, free = ("start", "end") if rel.shared_start else ("end", "start")
        beta_aligned = beta.aligned(role, getattr(alpha, role)[1])
        delta = connector(s, getattr(alpha, free), getattr(beta_aligned, free))
        (b0, i0), (b1, i1) = delta.start, delta.end
        if role == "end":
            return connector(s, (b0, i0), (b1, i1 + 1))
        return connector(s, (b0, i0 - 1), (b1, i1))

    # Orthogonal: mutation fixes the arcs.
    return beta if side == LEFT else alpha


# ---------------------------------------------------------------------------
# The braid action.
# ---------------------------------------------------------------------------


def _apply_letter(arcs: tuple, idx: int, sign: int) -> tuple:
    i = idx - 1
    a, b = arcs[i], arcs[i + 1]
    if sign > 0:
        pair = (mutate_pair(a, b, LEFT), a)
    else:
        pair = (b, mutate_pair(a, b, RIGHT))
    return arcs[:i] + pair + arcs[i + 2 :]


def apply_braid(
    collection: Sequence[Curve], braid: BraidWord, validate: bool = True
) -> OrderedCollection:
    """Act on an ordered exceptional collection, rightmost letter first."""
    arcs = tuple(collection)
    if braid.strands != len(arcs):
        raise IndexOutOfRange(
            f"word on {braid.strands} strands versus {len(arcs)} arcs"
        )
    if validate and not is_ordered_exceptional_collection(arcs):
        raise NotExceptional("input is not an ordered exceptional collection")
    for idx, sign in reversed(braid.letters):
        arcs = _apply_letter(arcs, idx, sign)
        if validate and not is_ordered_exceptional_collection(arcs):
            raise InternalInvariantViolation(
                "braid action left the ordered exceptional collections"
            )
    return arcs


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


def _compose_power(w: BraidWord, n: int) -> BraidWord:
    if n < 0:
        w = w.inverse()
        n = -n
    out = BraidWord(w.strands, ())
    for _ in range(n):
        out = out * w
    return out


def end_shift_inverse_word(s: Surface) -> BraidWord:
    """Word undoing one end-shift: the full twist followed by a start shift."""
    return start_shift_word(s) * full_twist_word(s)


# ---------------------------------------------------------------------------
# Normalization to the canonical fan.
# ---------------------------------------------------------------------------


def _state_key(arcs: Sequence[Curve]) -> tuple:
    return tuple(a.key() for a in arcs)


def _neighbors(arcs: tuple):
    r = len(arcs)
    for idx in range(1, r):
        for sign in (1, -1):
            try:
                yield (idx, sign), _apply_letter(arcs, idx, sign)
            except (NotExceptional, InternalInvariantViolation):
                continue


def _bidirectional_search(
    start: tuple, goal: tuple, max_depth: int, budget: int
) -> Optional[List[Tuple[int, int]]]:
    """Letters (applied right to left) mapping `start` to `goal`."""
    if start == goal:
        return []
    # forward states: word acting on start so far (leftmost letter last).
    fwd: Dict[tuple, List] = {_state_key(start): (start, [])}
    bwd: Dict[tuple, List] = {_state_key(goal): (goal, [])}
    fdepth = bdepth = 0
    while fdepth + bdepth < max_depth:
        expand_fwd = len(fwd) <= len(bwd)
        frontier = fwd if expand_fwd else bwd
        other = bwd if expand_fwd else fwd
        new: Dict[tuple, List] = {}
        for state, trail in frontier.values():
            for letter, nxt in _neighbors(state):
                keyn = _state_key(nxt)
                if keyn in frontier or keyn in new:
                    continue
                new_trail = trail + [letter]
                hit = other.get(keyn)
                if hit is not None:
                    if expand_fwd:
                        fwd_trail, bwd_trail = new_trail, hit[1]
                    else:
                        fwd_trail, bwd_trail = hit[1], new_trail
                    # Application order: fwd_trail, then bwd_trail undone
                    # back to front.  Letter tuples read right to left.
                    inv = [(i, -sg) for i, sg in bwd_trail]
                    return inv + list(reversed(fwd_trail))
                new[keyn] = (nxt, new_trail)
                if len(fwd) + len(bwd) + len(new) > budget:
                    return None
        if not new:
            return None
        frontier.update(new)
        if expand_fwd:
            fdepth += 1
        else:
            bdepth += 1
    return None


def _mean_winding(arcs: Sequence[Curve], s: Surface):
    from fractions import Fraction

    vals = [
        Fraction(a.i, s.p) - Fraction(a.j, s.q)
        for a in arcs
        if isinstance(a, Bridging)
    ]
    if not vals:
        return Fraction(1, 2)
    return sum(vals) / len(vals)


def normalize_to_theta(
    collection: Sequence[Curve],
    max_depth: Optional[int] = None,
    budget: int = 1_000_000,
) -> BraidWord:
    """A braid word carrying a maximal ordered collection to the canonical fan.

    Strategy: estimate the global se-shift from mean windings, undo it with
    the explicit shift macros, and close the remaining gap by bidirectional
    search over single letters.
    """
    arcs = tuple(collection)
    s = _check_same_surface(*arcs)
    r = s.rank
    if max_depth is None:
        max_depth = 4 * r
    if len(arcs) != r:
        raise NotApplicable(f"normalization needs a maximal collection of {r} arcs")
    if not is_ordered_exceptional_collection(arcs):
        raise NotApplicable("input is not an ordered exceptional collection")

    goal = canonical_theta(s)
    from fractions import Fraction

    drift = _mean_winding(arcs, s) - Fraction(1, 2)
    unit = Fraction(1, s.p) + Fraction(1, s.q)
    base = int(round(drift / unit))
    twist_inv = full_twist_word(s)

    candidates = sorted(range(base - 4, base + 5), key=lambda m: (abs(m - base), m))
    for m in candidates:
        unshifted = se_shift_collection(arcs, -m)
        letters = _bidirectional_search(unshifted, goal, max_depth, budget)
        if letters is None:
            continue
        # apply_braid(arcs, w) = se_shift(goal, m); the full twist undoes one
        # se-shift per application, its inverse adds one.
        w = BraidWord(r, tuple(letters))
        fix = _compose_power(twist_inv, m)
        result = fix * w
        return result
    raise SearchExhausted("no normalizing word found within the search budget")
