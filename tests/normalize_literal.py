"""The normalising searches as they once were, kept as differential references.

`normalize_literal` estimates the global se-shift from the mean winding of
the bridging arcs, then tries the nine shifts nearest the estimate in turn,
each with a full bidirectional search on unfolded collections under the
whole budget.  That search expands every state of a side in each round.

`curve_keyed_search` is `braid._bidirectional_search` before it ran on arc
ids: the same folded search, with states of curves keyed by their `key()`
tuples and every letter applied to the whole collection.

Letters are applied through `anchor_literal.apply_letter`, which looks
`braid._apply_letter` up at each call, so a test that patches it counts
these searches' letters too.
"""

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from wplarcs.braid import (
    BraidWord,
    _check_same_surface,
    _fold,
    canonical_theta,
    full_twist_word,
    is_ordered_exceptional_collection,
    se_shift_collection,
)
from wplarcs.core import Bridging, Curve, Surface
from wplarcs.errors import NotApplicable, SearchExhausted

from anchor_literal import apply_letter


def _state_key(arcs: Sequence[Curve]) -> tuple:
    return tuple([a.key() for a in arcs])


def _compose_power(w: BraidWord, n: int) -> BraidWord:
    """w to the power n, built as the library once built its full-twist powers."""
    if n < 0:
        w = w.inverse()
    return BraidWord(w.strands, w.letters * abs(n))


def _neighbors(arcs: tuple):
    for idx in range(1, len(arcs)):
        for sign in (1, -1):
            yield (idx, sign), apply_letter(arcs, idx, sign)


def _bidirectional_search(
    start: tuple, goal: tuple, max_depth: int, budget: int
) -> Optional[List[Tuple[int, int]]]:
    """Letters (applied right to left) mapping `start` to `goal`."""
    if start == goal:
        return []
    fwd: Dict[tuple, tuple] = {_state_key(start): (start, [])}
    bwd: Dict[tuple, tuple] = {_state_key(goal): (goal, [])}
    fdepth = bdepth = 0
    while fdepth + bdepth < max_depth:
        expand_fwd = len(fwd) <= len(bwd)
        frontier = fwd if expand_fwd else bwd
        other = bwd if expand_fwd else fwd
        new: Dict[tuple, tuple] = {}
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


def _mean_winding(arcs: Sequence[Curve], s: Surface) -> Fraction:
    vals = [
        Fraction(a.i, s.p) - Fraction(a.j, s.q)
        for a in arcs
        if isinstance(a, Bridging)
    ]
    if not vals:
        return Fraction(1, 2)
    return sum(vals) / len(vals)


def normalize_literal(
    collection: Sequence[Curve], budget: int = 1_000_000
) -> BraidWord:
    """The estimate, the nine candidate shifts and a search at each."""
    arcs = tuple(collection)
    if not arcs:
        raise NotApplicable("normalization needs a maximal collection")
    s = _check_same_surface(*arcs)
    r = s.rank
    if len(arcs) != r or not is_ordered_exceptional_collection(arcs):
        raise NotApplicable("input is not a maximal ordered collection")

    goal = canonical_theta(s)
    drift = _mean_winding(arcs, s) - Fraction(1, 2)
    unit = Fraction(1, s.p) + Fraction(1, s.q)
    base = int(round(drift / unit))
    twist_inv = full_twist_word(s)

    candidates = sorted(range(base - 4, base + 5), key=lambda m: (abs(m - base), m))
    for m in candidates:
        unshifted = se_shift_collection(arcs, -m)
        letters = _bidirectional_search(unshifted, goal, 4 * r, budget)
        if letters is None:
            continue
        return _compose_power(twist_inv, m) * BraidWord(r, tuple(letters))
    raise SearchExhausted("no normalizing word found within the search budget")


def curve_keyed_search(
    start: tuple, goal: tuple, max_depth: int, budget: int
) -> Optional[Tuple[int, List[Tuple[int, int]]]]:
    """(m, letters) as `braid._bidirectional_search` returns them, on curves."""
    shift, start = _fold(start)
    goal_shift, goal = _fold(goal)
    if start == goal:
        return goal_shift - shift, []
    # Entries: folded state, carried shift, letters so far (leftmost last).
    sides = (
        {_state_key(start): (start, shift, [])},
        {_state_key(goal): (goal, goal_shift, [])},
    )
    layers = [list(sides[0].values()), list(sides[1].values())]
    alphabet = [(idx, sign) for idx in range(1, len(start)) for sign in (1, -1)]
    for _ in range(max_depth):
        side = int(len(sides[0]) > len(sides[1]))
        seen, other = sides[side], sides[1 - side]
        new: Dict[tuple, tuple] = {}
        for state, carried, trail in layers[side]:
            last = max(i for i, a in enumerate(state) if type(a) is Bridging)
            for letter in alphabet:
                nxt = apply_letter(state, *letter)
                k = 0
                if last <= letter[0] <= last + 1:
                    k, nxt = _fold(nxt)
                keyn = _state_key(nxt)
                if keyn in seen or keyn in new:
                    continue
                entry = (nxt, carried + k, trail + [letter])
                hit = other.get(keyn)
                if hit is not None:
                    (_, fwd_shift, fwd), (_, bwd_shift, bwd) = (
                        (hit, entry) if side else (entry, hit)
                    )
                    inv = [(i, -sg) for i, sg in bwd]
                    return bwd_shift - fwd_shift, inv + fwd[::-1]
                new[keyn] = entry
                if len(seen) + len(other) + len(new) > budget:
                    return None
        if not new:
            return None
        seen.update(new)
        layers[side] = list(new.values())
    return None
