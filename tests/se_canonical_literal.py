"""The anchoring search by scanning every shift in a window, as it once was.

Kept in the tests as a differential reference for `tilting.se_canonical`,
which computes the few candidate shifts from the arcs.  This scan builds
and tests the shifted triangulation for every k in [-bound, bound], and the
window does not grow with the shift of its input: it returns the anchored
representative only when that lies within `bound` shifts, and raises
otherwise.
"""

from wplarcs.core import Bridging, InnerPeripheral, OuterPeripheral
from wplarcs.errors import InternalInvariantViolation
from wplarcs.tilting import Triangulation, se_shift


def anchor_class_literal(t: Triangulation):
    """Anchor pattern of the canonical family containing t, if any."""
    s = t.surface
    arcs = t.arcs
    if Bridging(s, 0, 0) in arcs:
        if Bridging(s, 0, 1) in arcs:
            return ("plain", 0, 1)
        if Bridging(s, 1, 0) in arcs:
            return ("primed", 0, 1)
    # Plain family: two bridging arcs into inner 0 plus the outer cap.
    for a in range(0, -s.q, -1):
        if Bridging(s, 0, a) not in arcs:
            continue
        for b in range(1, a + s.q + 1):
            if (a, b) == (0, 1):
                continue
            if Bridging(s, 0, b) in arcs and OuterPeripheral(s, a, b) in arcs:
                return ("plain", a, b)
    # Primed family: shared outer start plus the inner cap.
    for a in range(0, -s.p, -1):
        if Bridging(s, 0, a) not in arcs:
            continue
        for b in range(max(2, 1 - a), s.p + 1):
            if Bridging(s, b, a) in arcs and InnerPeripheral(s, 0, b) in arcs:
                return ("primed", a, b)
    return None


def scan_bound(t: Triangulation) -> int:
    """Half-width of the scanned window: winding spread plus p + q."""
    js = [a.j for a in t.arcs if isinstance(a, Bridging)]
    spread = (max(js) - min(js)) // t.surface.q + 1 if js else 0
    return spread + t.surface.p + t.surface.q


def se_canonical_literal(t: Triangulation) -> Triangulation:
    """The first shift in [-bound, bound] that lies in an anchored family."""
    bound = scan_bound(t)
    for k in range(-bound, bound + 1):
        cand = se_shift(t, k)
        if anchor_class_literal(cand) is not None:
            return cand
    raise InternalInvariantViolation("no anchored representative within bound")
