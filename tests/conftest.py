import sys
from functools import wraps
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from wplarcs import braid, exceptional
from wplarcs.core import Bridging, InnerPeripheral, OuterPeripheral, Surface
from wplarcs.errors import InternalInvariantViolation


def window_arcs(s: Surface, turns: int = 2):
    """All arcs whose bridging windings / peripheral base points lie within
    the given number of turns around the annulus."""
    arcs = []
    for i in range(s.p):
        for j in range(-turns * s.q, turns * s.q + 1):
            arcs.append(Bridging(s, i, j))
    for a in range(s.p):
        for span in range(2, s.p + 1):
            arcs.append(InnerPeripheral(s, a, a + span))
    for a in range(s.q):
        for span in range(2, s.q + 1):
            arcs.append(OuterPeripheral(s, a, a + span))
    return arcs


def window_curves(s: Surface, turns: int = 2, max_span_turns: int = 2):
    """Arcs plus non-arc peripheral curves with spans up to a few turns."""
    curves = list(window_arcs(s, turns))
    for a in range(s.p):
        for span in range(s.p + 1, max_span_turns * s.p + 1):
            curves.append(InnerPeripheral(s, a, a + span))
    for a in range(s.q):
        for span in range(s.q + 1, max_span_turns * s.q + 1):
            curves.append(OuterPeripheral(s, a, a + span))
    return curves


def empty_braid_tables(monkeypatch):
    """Give `braid` empty mutation and search tables for the rest of a test."""
    monkeypatch.setattr(braid, "_MUTATE_CACHE", {})
    monkeypatch.setattr(braid, "_ARCS", [])
    monkeypatch.setattr(braid, "_FOLDS", [])
    for name in ("_IDS", "_STEPS", "_SHIFTS"):
        monkeypatch.setattr(braid, name, braid._Table(getattr(braid, name).fill))


SMALL_SURFACES = [Surface(1, 1), Surface(1, 2), Surface(2, 2), Surface(2, 3)]
ACCEPT_SURFACES = SMALL_SURFACES + [Surface(3, 3)]


def _rechecked(complete):
    """`complete_to_maximal` followed by the self-check it no longer runs:
    the completed set, ordered from scratch by `order_collection`, is an
    exceptional collection in the order returned, and that order passes
    every pair test (i < j), which no precedence digraph decides."""

    @wraps(complete)
    def checked(collection):
        ordered = complete(collection)
        again = exceptional.order_collection(
            exceptional.ArcCollection(collection.surface, frozenset(ordered))
        )
        if again is None or not exceptional.is_ordered_exceptional_collection(ordered):
            raise InternalInvariantViolation("completed set lost exceptionality")
        assert again == ordered, (again, ordered)
        return ordered

    return checked


# Installed before any test module binds the name, so every completion the
# tests make in this process, the CLI's included, is rechecked.
exceptional.complete_to_maximal = _rechecked(exceptional.complete_to_maximal)
