"""The weight swap sigma: X(p, q) -> X(q, p), on lifts.

sigma(k, x, y) = (k', -y, -x), where k' swaps kinds 1 and 2 and fixes 0,
normalised on the surface with the weights swapped.  It reverses the
direction of the strip, so inner points become outer ones and the start
of a curve its end.  Every pair verdict and every mutation, on the same
side, commutes with it; its checks share none of the boundary conventions
of the curve references.
"""

from wplarcs.core import Surface, _curve, _twisted

_KIND = (0, 2, 1)


def swapped(s: Surface) -> Surface:
    return Surface(s.q, s.p)


def sigma(lift: tuple, s: Surface) -> tuple:
    """The canonical lift on `swapped(s)` of the image of `lift` on `s`."""
    kind, x, y = lift
    return _twisted((_KIND[kind], -y, -x), 0, 0, swapped(s))


def sigma_curves(arcs, s: Surface) -> tuple:
    """The images of the curves `arcs` on `s`, as curves on `swapped(s)`."""
    t = swapped(s)
    return tuple([_curve(sigma(a.key(), s), t) for a in arcs])
