"""The path-count formula with plain binomial atoms, which is wrong.

Kept in the tests to document that the gcd-indexed formula needs the atoms
binom(k+l, k)/(k+l): with plain binomials it overcounts, e.g. 8 instead of
2 at (2, 2).
"""

import math
from fractions import Fraction

from wplarcs.tilting import _partitions


def bizley_count_literal_binomial(p: int, q: int) -> int:
    """Same formula with plain binomial atoms; kept to document its failure."""
    d = math.gcd(p, q)
    total = Fraction(0)
    for a in _partitions(d):
        term = Fraction(1)
        for part, count in a.items():
            k, l = part * p // d, part * q // d
            term *= Fraction(math.comb(k + l, k)) ** count / math.factorial(count)
        total += term
    return int(total)
