"""The path-count formula as a sum over the partitions of gcd(p, q).

`bizley_count_literal` is the partition sum that `tilting.bizley_count` once
computed; the library now uses the exponential recurrence, and this sum is
kept as its differential reference.

`bizley_count_literal_binomial` documents that the formula needs the atoms
binom(k+l, k)/(k+l): with plain binomials it overcounts, e.g. 8 instead of
2 at (2, 2).
"""

import math
from fractions import Fraction


def partitions(n: int):
    """Multiplicity vectors a with sum i*a_i = n, as dicts part -> count."""

    def rec(remaining: int, max_part: int):
        if remaining == 0:
            yield {}
            return
        for part in range(min(remaining, max_part), 0, -1):
            for rest in rec(remaining - part, part):
                out = dict(rest)
                out[part] = out.get(part, 0) + 1
                yield out

    yield from rec(n, n)


def _partition_sum(p: int, q: int, atom) -> Fraction:
    d = math.gcd(p, q)
    total = Fraction(0)
    for a in partitions(d):
        term = Fraction(1)
        for part, count in a.items():
            k, l = part * p // d, part * q // d
            term *= atom(k, l) ** count / math.factorial(count)
        total += term
    return total


def bizley_count_literal(p: int, q: int) -> int:
    """Dyck paths of type (p, q) by the sum over the partitions of gcd(p, q)."""
    total = _partition_sum(p, q, lambda k, l: Fraction(math.comb(k + l, k), k + l))
    assert total.denominator == 1
    return int(total)


def bizley_count_literal_binomial(p: int, q: int) -> int:
    """Same formula with plain binomial atoms; kept to document its failure."""
    return int(_partition_sum(p, q, lambda k, l: Fraction(math.comb(k + l, k))))
