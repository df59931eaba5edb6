"""Combinatorial coefficients attached to a partition.

For a partition X of N with parts n (multiplicity k), the expansion
coefficient factors as c_b(X) = C_b(X) * Ct(X) where

    C_b(X)  = sum over compositions of b into one slot per part,
              each slot value in [1, n-1], of the product of binomials
              C(n, slot value);
    Ct(X)   = (-1)^(N + |X|) * prod over parts 1 / (k! * n^k),

|X| being the part count.  C_b(X) vanishes unless |X| <= b <= N - |X|
and is symmetric under b -> N - b.  Values are computed through a cached
per-partition profile: the product over parts of the polynomials
sum_{v=1}^{n-1} C(n,v) y^v, whose coefficient of y^b is C_b(X), so one
product serves every b.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .partitions import PartitionElement

__all__ = [
    "composition_profile",
    "big_c",
    "c_tilde",
    "little_c",
]


# 6,153 partitions of 40 into parts >= 2 make up the largest weight a
# survey reaches; the bound keeps one whole weight
@lru_cache(maxsize=8192)
def _profile_from_support(support: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    # profile[b] = C_b(X); product over parts of (sum_{v=1}^{n-1} C(n,v) y^v)^k
    prof = [1]
    for size, mult in support:
        row = [0] + [math.comb(size, v) for v in range(1, size)]
        for _ in range(mult):
            nxt = [0] * (len(prof) + len(row) - 1)
            for i, a in enumerate(prof):
                if a == 0:
                    continue
                for j, c in enumerate(row):
                    if c:
                        nxt[i + j] += a * c
            prof = nxt
    return tuple(prof)


def composition_profile(x: PartitionElement) -> tuple[int, ...]:
    """C_b(X) for every b at once, indexed by b."""
    return _profile_from_support(x.support)


def big_c(x: PartitionElement, b: int) -> int:
    prof = composition_profile(x)
    if 0 <= b < len(prof):
        return prof[b]
    return 0


def c_tilde(x: PartitionElement) -> Fraction:
    sign = -1 if (x.weight + x.norm) % 2 else 1
    denom = 1
    for size, mult in x.support:
        denom *= math.factorial(mult) * size**mult
    return Fraction(sign, denom)


def little_c(x: PartitionElement, b: int) -> Fraction:
    c = big_c(x, b)
    if c == 0:
        return Fraction(0)
    return c * c_tilde(x)
