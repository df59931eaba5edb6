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
sum_{v=1}^{n-1} C(n,v) y^v = (1 + y)^n - 1 - y^n, whose coefficient of y^b
is C_b(X), so one product serves every b.  Each partition's profile, sign
and denominator form one cached integer record, read off the partition's
own factors by one big-int product, so a coefficient costs one Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact import slot_width, unpack
from .partitions import PartitionElement

__all__ = [
    "c_tilde",
    "little_c",
]


# Weight 40, the largest a pair is expanded at (table 40 --reduce, expand and
# verify at the weight cap), reads 6,153 records: its partitions into parts
# >= 2, which every pair (40 - b, b) re-reads.  8,192 keeps them whole:
# table 40 --reduce misses 6,153 times, once per record, one big-int product
# each (87 ms for all of them on a 2-core Xeon).  No system column reads a
# record, so a survey reads them only through its even kernels' pairs (none
# above weight 36): a strict 3..40 reads 9,884 records and misses as often,
# so none is rebuilt; an optimistic survey reads none
@lru_cache(maxsize=8192)
def _record(support: tuple[tuple[int, int], ...]) -> tuple[tuple[int, ...], int, int]:
    """(profile, sign, denominator) of the partition with this support:
    profile[b] = C_b(X) and Ct(X) = sign / denominator, read off the parts
    alone.  The profile is prod ((1 + y)^n - 1 - y^n)^k, one int product at
    y = 2^S read back by exact's codec with the bound C_X(1) = prod (2^n - 2)^k
    on each coefficient; the sign is -1 to the number of even parts, the
    parity of N + |X| = sum k * (n + 1).
    """
    S = slot_width(math.prod(((1 << n) - 2) ** k for n, k in support))
    packed = 1
    for n, k in support:
        packed *= (((1 << S) + 1) ** n - 1 - (1 << S * n)) ** k
    count = sum((n - 1) * k for n, k in support) + 1
    sign = (-1) ** sum(k for n, k in support if n % 2 == 0)
    denom = math.prod(math.factorial(k) * n**k for n, k in support)
    return tuple(unpack(packed, S, count)), sign, denom


def c_tilde(x: PartitionElement) -> Fraction:
    _, sign, denom = _record(x.support)
    return Fraction(sign, denom)


def little_c(x: PartitionElement, b: int) -> Fraction:
    prof, sign, denom = _record(x.support)
    if 0 <= b < len(prof):
        return Fraction(sign * prof[b], denom)
    return Fraction(0)
