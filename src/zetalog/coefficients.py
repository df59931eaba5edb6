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
product serves every b.  Each partition's profile, sign and denominator
form one cached integer record, built from the record of the partition
with one copy of its largest part removed by one big-int product, so a
coefficient costs one Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .partitions import PartitionElement

__all__ = [
    "composition_profile",
    "c_tilde",
    "little_c",
]


# Weight 40, the largest a pair is expanded at (table 40 --reduce, expand and
# verify at the weight cap), needs 12,306 records: its 6,153 partitions into
# parts >= 2, which every pair (40 - b, b) re-reads, and as many smaller ones
# they are built from, read once each.  8,192 keeps the first set whole while
# the second streams through: table 40 --reduce misses 12,306 times, once per
# record, one big-int product each (0.11 s for all 12,306 on a 2-core Xeon).
# No survey expands a pair above weight 36; a strict survey of 3..40 misses
# 12,825 times over all its weights
@lru_cache(maxsize=8192)
def _record(support: tuple[tuple[int, int], ...]) -> tuple[tuple[int, ...], int, int]:
    """(profile, sign, denominator) of the partition with this support:
    profile[b] = C_b(X) and Ct(X) = sign / denominator.

    Built from the record of X with one copy of its largest part s removed:
    the profile gains the factor sum_{v=1}^{s-1} C(s,v) y^v, N + |X| grows by
    s + 1, and the denominator gains the factor mult * s.  The product is one
    int product at y = 2^S (Kronecker substitution), read back S bits a slot:
    its coefficients are nonnegative and sum to sum(profile) * (2^s - 2),
    below 2^S for S = sum(profile).bit_length() + s, so no slot carries.
    """
    if not support:
        return (1,), 1, 1
    size, mult = support[-1]
    rest = support[:-1] + ((size, mult - 1),) if mult > 1 else support[:-1]
    prof, sign, denom = _record(rest)
    S = sum(prof).bit_length() + size
    packed = 0
    for a in reversed(prof):
        packed = (packed << S) | a
    packed *= (1 + (1 << S)) ** size - 1 - (1 << S * size)
    mask = (1 << S) - 1
    nxt = tuple((packed >> S * j) & mask for j in range(len(prof) + size - 1))
    return nxt, -sign if size % 2 == 0 else sign, denom * mult * size


def composition_profile(x: PartitionElement) -> tuple[int, ...]:
    """C_b(X) for every b at once, indexed by b."""
    return _record(x.support)[0]


def c_tilde(x: PartitionElement) -> Fraction:
    _, sign, denom = _record(x.support)
    return Fraction(sign, denom)


def little_c(x: PartitionElement, b: int) -> Fraction:
    prof, sign, denom = _record(x.support)
    if 0 <= b < len(prof):
        return Fraction(sign * prof[b], denom)
    return Fraction(0)
