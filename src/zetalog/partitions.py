"""Restricted integer partitions as sparse multisets.

A partition of N is stored by its support: (part size, multiplicity)
pairs with ascending sizes.  Both functions start from one list of the
part sizes a filter allows, largest first.  Enumeration recurses down
that list, larger sizes and then larger multiplicities first, so
elements come in decreasing lexicographic order of the descending part
lists, e.g. for N = 6 with min_part = 2: 6, 4+2, 3+3, 2+2+2.  Counting
fills a table over the same list from the bottom up, without
materializing elements; it shares nothing else with enumeration, so
each checks the other.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Optional

__all__ = [
    "PARITY_CHOICES",
    "PartitionFilter",
    "PartitionElement",
    "enumerate_partitions",
    "count_partitions",
]

PARITY_CHOICES = ("any", "odd", "even")


class _ExactTuple:
    """Value semantics for a validated named tuple.

    Equal only to an instance of the same class, so a plain tuple holding
    the same fields is not equal; hashed as the field tuple.  _make, and
    with it _replace, goes through the validating constructor.
    """

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not type(self) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class PartitionFilter(_ExactTuple, namedtuple("PartitionFilter", "min_part exact_parts parity")):
    """Constraints: minimum part size, exact part count, part parity."""

    __slots__ = ()

    def __new__(
        cls, min_part: int = 1, exact_parts: Optional[int] = None, parity: str = "any"
    ) -> "PartitionFilter":
        if min_part < 1:
            raise ValueError(f"min_part must be >= 1, got {min_part}")
        if exact_parts is not None and exact_parts < 1:
            raise ValueError(f"exact_parts must be >= 1, got {exact_parts}")
        if parity not in PARITY_CHOICES:
            raise ValueError(f"parity must be one of {PARITY_CHOICES}, got {parity!r}")
        return tuple.__new__(cls, (min_part, exact_parts, parity))

    def allows_size(self, n: int) -> bool:
        if n < self.min_part:
            return False
        if self.parity == "odd":
            return n % 2 == 1
        if self.parity == "even":
            return n % 2 == 0
        return True


class PartitionElement(_ExactTuple, namedtuple("PartitionElement", "weight support")):
    """A partition held as its support; hashable and immutable."""

    __slots__ = ()

    def __new__(cls, weight: int, support: tuple[tuple[int, int], ...]) -> "PartitionElement":
        total = 0
        prev = 0
        for size, mult in support:
            if size <= prev:
                raise ValueError(f"support sizes must be strictly ascending: {support}")
            if size < 1 or mult < 1:
                raise ValueError(f"invalid support entry ({size}, {mult})")
            prev = size
            total += size * mult
        if total != weight:
            raise ValueError(f"support sums to {total}, declared weight {weight}")
        return tuple.__new__(cls, (weight, support))

    @classmethod
    def from_parts(cls, parts: Iterable[int]) -> "PartitionElement":
        counts: dict[int, int] = {}
        for p in parts:
            counts[p] = counts.get(p, 0) + 1
        support = tuple(sorted(counts.items()))
        return cls(sum(n * k for n, k in support), support)

    @property
    def norm(self) -> int:
        """Total number of parts, counted with multiplicity."""
        return sum(k for _, k in self.support)

    def part_list(self) -> tuple[int, ...]:
        """The parts, largest first."""
        return tuple(n for n, k in reversed(self.support) for _ in range(k))

    def __str__(self) -> str:
        return "+".join(str(p) for p in self.part_list()) if self.support else "0"


def _sizes(n: int, flt: PartitionFilter) -> list[int]:
    """The part sizes up to n that flt allows, largest first."""
    return [size for size in range(n, flt.min_part - 1, -1) if flt.allows_size(size)]


def enumerate_partitions(
    n: int, flt: Optional[PartitionFilter] = None
) -> list[PartitionElement]:
    """All partitions of n satisfying flt, in canonical order."""
    if n < 0:
        raise ValueError(f"cannot partition a negative integer: {n}")
    flt = flt or PartitionFilter()
    out: list[PartitionElement] = []
    _fill(n, _sizes(n, flt), n, 0, flt.exact_parts, [], out)
    return out


def _fill(n, sizes, remaining, i, left, acc, out) -> None:
    # append to out each partition of n that extends acc, (size, multiplicity)
    # pairs with sizes descending, by filling remaining with sizes[i:], in
    # exactly left parts if counted.  A module function, not a closure over
    # itself, so the result is in no reference cycle once the caller drops it
    if remaining == 0:
        if not left:
            out.append(PartitionElement(n, tuple(reversed(acc))))
        return
    for j in range(i, len(sizes)):
        size = sizes[j]
        below = sizes[j + 1] if j + 1 < len(sizes) else 0  # largest size left for rest
        top = remaining // size if left is None else min(remaining // size, left)
        for mult in range(top, 0, -1):
            rest = remaining - size * mult
            if left is None:
                nxt = None
                if rest and not (below and rest >= sizes[-1]):
                    continue
            else:
                nxt = left - mult
                # rest must split into exactly nxt parts of sizes[j + 1:]
                if not nxt * sizes[-1] <= rest <= nxt * below:
                    continue
            acc.append((size, mult))
            _fill(n, sizes, rest, j + 1, nxt, acc, out)
            acc.pop()


def count_partitions(n: int, flt: Optional[PartitionFilter] = None) -> int:
    """Number of partitions of n satisfying flt, by a table over the part sizes."""
    if n < 0:
        raise ValueError(f"cannot partition a negative integer: {n}")
    flt = flt or PartitionFilter()
    k = flt.exact_parts
    if k and k * flt.min_part > n:
        return 0  # k parts sum to at least k * min_part; build no table for them
    # rows[j][m]: partitions of m into exactly j parts (any number of parts in
    # the one row when k is None) from the sizes taken so far.  The row read
    # from is updated first and m runs upward, so each size may repeat
    rows = [[1] + [0] * n] + [[0] * (n + 1) for _ in range(k or 0)]
    steps = list(zip(rows, rows[1:])) if k else [(rows[0], rows[0])]
    for size in _sizes(n, flt):
        for fewer, row in steps:
            for m in range(size, n + 1):
                row[m] += fewer[m - size]
    return rows[-1][n]
