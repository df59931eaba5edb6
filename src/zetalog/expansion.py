"""Exact expansion of Lz(a,b) into zeta monomials.

Lz(a,b) with N = a+b expands over the partitions of N with parts >= 2:
each partition X contributes little_c(X, b) times the monomial mapping
every part n of multiplicity k to a factor zeta(n)^k.  Partitions with
more than min(a, b) parts drop out (their coefficient vanishes; the
filter just skips the work).  Even-argument factors reduce further to
rational multiples of powers of pi, giving combinations over odd-only
monomials.

Monomial text grammar: ``z<n>[^<k>]`` factors joined by ``*``, the unit
written ``1``.  Rendered terms are ordered by descending weight of the
odd part, then lexicographically by factors.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Union

from .coefficients import little_c
from .exact import Rational, as_rational, zeta_even_pi_coeff
from .partitions import PartitionElement, PartitionFilter, _ExactTuple, enumerate_partitions

__all__ = [
    "MonomialParseError",
    "ZetaMonomial",
    "UNIT_MONOMIAL",
    "ZetaCombination",
    "PiReducedCombination",
    "expand_lz",
    "reduce_even",
    "expand_weight",
]


class MonomialParseError(ValueError):
    """Raised when a monomial expression does not follow the grammar."""


_FACTOR_RE = re.compile(r"^z([0-9]+)(?:\^([0-9]+))?$")


def _exp_str(k: int) -> str:
    if k == 1:
        return ""
    return f"^{k}" if k < 10 else f"^{{{k}}}"


class ZetaMonomial(_ExactTuple, namedtuple("ZetaMonomial", "factors")):
    """Product of zeta factors, stored as (argument, exponent) ascending."""

    __slots__ = ()

    def __new__(cls, factors: tuple[tuple[int, int], ...]) -> "ZetaMonomial":
        prev = 1
        for n, k in factors:
            if n <= prev:
                raise ValueError(f"factor arguments must be ascending and >= 2: {factors}")
            if k < 1:
                raise ValueError(f"exponent must be >= 1 in factor ({n}, {k})")
            prev = n
        return tuple.__new__(cls, (factors,))

    @classmethod
    def from_partition(cls, x: PartitionElement) -> "ZetaMonomial":
        return cls(x.support)

    @classmethod
    def parse(cls, text: str) -> "ZetaMonomial":
        s = text.strip()
        if s == "1":
            return UNIT_MONOMIAL
        if not s:
            raise MonomialParseError("empty monomial expression")
        counts: dict[int, int] = {}
        for piece in s.split("*"):
            m = _FACTOR_RE.match(piece.strip())
            if not m:
                raise MonomialParseError(f"bad factor {piece.strip()!r}; expected z<n> or z<n>^<k>")
            n = int(m.group(1))
            k = int(m.group(2)) if m.group(2) else 1
            if n < 2:
                raise MonomialParseError(f"zeta argument must be >= 2, got z{n}")
            if k < 1:
                raise MonomialParseError(f"exponent must be >= 1, got {piece.strip()!r}")
            counts[n] = counts.get(n, 0) + k
        return cls(tuple(sorted(counts.items())))

    @property
    def weight(self) -> int:
        return sum(n * k for n, k in self.factors)

    @property
    def odd_weight(self) -> int:
        return sum(n * k for n, k in self.factors if n % 2)

    @property
    def is_unit(self) -> bool:
        return not self.factors

    @property
    def is_odd_only(self) -> bool:
        return all(n % 2 for n, _ in self.factors)

    def sort_key(self) -> tuple:
        return (-self.odd_weight, self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(f"z{n}" + (f"^{k}" if k > 1 else "") for n, k in self.factors)

    def latex(self) -> str:
        if not self.factors:
            return "1"
        return "".join(f"\\zeta({n})" + _exp_str(k) for n, k in self.factors)


UNIT_MONOMIAL = ZetaMonomial(())


# one entry per monomial: weight 40, the largest a pair is expanded at, has
# 6,153 partitions into parts >= 2, so every monomial of one weight folds once
# (table 40 --reduce misses 6,153 times; a survey folds only the all-even
# terms of its kernels' pairs: a strict 3..40 misses 1,596 times)
@lru_cache(maxsize=8192)
def _even_fold(mono: ZetaMonomial) -> tuple[ZetaMonomial, int, int]:
    """(odd part, p, q): mono is p/q * pi^(even weight) * odd part, p/q in
    lowest terms."""
    odd: list[tuple[int, int]] = []
    p = q = 1
    for n, k in mono.factors:
        if n % 2 == 0:
            r = zeta_even_pi_coeff(n // 2)
            p *= r.numerator**k
            q *= r.denominator**k
        else:
            odd.append((n, k))
    g = math.gcd(p, q)
    return ZetaMonomial(tuple(odd)), p // g, q // g


def _render(items: list[tuple[Fraction, int, Union[ZetaMonomial, str]]], latex: bool) -> str:
    """Signed sum of (coefficient, pi exponent, symbol) items, in the given order.

    A symbol is a zeta monomial or a literal such as ``Lz(3,2)``; the unit
    monomial stands for the constant 1.
    """
    if not items:
        return "0"
    chunks: list[str] = []
    for coeff, pi_exp, symbol in items:
        if isinstance(symbol, ZetaMonomial):
            if symbol.is_unit:
                symbol = ""
            else:
                symbol = symbol.latex() if latex else str(symbol)
        mag = abs(coeff)
        parts = []
        if mag != 1 or (pi_exp == 0 and not symbol):
            if mag.denominator == 1:
                parts.append(str(mag.numerator))
            elif latex:
                parts.append(f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}")
            else:
                parts.append(f"({mag})")
        if pi_exp:
            parts.append("\\pi" + _exp_str(pi_exp) if latex else f"pi^{pi_exp}")
        if symbol:
            parts.append(symbol)
        body = ("" if latex else "*").join(parts)
        if not chunks:
            chunks.append(("-" + body) if coeff < 0 else body)
        elif latex:
            chunks.append(("-" if coeff < 0 else "+") + body)
        else:
            chunks.append((" - " if coeff < 0 else " + ") + body)
    return "".join(chunks)


class _Combination:
    """Immutable weight-N map {monomial: rational coefficient}.

    A term of weight w carries pi^(N-w); the exponent follows from the
    weight alone and is never stored.  Zero coefficients are dropped.
    """

    __slots__ = ("weight", "_terms")

    def __init__(self, weight: int, terms: Mapping[ZetaMonomial, Rational]):
        cleaned = {m: q for m, c in terms.items() if (q := as_rational(c))}
        for mono in cleaned:
            self._check(weight, mono)
        self._set(weight, cleaned)

    def _set(self, weight: int, terms: dict[ZetaMonomial, Fraction]) -> None:
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "_terms", terms)

    @classmethod
    def _of(cls, weight: int, terms: dict[ZetaMonomial, Fraction]):
        # terms are valid for the weight and nonzero; the dict is taken over
        new = object.__new__(cls)
        new._set(weight, terms)
        return new

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def terms(self) -> dict[ZetaMonomial, Fraction]:
        return dict(self._terms)

    def coefficient(self, mono: ZetaMonomial) -> Fraction:
        return self._terms.get(mono, Fraction(0))

    def items(self) -> list[tuple[Fraction, int, ZetaMonomial]]:
        """(coefficient, pi exponent, monomial) per term, in canonical order."""
        ordered = sorted(self._terms.items(), key=lambda mc: mc[0].sort_key())
        return [(c, self.weight - m.weight, m) for m, c in ordered]

    def payload(self) -> list[dict]:
        """JSON terms; a reduced combination also gives each term's pi exponent."""
        reduced = isinstance(self, PiReducedCombination)
        return [
            {"mono": str(mono), "coeff": str(coeff), **({"pi": pi} if reduced else {})}
            for coeff, pi, mono in self.items()
        ]

    def scale(self, r: Rational):
        q = as_rational(r)
        return self._of(self.weight, {m: p for m, c in self._terms.items() if (p := c * q)})

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.weight != other.weight:
            raise ValueError("cannot add combinations of different weight")
        merged = dict(self._terms)
        for m, c in other._terms.items():
            merged[m] = merged.get(m, Fraction(0)) + c
        return self._of(self.weight, {m: c for m, c in merged.items() if c})

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.weight == other.weight and self._terms == other._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(weight={self.weight}, {self.text()!r})"

    def text(self) -> str:
        return _render(self.items(), latex=False)

    def latex(self) -> str:
        return _render(self.items(), latex=True)


class ZetaCombination(_Combination):
    """Homogeneous rational combination of weight-N zeta monomials."""

    __slots__ = ()

    @staticmethod
    def _check(weight: int, mono: ZetaMonomial) -> None:
        if mono.weight != weight:
            raise ValueError(f"monomial {mono} has weight {mono.weight}, expected {weight}")


# bench/run.py reads .coeff and .pi_exponent from sorted_terms(); both go
# once that reader moves to items()
_PiTerm = namedtuple("_PiTerm", "coeff pi_exponent")


class PiReducedCombination(_Combination):
    """Weight-N combination over odd-only monomials with rational coefficients.

    A term of weight w stands for coefficient * pi^(N-w) * monomial, so
    N - w must be even and nonnegative.
    """

    __slots__ = ()

    @staticmethod
    def _check(weight: int, mono: ZetaMonomial) -> None:
        if not mono.is_odd_only:
            raise ValueError(f"monomial {mono} has even-argument factors")
        if mono.weight > weight or (weight - mono.weight) % 2:
            raise ValueError(
                f"term {mono} needs pi^{weight - mono.weight} to reach weight {weight}; "
                "the pi exponent must be even and >= 0"
            )

    def sorted_terms(self) -> list[tuple[ZetaMonomial, _PiTerm]]:
        return [(m, _PiTerm(c, pi)) for c, pi, m in self.items()]


@lru_cache(maxsize=4)
def _partitions_min2(n: int) -> tuple[tuple[PartitionElement, int, ZetaMonomial], ...]:
    # one enumeration per weight, shared by every pair a+b = n, with each
    # partition's part count and monomial, so neither is rebuilt per pair
    return tuple(
        (x, x.norm, ZetaMonomial.from_partition(x))
        for x in enumerate_partitions(n, PartitionFilter(min_part=2))
    )


# no system column expands a pair: an optimistic survey expands none, and a
# strict one only the pairs (d - j, j), j <= d/2, of each even d it needs a
# kernel phi_d for, once each (171 for 3..40); express re-reads a pair
# through a certificate's remainder, its substitution check, its strict
# fallback and its recursion into member dependencies
@lru_cache(maxsize=64)
def expand_lz(a: int, b: int) -> ZetaCombination:
    """Exact weight-(a+b) expansion of Lz(a,b)."""
    if a < 1 or b < 1:
        raise ValueError(f"need a >= 1 and b >= 1, got ({a}, {b})")
    n = a + b
    bound = min(a, b)  # coefficients vanish once the part count exceeds this
    # C_b(X) > 0 for |X| <= min(a, b), so no term is zero
    terms = {mono: little_c(x, b) for x, parts, mono in _partitions_min2(n) if parts <= bound}
    return ZetaCombination._of(n, terms)


def reduce_even(c: ZetaCombination) -> PiReducedCombination:
    """Fold even-argument zeta factors into rational pi powers."""
    # integer (numerator, denominator) products per odd monomial, summed over
    # one common denominator; odd monomials keep first-appearance order
    groups: dict[ZetaMonomial, list[tuple[int, int]]] = {}
    for mono, q in c._terms.items():
        odd, p, r = _even_fold(mono)
        groups.setdefault(odd, []).append((q.numerator * p, q.denominator * r))
    merged: dict[ZetaMonomial, Fraction] = {}
    for odd, products in groups.items():
        den = math.lcm(*(d for _, d in products))
        num = sum(n * (den // d) for n, d in products)
        if num:
            merged[odd] = Fraction(num, den)
    return PiReducedCombination._of(c.weight, merged)


def expand_weight(N: int) -> dict[tuple[int, int], ZetaCombination]:
    """Expansions for every pair a+b=N with a >= b >= 1, from one enumeration."""
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    return {(N - b, b): expand_lz(N - b, b) for b in range(1, N // 2 + 1)}
