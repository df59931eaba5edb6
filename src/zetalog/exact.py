"""Exact arithmetic core: Bernoulli numbers, even-zeta constants, and
dense rational linear algebra.

All scalars are ``fractions.Fraction`` (aliased ``Rational``): always in
lowest terms, positive denominator, canonical zero.  The linear-algebra
entry point is row-space membership: given a rational matrix A and a
target row t, find lambda with lambda . A == t or decide that none
exists.  Elimination uses a fixed first-nonzero pivot order and sets all
free variables to zero, so results are reproducible across runs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

__all__ = [
    "Rational",
    "RationalMatrix",
    "bernoulli_number",
    "zeta_even_pi_coeff",
    "rref",
    "solve_membership",
]

Rational = Fraction


def bernoulli_number(m: int) -> Fraction:
    """Bernoulli number B_m in the convention B_1 = -1/2.

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), from the tangent numbers
    T_1..T_k of the integer recurrence of Brent and Harvey (arXiv:1108.0286),
    computed afresh on each call.
    """
    if m < 0:
        raise ValueError(f"Bernoulli index must be nonnegative, got {m}")
    if m == 0:
        return Fraction(1)
    if m % 2:
        return Fraction(-1, 2) if m == 1 else Fraction(0)
    n = m // 2
    t = [0] + [math.factorial(k - 1) for k in range(1, n + 1)]  # swept into T_k
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return Fraction((-1) ** (n - 1) * 2 * n * t[n], 4**n * (4**n - 1))


# the one cache on the Bernoulli chain; weight N needs n <= N/2, so the
# survey cap of 40 uses 20 entries
@lru_cache(maxsize=128)
def zeta_even_pi_coeff(n: int) -> Fraction:
    """The rational q with zeta(2n) = q * pi^(2n), for n >= 1.

    q = (-1)^(n+1) * B_{2n} * 2^(2n-1) / (2n)!; q is positive for all n.
    """
    if n < 1:
        raise ValueError(f"even zeta argument index must be >= 1, got {n}")
    sign = 1 if n % 2 == 1 else -1
    q = sign * Fraction(2 ** (2 * n - 1), math.factorial(2 * n)) * bernoulli_number(2 * n)
    if q <= 0:
        raise AssertionError(f"zeta_even_pi_coeff({n}) computed nonpositive: {q}")
    return q


def _as_fraction_rows(entries: Iterable[Iterable[Fraction]]) -> list[list[Fraction]]:
    rows = [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in entries]
    if rows:
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("matrix rows must all have the same length")
    return rows


class RationalMatrix:
    """Dense matrix over Fraction; shape may be zero in either dimension."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries: Iterable[Iterable[Fraction]], cols: Optional[int] = None):
        data = _as_fraction_rows(entries)
        self.entries: list[list[Fraction]] = data
        self.rows: int = len(data)
        self.cols: int = len(data[0]) if data else (cols or 0)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row-echelon form of rows; returns (new rows, pivot column list).

    Pivot choice is the first row (in current order) with a nonzero entry
    in the leftmost unresolved column; no other row exchanges happen.
    Elimination is fraction-free: every row is kept as a primitive integer
    multiple of the row Gauss-Jordan would hold, and pivot rows are divided
    by their pivot only at the end, so the result is the same.
    """
    work: list[list[int]] = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        work.append(_primitive([x.numerator * (den // x.denominator) for x in row]))
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow = work[r]
        a = prow[c]
        for i in range(len(work)):
            f = work[i][c]
            if i != r and f != 0:
                work[i] = _primitive([a * x - f * y for x, y in zip(work[i], prow)])
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(work, pivots)]
    out.extend([Fraction(0)] * ncols for _ in work[len(pivots):])
    return out, pivots


def rref(matrix: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row-echelon form and the pivot columns."""
    reduced, pivots = _echelon(matrix.entries)
    return RationalMatrix(reduced, cols=matrix.cols), tuple(pivots)


def solve_membership(
    system: RationalMatrix, target: Sequence[Fraction]
) -> Optional[list[Fraction]]:
    """Coefficients lambda with lambda . system == target, else None.

    Solves the transposed system by exact elimination; free variables are
    set to zero, which together with the fixed pivot order makes the
    returned combination deterministic.
    """
    if len(target) != system.cols:
        raise ValueError(
            f"target length {len(target)} does not match column count {system.cols}"
        )
    t = [x if isinstance(x, Fraction) else Fraction(x) for x in target]
    # Augmented transpose: one row per original column, unknowns = lambda.
    aug = [[system.entries[i][j] for i in range(system.rows)] + [t[j]] for j in range(system.cols)]
    reduced, pivots = _echelon(aug)
    n_unknowns = system.rows
    solution = [Fraction(0)] * n_unknowns
    for r, c in enumerate(pivots):
        if c >= n_unknowns:
            return None  # pivot in the augmented column: inconsistent
        # fully reduced: row r is zero in every other pivot column, so
        # lambda_c is its right-hand side once free variables are zero
        solution[c] = reduced[r][n_unknowns]
    return solution
