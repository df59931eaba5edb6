"""Exact arithmetic core: Bernoulli numbers, even-zeta constants, and
dense rational linear algebra.

Scalars are ``fractions.Fraction`` (aliased ``Rational``): always in
lowest terms, positive denominator, canonical zero.  A matrix holds
integer rows, each over one denominator, and is eliminated on those
integers; Fractions are built only for what is read.  The linear-algebra
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


class RationalMatrix:
    """Dense rational matrix held as integer rows, each over one positive
    denominator; shape may be zero in either dimension.

    Built from rows of Fractions or ints, or from integer rows with their
    denominators.  ``entries`` builds the Fractions on each read.
    """

    __slots__ = ("numerators", "denominators", "rows", "cols")

    def __init__(self, entries: Iterable[Iterable[Fraction]], cols: Optional[int] = None,
                 denominators: Optional[Iterable[int]] = None):
        rows = [list(row) for row in entries]
        if denominators is None:
            rows = [[Fraction(x) for x in row] for row in rows]
            denominators = [math.lcm(*(x.denominator for x in row)) for row in rows]
            rows = [[x.numerator * (d // x.denominator) for x in row] for row, d in zip(rows, denominators)]
        self.denominators: list[int] = list(denominators)
        if len(self.denominators) != len(rows) or min(self.denominators, default=1) < 1:
            raise ValueError("matrix needs one positive denominator per row")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("matrix rows must all have the same length")
        self.numerators: list[list[int]] = rows
        self.rows: int = len(rows)
        self.cols: int = len(rows[0]) if rows else (cols or 0)

    @property
    def entries(self) -> list[list[Fraction]]:
        return [[Fraction(x, d) for x in row] for row, d in zip(self.numerators, self.denominators)]

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


def _echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Row-echelon form of integer rows; returns (new rows, pivot column list).

    Pivot choice is the first row (in current order) with a nonzero entry
    in the leftmost unresolved column; no other row exchanges happen.
    Elimination is fraction-free: every row is kept as a primitive integer
    multiple of the row Gauss-Jordan would hold, so pivot row r divided by
    its entry in column pivots[r] is row r of the reduced row-echelon form,
    and the rows past the pivots are zero.
    """
    work = [_primitive(row) for row in rows]
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
    return work, pivots


def rref(matrix: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row-echelon form and the pivot columns."""
    work, pivots = _echelon(matrix.numerators)
    rows = [row if row[c] > 0 else [-x for x in row] for row, c in zip(work, pivots)]
    dens = [row[c] for row, c in zip(rows, pivots)]
    zeros = len(work) - len(pivots)
    rows += ([0] * matrix.cols for _ in range(zeros))
    return RationalMatrix(rows, matrix.cols, dens + [1] * zeros), tuple(pivots)


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
    # Augmented transpose, one row per original column scaled by its target's
    # denominator, over the unknowns mu_i = lambda_i / denominators[i]
    aug = [[x.denominator * row[j] for row in system.numerators] + [x.numerator] for j, x in enumerate(t)]
    reduced, pivots = _echelon(aug)
    n_unknowns = system.rows
    solution = [Fraction(0)] * n_unknowns
    for row, c in zip(reduced, pivots):
        if c >= n_unknowns:
            return None  # pivot in the augmented column: inconsistent
        # the row is zero in every other pivot column, so mu_c is its
        # right-hand side over its pivot once free variables are zero
        solution[c] = Fraction(row[n_unknowns] * system.denominators[c], row[c])
    return solution
