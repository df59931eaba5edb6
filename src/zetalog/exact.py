"""Exact arithmetic core: Bernoulli numbers, even-zeta constants, dense
rational linear algebra, and the one codec for integer polynomials:
packed at y = 2^S (Kronecker substitution), read back in signed slots.

Scalars are ``fractions.Fraction`` (aliased ``Rational``): always in
lowest terms, positive denominator, canonical zero.  A matrix holds
integer rows over one denominator; rref, the one eliminator, returns its
primitive echelon rows.  solve_membership, the row-space test (lambda with
lambda . A == t for a target row t, or None), eliminates the augmented
transpose through rref too and builds Fractions only for its solution.
A fixed first-nonzero pivot order and zero free variables make results
reproducible.
"""

from __future__ import annotations

import math
import numbers
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


def as_rational(x: Rational | int | str) -> Fraction:
    """x as a Fraction, from a Fraction, an int or a "p/q" string.  A float
    is refused: its binary value is seldom the rational meant."""
    if isinstance(x, numbers.Real) and not isinstance(x, numbers.Rational):
        raise TypeError(f"exact rationals only, got {type(x).__name__} {x!r}")
    return Fraction(x)


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
    """Dense rational matrix held as integer rows over one positive
    denominator: entry (i, j) is numerators[i][j] / denominator.  Shape may
    be zero in either dimension; every row has cols entries.
    """

    __slots__ = ("numerators", "denominator", "rows", "cols")

    def __init__(self, numerators: Iterable[Iterable[int]], cols: int, denominator: int):
        rows = [list(row) for row in numerators]
        if denominator < 1:
            raise ValueError(f"matrix denominator must be positive, got {denominator}")
        if any(len(row) != cols for row in rows):
            raise ValueError(f"matrix rows must all have {cols} entries")
        self.numerators: list[list[int]] = rows
        self.denominator: int = denominator
        self.rows: int = len(rows)
        self.cols: int = cols


def slot_width(bound: int) -> int:
    """Bits per slot for coefficients of magnitude at most bound: its bit
    length and one sign bit."""
    return bound.bit_length() + 1


def pack(coeffs: Sequence[int], S: int) -> int:
    """The polynomial with these coefficients, lowest first, at y = 2^S."""
    packed = 0
    for a in reversed(coeffs):
        packed = (packed << S) + a
    return packed


def unpack(packed: int, S: int, count: int) -> list[int]:
    """The first count coefficients of a polynomial packed at y = 2^S, each
    read as its slot's residue in [-2^(S-1), 2^(S-1)): exact when S is the
    slot_width of a bound on their magnitudes.  Adding 2^(S-1) to each slot
    makes it nonnegative and below 2^S, so it reads unsigned and borrows
    nothing from the slot above.
    """
    mask = (1 << S) - 1
    half = 1 << S - 1
    packed += ((1 << S * count) - 1) // mask * half
    return [(packed >> S * j & mask) - half for j in range(count)]


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rref(matrix: RationalMatrix) -> tuple[list[list[int]], tuple[int, ...]]:
    """(rows, pivots): one primitive integer row per pivot column, and row r
    over its entry in column pivots[r] is row r of the reduced form.

    Pivot choice is the first row (in current order) with a nonzero entry
    in the leftmost unresolved column; no other row exchanges happen.
    Elimination is fraction-free: every row is kept as a primitive integer
    multiple of the row Gauss-Jordan would hold, and the rows past the
    pivots, all zero, are dropped.
    """
    work = [_primitive(row) for row in matrix.numerators]
    pivots: list[int] = []
    r = 0
    for c in range(matrix.cols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow = work[r]
        a = prow[c]
        for i in range(len(work)):
            f = work[i][c]
            if i != r and f != 0:
                g = math.gcd(a, f)
                ag, fg = a // g, f // g
                work[i] = _primitive([ag * x - fg * y for x, y in zip(work[i], prow)])
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], tuple(pivots)


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
    t = [as_rational(x) for x in target]
    # Augmented transpose, one row per original column scaled by its target's
    # denominator, over the unknowns mu_i = lambda_i / denominator
    aug = [[x.denominator * row[j] for row in system.numerators] + [x.numerator] for j, x in enumerate(t)]
    n_unknowns = system.rows
    reduced, pivots = rref(RationalMatrix(aug, n_unknowns + 1, 1))
    solution = [Fraction(0)] * n_unknowns
    for row, c in zip(reduced, pivots):
        if c >= n_unknowns:
            return None  # pivot in the augmented column: inconsistent
        # the row is zero in every other pivot column, so mu_c is its
        # right-hand side over its pivot once free variables are zero
        solution[c] = Fraction(row[n_unknowns] * system.denominator, row[c])
    return solution
