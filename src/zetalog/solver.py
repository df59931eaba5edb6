"""Expressibility of odd-zeta monomials through the Lz family.

At weight N the pairs (N-b, b), b = 1..floor(N/2), give one linear
equation each: the reduced expansion of Lz(N-b, b) over odd-only
monomials with pi-power coefficients.  A weight-w monomial always
carries the fixed factor pi^(N-w), so that factor is absorbed into the
column and the system lives over the rationals.  Unknown columns are
the full-weight odd monomials (partitions of N into odd parts >= 3);
in optimistic mode lower-weight odd monomials count as already settled
and land in the remainder, while strict mode keeps them as columns.

Every column m, of weight w, takes its coefficient in Lz(N-b, b) by one
rule: the y^b coefficient of Ct(X_m) * C_(X_m)(y) * phi_(N-w)(y), with
X_m the odd partition of m (Ct * C_j is the paper's c_j), phi_d[j] the
pi^d coefficient of the reduced Lz(d-j, j) for d > 0, and phi_0 = 1.
C_X and Ct come in closed form from the parts of X_m, so no column reads
a partition record, and the product is one int product at y = 2^S, read
back in signed slots by exact's codec.  So an optimistic system expands
no pair, while the kernel of each even d serves every weight and no row
reduces the expansion of its own pair.  A system is integer rows over one
denominator beside their pairs; a certificate's remainder is the sum of its
reduced pairs with the column terms dropped once, at the end.

A successful solve is packaged as a Certificate for the exact identity

    pi^(N - wt(target)) * target = sum lambda_i Lz(a_i, b_i) + remainder

and machine-verified by substituting the expansions back in before it
is returned.  The check reads the partition records through expand_lz;
the columns share with it only phi_d, that is the records of partitions
into parts >= 2 behind each kernel and the even fold, and the remainder
comes from the expansions the check reads.  A certificate's dependency is
settled by one set per weight: the members of that weight's optimistic row
space whose own certificates resolve in full.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .exact import RationalMatrix, pack, rref, slot_width, solve_membership, unpack
from .expansion import (
    UNIT_MONOMIAL,
    PiReducedCombination,
    ZetaCombination,
    ZetaMonomial,
    _render,
    expand_lz,
    reduce_even,
)
from .partitions import PartitionFilter, enumerate_partitions

__all__ = [
    "MODES",
    "LinearSystem",
    "Certificate",
    "CertificateCheckError",
    "ExpressOutcome",
    "SurveyRecord",
    "SurveyReport",
    "build_system",
    "verify_certificate",
    "express",
    "survey",
]

MODES = ("optimistic", "strict")

_ODD_FILTER = PartitionFilter(min_part=3, parity="odd")
_EVEN_FILTER = PartitionFilter(min_part=2, parity="even")


# one entry per weight: a strict survey of 3..40 makes 38 misses, 342 hits
@lru_cache(maxsize=64)
def _odd_columns(weight: int) -> tuple[ZetaMonomial, ...]:
    found = sorted(enumerate_partitions(weight, _ODD_FILTER), key=lambda x: x.support)
    return tuple(ZetaMonomial.from_partition(x) for x in found)


class LinearSystem(NamedTuple):
    """Row i, of the pair pairs[i], has rows[i][j] / denominator on columns[j]."""

    weight: int
    mode: str
    columns: tuple[ZetaMonomial, ...]
    pairs: tuple[tuple[int, int], ...]
    rows: tuple[tuple[int, ...], ...]
    denominator: int

    def matrix(self) -> RationalMatrix:
        return RationalMatrix(self.rows, len(self.columns), self.denominator)


def build_system(
    N: int, mode: str = "optimistic", ensure: tuple[ZetaMonomial, ...] = ()
) -> LinearSystem:
    """Weight-N system; ensure promotes given monomials into the columns."""
    if N < 3:
        raise ValueError(f"need N >= 3, got {N}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    columns = set(_odd_columns(N))
    if mode == "strict":
        for w in range(N - 2, 2, -2):
            columns.update(_odd_columns(w))
    for mono in ensure:
        if mono.is_unit or not mono.is_odd_only:
            raise ValueError(f"cannot carry {mono} as an unknown column")
        if mono.weight > N or (N - mono.weight) % 2:
            raise ValueError(f"{mono} cannot appear at weight {N}")
        columns.add(mono)
    cols = tuple(sorted(columns, key=ZetaMonomial.sort_key))
    by_column = [_column(m, N) for m in cols]
    den = math.lcm(*(d for _, d in by_column))
    scaled = [[x * (den // d) for x in col] for col, d in by_column]

    # a row that touches no unknown has nothing to solve with
    rows = {(N - b, b): nums for b, nums in enumerate(zip(*scaled), 1) if any(nums)}
    return LinearSystem(N, mode, cols, tuple(rows), tuple(rows.values()), den)


def _column(m: ZetaMonomial, N: int) -> tuple[list[int], int]:
    """(numerators, denominator) of the coefficients of the odd monomial m
    in the reduced Lz(N - b, b), b = 1..N/2, for wt(m) <= N: the y^b
    coefficients of Ct(x) * C_x(y) * phi_d(y), d = N - wt(m), with x the
    odd partition of m.

    No partition record is read: C_x(y) = prod ((1 + y)^n - 1 - y^n)^k over
    the factors zeta(n)^k of m, and Ct(x) = 1 / prod k! * n^k, positive as
    N + |x| = sum k * (n + 1) is even for odd parts.  C_x(y) * phi_d(y) is one
    int product at y = 2^S, read back by exact's codec with the bound
    C_x(1) * sum |phi_d[j]| on each coefficient's magnitude, where
    C_x(1) = prod (2^n - 2)^k.
    """
    phi, den = _even_kernel(N - m.weight)
    S = slot_width(math.prod((2**n - 2) ** k for n, k in m.factors) * sum(map(abs, phi)))
    packed = pack(phi, S)
    for n, k in m.factors:
        packed *= (((1 << S) + 1) ** n - 1 - (1 << S * n)) ** k
    ct_den = math.prod(math.factorial(k) * n**k for n, k in m.factors)
    return unpack(packed, S, N // 2 + 1)[1:], den * ct_den


# one entry per even d; a survey to weight 40 reads d = 0..36
@lru_cache(maxsize=32)
def _even_kernel(d: int) -> tuple[tuple[int, ...], int]:
    """(numerators, denominator) with phi_d[j] = numerators[j] / denominator,
    j = 0..d, where phi_d[j] is the pi^d coefficient of the reduced Lz(d-j, j)
    for d > 0, and phi_0 = 1.

    phi_d[0] = phi_d[d] = 0 for d > 0, and phi_d[j] = phi_d[d-j] since C_b
    is symmetric under b -> d - b, so only the pairs with j <= d/2 are reduced.
    Only the all-even terms of a pair fold to the unit monomial, so only
    they are looked up and reduced.
    """
    if d == 0:
        return (1,), 1
    evens = [ZetaMonomial.from_partition(x) for x in enumerate_partitions(d, _EVEN_FILTER)]
    half = []
    for j in range(1, d // 2 + 1):
        terms = expand_lz(d - j, j)._terms
        even = ZetaCombination._of(d, {m: terms[m] for m in evens if m in terms})
        half.append(reduce_even(even).coefficient(UNIT_MONOMIAL))
    den = math.lcm(*(q.denominator for q in half))
    nums = [q.numerator * (den // q.denominator) for q in half]
    return (0, *nums, *reversed(nums[: (d - 1) // 2]), 0), den


class CertificateCheckError(RuntimeError):
    """A certificate the solver built failed its own substitution check."""


class Certificate(NamedTuple):
    """Exact identity pi^(weight - wt(target)) * target = lz_terms + remainder.

    lz_terms maps (a, b) to the rational multiplier of Lz(a,b); every pair
    has a + b = weight, so no pi power rides on it.  The solver fills it in
    ascending b, the order the text and the payload list it in.
    """

    target: ZetaMonomial
    weight: int
    lz_terms: dict[tuple[int, int], Fraction]
    known_remainder: PiReducedCombination

    @property
    def target_pi_exponent(self) -> int:
        return self.weight - self.target.weight

    def dependencies(self) -> list[ZetaMonomial]:
        return [m for m in self.known_remainder.terms if not m.is_unit]

    def _line(self, latex: bool) -> str:
        lhs = _render([(Fraction(1), self.target_pi_exponent, self.target)], latex)
        items = [(c, 0, f"Lz({a},{b})") for (a, b), c in self.lz_terms.items()]
        items += self.known_remainder.items()
        rhs = _render(items, latex)
        return f"{lhs}={rhs}" if latex else f"{lhs} = {rhs}"

    def text(self) -> str:
        """The identity on one line, e.g. ``z3*z5 = Lz(6,2) + (1/7560)*pi^8``."""
        return self._line(latex=False)

    def latex(self) -> str:
        """The identity as LaTeX, e.g. ``\\zeta(3)\\zeta(5)=Lz(6,2)+\\frac{1}{7560}\\pi^8``."""
        return self._line(latex=True)

    def to_payload(self) -> dict:
        return {
            "target": str(self.target),
            "weight": self.weight,
            "lz": [
                {"a": a, "b": b, "coeff": str(c), "pi": 0}
                for (a, b), c in self.lz_terms.items()
            ],
            "known": self.known_remainder.payload(),
        }


def verify_certificate(cert: Certificate) -> bool:
    """Substitute the expansions back in; True iff the identity is exact.
    A pair or remainder off the certificate's weight makes it False."""
    try:
        lhs = PiReducedCombination(cert.weight, {cert.target: Fraction(1)})
        rhs = sum(
            (reduce_even(expand_lz(a, b)).scale(lam) for (a, b), lam in cert.lz_terms.items()),
            cert.known_remainder,
        )
    except ValueError:  # terms of two weights, or a target off the weight
        return False
    return lhs == rhs


class ExpressOutcome(NamedTuple):
    target: ZetaMonomial
    mode: str
    weight: int
    status: str  # "expressible" | "not_expressible" | "unresolved_dependency"
    certificate: Optional[Certificate]
    detail: str = ""


def _solve(target: ZetaMonomial, N: int, mode: str) -> Optional[Certificate]:
    system = build_system(N, mode, ensure=(target,))
    j = system.columns.index(target)
    unit = [Fraction(1) if i == j else Fraction(0) for i in range(len(system.columns))]
    lam = solve_membership(system.matrix(), unit)
    if lam is None:
        return None
    lz_terms = {pair: coeff for pair, coeff in zip(system.pairs, lam) if coeff != 0}
    # dropping the column terms is linear, so one sum drops them once
    total = sum(
        (reduce_even(expand_lz(*pair)).scale(-coeff) for pair, coeff in lz_terms.items()),
        PiReducedCombination(N, {}),
    )
    colset = set(system.columns)
    off = {m: c for m, c in total._terms.items() if m not in colset}
    cert = Certificate(target, N, lz_terms, PiReducedCombination._of(N, off))
    if not verify_certificate(cert):
        raise CertificateCheckError(f"certificate for {target} failed the substitution check")
    return cert


# one entry per weight, shared by every dependency of that weight.  Only
# optimistic answers are asked for: strict columns hold every odd monomial
# of weight = N (mod 2), so a strict certificate never leaves a lower-weight
# dependency.  Only members of the row space are solved for, and their own
# dependencies, all of lower weight, recurse
@lru_cache(maxsize=40)
def _expressible_members(N: int) -> frozenset[ZetaMonomial]:
    """The odd monomials of weight N that express resolves in full."""
    system = build_system(N)
    members = (system.columns[j] for j in _rowspace_members(system)[1])
    return frozenset(m for m in members if express(m).status == "expressible")


def express(
    target: ZetaMonomial, mode: str = "optimistic", weight: Optional[int] = None
) -> ExpressOutcome:
    """Try to express the target; weight > wt(target) adds a pi factor."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if target.is_unit or not target.is_odd_only:
        raise ValueError(f"target must be a product of odd zetas >= 3, got {target}")
    N = target.weight if weight is None else weight
    if N < target.weight or (N - target.weight) % 2:
        raise ValueError(
            f"weight {N} cannot carry {target}: the pi exponent must be even and >= 0"
        )

    cert = _solve(target, N, mode)
    used_mode = mode
    if cert is None and mode == "strict":
        # see whether the strict obstruction is only a lower-weight dependency
        cert = _solve(target, N, "optimistic")
        used_mode = "optimistic"
    if cert is None:
        return ExpressOutcome(target, mode, N, "not_expressible", None)

    missing = [m for m in cert.dependencies() if m not in _expressible_members(m.weight)]
    if missing:
        names = ", ".join(str(m) for m in sorted(missing, key=lambda m: m.factors))
        return ExpressOutcome(
            target,
            mode,
            N,
            "unresolved_dependency",
            cert,
            detail=f"remainder depends on {names}, not itself expressible",
        )
    detail = ""
    if used_mode != mode:
        deps = ", ".join(str(m) for m in cert.dependencies())
        detail = f"strict solve needed lower-weight certificates for {deps}"
    return ExpressOutcome(target, mode, N, "expressible", cert, detail=detail)


class SurveyRecord(NamedTuple):
    weight: int
    equations: int
    unknowns: int
    rank: int
    expressible: tuple[ZetaMonomial, ...]
    inexpressible: tuple[ZetaMonomial, ...]
    counting_equations: int
    counting_unknowns: int
    counting_deficient: bool
    rank_deficient: bool


class SurveyReport(NamedTuple):
    mode: str
    records: tuple[SurveyRecord, ...]


def _rowspace_members(system: LinearSystem) -> tuple[int, set[int]]:
    """Exact rank and the set of column indices whose unit vector is reachable,
    read off the rows with each nonzero column divided by its gcd: scaling a
    column by a nonzero factor changes neither, and the integers shrink."""
    gcds = [math.gcd(*col) or 1 for col in zip(*system.rows)]
    prim = [[x // g for x, g in zip(row, gcds)] for row in system.rows]
    rows, pivots = rref(RationalMatrix(prim, len(system.columns), 1))
    members = {c for row, c in zip(rows, pivots) if row.count(0) == len(row) - 1}
    return len(pivots), members


def survey(n_min: int, n_max: int, mode: str = "optimistic") -> SurveyReport:
    """Per-weight equation/unknown/rank bookkeeping over a weight range."""
    if not 3 <= n_min <= n_max:
        raise ValueError(f"need 3 <= n_min <= n_max, got [{n_min}, {n_max}]")
    records = []
    for N in range(n_min, n_max + 1):
        system = build_system(N, mode)
        rank, members = _rowspace_members(system)
        good = tuple(m for j, m in enumerate(system.columns) if j in members)
        bad = tuple(m for j, m in enumerate(system.columns) if j not in members)
        # the weight-N unknowns are the odd partitions of N into parts >= 3
        po3 = sum(m.weight == N for m in system.columns)
        if N % 2:
            m_half = (N - 1) // 2
            counting_eq, counting_unk = m_half - 2, po3 - 1
        else:
            m_half = N // 2
            counting_eq, counting_unk = m_half - 1, po3
        records.append(
            SurveyRecord(
                weight=N,
                equations=len(system.rows),
                unknowns=len(system.columns),
                rank=rank,
                expressible=good,
                inexpressible=bad,
                counting_equations=counting_eq,
                counting_unknowns=counting_unk,
                counting_deficient=counting_eq < counting_unk,
                rank_deficient=rank < len(system.columns),
            )
        )
    return SurveyReport(mode, tuple(records))
