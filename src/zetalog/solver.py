"""Expressibility of odd-zeta monomials through the Lz family.

At weight N the pairs (N-b, b), b = 1..floor(N/2), give one linear
equation each: the reduced expansion of Lz(N-b, b) over odd-only
monomials with pi-power coefficients.  A weight-w monomial always
carries the fixed factor pi^(N-w), so that factor is absorbed into the
column and the system lives over the rationals.  Unknown columns are
the full-weight odd monomials (partitions of N into odd parts >= 3);
in optimistic mode lower-weight odd monomials count as already settled
and land in the known part, while strict mode keeps them as columns.

Every column m, of weight w, takes its coefficient in Lz(N-b, b) by one
rule: the y^b coefficient of Ct(X_m) * C_(X_m)(y) * phi_(N-w)(y), with
X_m the odd partition of m (Ct * C_j is the paper's c_j), phi_d[j] the
pi^d coefficient of the reduced Lz(d-j, j) for d > 0, and phi_0 = 1.  So
a full-weight column reads c_b(X_m) itself and an optimistic system
expands no pair, while the kernel of each even d serves every weight and
no row reduces the expansion of its own pair.  A row's known part is
that reduced expansion minus its columns; it is built when read, which
only a certificate does.

A successful solve is packaged as a Certificate for the exact identity

    pi^(N - wt(target)) * target = sum lambda_i Lz(a_i, b_i) + remainder

and machine-verified by substituting the expansions back in before it
is returned.  The columns read the partition records through the profile
and Ct, the check through expand_lz; the two share only those records
and the even fold, and the known part comes from the check's expansions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import NamedTuple, Optional

from .coefficients import composition_profile, c_tilde
from .exact import RationalMatrix, rref, solve_membership
from .expansion import (
    UNIT_MONOMIAL,
    PiReducedCombination,
    ZetaMonomial,
    _render,
    expand_lz,
    reduce_even,
)
from .partitions import PartitionElement, PartitionFilter, enumerate_partitions

__all__ = [
    "MODES",
    "SystemRow",
    "LinearSystem",
    "Certificate",
    "ExpressOutcome",
    "SurveyRecord",
    "SurveyReport",
    "odd_monomials",
    "build_system",
    "verify_certificate",
    "express",
    "survey",
]

MODES = ("optimistic", "strict")

_ODD_FILTER = PartitionFilter(min_part=3, parity="odd")


def odd_monomials(weight: int) -> list[ZetaMonomial]:
    """Monomials over odd zetas >= 3 of the given weight, canonical order."""
    found = [
        ZetaMonomial.from_partition(x) for x in enumerate_partitions(weight, _ODD_FILTER)
    ]
    return sorted(found, key=lambda m: m.factors)


class SystemRow(NamedTuple):
    """A row's coefficient on column j is numerators[j] / denominator."""

    pair: tuple[int, int]
    numerators: tuple[int, ...]
    denominator: int
    columns: tuple[ZetaMonomial, ...]

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.denominator) for x in self.numerators)

    @property
    def known(self) -> PiReducedCombination:
        """The reduced Lz(pair) without its column terms, built on each read."""
        red = reduce_even(expand_lz(*self.pair))
        colset = set(self.columns)
        return PiReducedCombination._of(
            red.weight, {m: c for m, c in red._terms.items() if m not in colset}
        )


class LinearSystem(NamedTuple):
    weight: int
    mode: str
    columns: tuple[ZetaMonomial, ...]
    rows: tuple[SystemRow, ...]

    def matrix(self) -> RationalMatrix:
        nums, dens = [r.numerators for r in self.rows], [r.denominator for r in self.rows]
        return RationalMatrix(nums, len(self.columns), dens)


def build_system(
    N: int, mode: str = "optimistic", ensure: tuple[ZetaMonomial, ...] = ()
) -> LinearSystem:
    """Weight-N system; ensure promotes given monomials into the columns."""
    if N < 3:
        raise ValueError(f"need N >= 3, got {N}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    columns = list(odd_monomials(N))
    if mode == "strict":
        for w in range(N - 2, 2, -2):
            columns.extend(odd_monomials(w))
    for mono in ensure:
        if mono.is_unit or not mono.is_odd_only:
            raise ValueError(f"cannot carry {mono} as an unknown column")
        if mono.weight > N or (N - mono.weight) % 2:
            raise ValueError(f"{mono} cannot appear at weight {N}")
        if mono not in columns:
            columns.append(mono)
    columns.sort(key=ZetaMonomial.sort_key)
    cols = tuple(columns)
    by_column = [_column(PartitionElement(m.weight, m.factors), N) for m in cols]
    den = math.lcm(*(d for _, d in by_column))
    scaled = [[x * (den // d) for x in col] for col, d in by_column]

    rows: list[SystemRow] = []
    for b, nums in enumerate(zip(*scaled), 1):
        if not any(nums):
            continue  # row touches no unknown; nothing to solve with
        rows.append(SystemRow((N - b, b), nums, den, cols))
    return LinearSystem(N, mode, cols, tuple(rows))


def _column(x: PartitionElement, N: int) -> tuple[list[int], int]:
    """(numerators, denominator) of the coefficients of the odd monomial of x
    in the reduced Lz(N - b, b), b = 1..N/2, for wt(x) <= N: the y^b
    coefficients of Ct(x) * C_x(y) * phi_d(y), d = N - wt(x)."""
    d = N - x.weight
    prof = composition_profile(x)
    ct = c_tilde(x)
    phi, den = _even_kernel(d)
    col = []
    for b in range(1, N // 2 + 1):
        # sum_j C_j(x) * phi_d[b - j] over 0 <= b - j <= d; phi_d is
        # symmetric, so phi_d[b - j] = phi_d[d - b + j] and both run upward
        lo = max(0, b - d)
        col.append(ct.numerator * sum(map(mul, prof[lo : b + 1], phi[d - b + lo :])))
    return col, den * ct.denominator


# one entry per even d; a survey to weight 40 reads d = 0..36
@lru_cache(maxsize=32)
def _even_kernel(d: int) -> tuple[tuple[int, ...], int]:
    """(numerators, denominator) with phi_d[j] = numerators[j] / denominator,
    j = 0..d, where phi_d[j] is the pi^d coefficient of the reduced Lz(d-j, j)
    for d > 0, and phi_0 = 1.

    phi_d[0] = phi_d[d] = 0 for d > 0, and phi_d[j] = phi_d[d-j] since C_b
    is symmetric under b -> d - b, so only the pairs with j <= d/2 are reduced.
    """
    if d == 0:
        return (1,), 1
    half = [
        reduce_even(expand_lz(d - j, j)).coefficient(UNIT_MONOMIAL)
        for j in range(1, d // 2 + 1)
    ]
    den = math.lcm(*(q.denominator for q in half))
    nums = [q.numerator * (den // q.denominator) for q in half]
    return (0, *nums, *reversed(nums[: (d - 1) // 2]), 0), den


class Certificate(NamedTuple):
    """Exact identity pi^(weight - wt(target)) * target = lz_terms + remainder.

    lz_terms maps (a, b) to the rational multiplier of Lz(a,b); every pair
    has a + b = weight, so no pi power rides on it.
    """

    target: ZetaMonomial
    weight: int
    lz_terms: dict[tuple[int, int], Fraction]
    known_remainder: PiReducedCombination

    @property
    def target_pi_exponent(self) -> int:
        return self.weight - self.target.weight

    def sorted_lz(self) -> list[tuple[tuple[int, int], Fraction]]:
        return sorted(self.lz_terms.items(), key=lambda ps: ps[0][1])

    def dependencies(self) -> list[ZetaMonomial]:
        return [m for m in self.known_remainder.terms if not m.is_unit]

    def _line(self, latex: bool) -> str:
        lhs = _render([(Fraction(1), self.target_pi_exponent, self.target)], latex)
        items = [(c, 0, f"Lz({a},{b})") for (a, b), c in self.sorted_lz()]
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
                for (a, b), c in self.sorted_lz()
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
    lz_terms = {row.pair: coeff for row, coeff in zip(system.rows, lam) if coeff != 0}
    remainder = sum(
        (row.known.scale(-coeff) for row, coeff in zip(system.rows, lam) if coeff != 0),
        PiReducedCombination(N, {}),
    )
    cert = Certificate(target, N, lz_terms, remainder)
    if not verify_certificate(cert):
        raise RuntimeError(f"certificate for {target} failed the substitution check")
    return cert


# one entry per monomial, bounded.  Measured: express(z3^3*z7, weight=40)
# makes 274 checks, each of a different monomial, so one call gets 0 hits
# at any size.  Only optimistic answers are asked for: strict columns hold
# every odd monomial of weight = N (mod 2), so a strict certificate never
# leaves a lower-weight dependency
@lru_cache(maxsize=128)
def _fully_expressible(mono: ZetaMonomial) -> bool:
    return express(mono).status == "expressible"


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

    missing = [m for m in cert.dependencies() if not _fully_expressible(m)]
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

    def record(self, weight: int) -> SurveyRecord:
        for rec in self.records:
            if rec.weight == weight:
                return rec
        raise KeyError(f"weight {weight} not surveyed")


def _rowspace_members(system: LinearSystem) -> tuple[int, set[int]]:
    """Exact rank and the set of column indices whose unit vector is reachable."""
    reduced, pivots = rref(system.matrix())
    members = {c for row, c in zip(reduced.numerators, pivots) if row.count(0) == len(row) - 1}
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
