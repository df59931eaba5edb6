"""High-precision evaluation and cross-checking of the Lz integrals.

Two independent numeric routes are provided.  The series route splits the
defining integral at t = 1/2 and expands each half as a power series whose
coefficients are composition sums S_n^(k) (sums over compositions of n into
k positive parts of prod 1/m_j); every term is positive and falls like
2^-n, and the sum is cut where an explicit majorant of the tail is below
10^-(working digits) of the partial sum.  The quadrature route integrates
the defining integral directly with a double-exponential (tanh-sinh) rule
whose nodes carry full-precision values of t, 1-t and both logarithms, so
the endpoint log singularities cost nothing.

zeta_value is an in-house Euler-Maclaurin evaluation with an explicit
remainder bound; pi comes from the float library's certified constant.
Working precision carries guard digits over the requested P and results
are trusted to 10^(-P).  mpmath is imported on the first numeric call, so
the exact commands never load it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING, NamedTuple

from .exact import bernoulli_number
from .expansion import PiReducedCombination, expand_lz, reduce_even

if TYPE_CHECKING:
    from mpmath import mpf

__all__ = [
    "PrecisionBudgetError",
    "zeta_value",
    "build_s_table",
    "lz_series",
    "lz_quadrature",
    "evaluate_reduced",
    "METHODS",
    "VerificationReport",
    "verify_expansion",
]

# the routes verify can check the symbolic value against, as --method names them
METHODS = ("series", "quadrature", "both")
QUADRATURE_MAX_LEVEL = 12
SERIES_MAX_TERMS = 2000


class _Mpmath:
    """Stands in for mpmath's context until the first attribute read, which
    imports mpmath and rebinds the module global to the real context."""

    def __getattr__(self, name: str):
        global mp
        from mpmath import mp

        return getattr(mp, name)


mp = _Mpmath()


class PrecisionBudgetError(RuntimeError):
    """Requested precision unreachable within the configured budget."""


def _frac(q: Fraction) -> mpf:
    return mp.mpf(q.numerator) / q.denominator


# ---------------------------------------------------------------------------
# zeta at integer arguments, Euler-Maclaurin with a rigorous tail bound


@lru_cache(maxsize=512)
def zeta_value(s: int, precision: int) -> mpf:
    """zeta(s) for integer s >= 2, accurate to 10^(-precision)."""
    if s < 2:
        raise ValueError(f"zeta_value needs s >= 2, got {s}")
    wdps = precision + 10
    with mp.workdps(wdps):
        k = max(16, wdps)
        total = mp.zero
        for n in range(1, k):
            total += mp.mpf(n) ** (-s)
        kk = mp.mpf(k)
        total += kk ** (1 - s) / (s - 1) + kk ** (-s) / 2
        target = mp.mpf(10) ** (-(wdps + 2))
        rising = s  # (s)_{2j-1}, here at j=1
        j = 1
        while True:
            b2j = bernoulli_number(2 * j)
            total += _frac(b2j / math.factorial(2 * j)) * rising * kk ** (-s - 2 * j + 1)
            # remainder is bounded by the first omitted term for real s > 1
            rising = rising * (s + 2 * j - 1) * (s + 2 * j)
            b_next = bernoulli_number(2 * j + 2)
            bound = abs(_frac(b_next / math.factorial(2 * j + 2))) * rising * kk ** (
                -s - 2 * j - 1
            )
            if bound < target:
                break
            j += 1
            if j > 400:
                raise PrecisionBudgetError(
                    f"zeta({s}): correction budget of 400 terms exhausted at {wdps} digits"
                )
    with mp.workdps(precision):
        return +total


# ---------------------------------------------------------------------------
# the S table: sums over compositions of n into k positive parts of prod 1/m_j


@lru_cache(maxsize=16)
def build_s_table(b_max: int, n_max: int, precision: int) -> tuple[tuple[mpf, ...], ...]:
    """rows[k][n] = S_n^(k) for 1 <= k <= b_max and 0 <= n <= n_max, carried
    to precision + 10 digits; zero below the diagonal, rows[0] empty."""
    if b_max < 1:
        raise ValueError(f"b_max must be >= 1, got {b_max}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    with mp.workdps(precision + 10):
        # prefix form S_n^(k) = (k/n) * sum_{m<n} S_m^(k-1), O(b*n)
        rows = [(), (mp.zero,) + tuple(mp.one / n for n in range(1, n_max + 1))]
        for k in range(2, b_max + 1):
            prev = rows[k - 1]
            row = [mp.zero] * (n_max + 1)
            running = mp.zero
            for n in range(k, n_max + 1):
                running += prev[n - 1]
                row[n] = k * running / n
            rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# tanh-sinh quadrature over (0,1) with precomputed endpoint data


def _vmax(wdps: int) -> float:
    goal = -(wdps + 12) * math.log(10.0)
    v = 1.0
    # node weight decays like exp(-pi*sinh v); margin covers log-power factors
    while -math.pi * math.sinh(v) + math.log(math.cosh(v)) + 24 * math.log1p(
        math.pi * math.sinh(v)
    ) > goal:
        v += 0.05
    return v


def _make_node(v: mpf) -> tuple[mpf, ...]:
    """(base weight, t, 1-t, log t, log(1-t)) at v, all at full precision."""
    u = mp.pi / 2 * mp.sinh(v)
    emu = mp.exp(-2 * u)
    log_big = -mp.log1p(emu)  # log of the side near 1
    log_small = -2 * u + log_big
    big = mp.exp(log_big)
    small = emu * big
    base_weight = (mp.pi / 4) * mp.cosh(v) / mp.cosh(u) ** 2
    return (base_weight, big, small, log_big, log_small)


# one verify integrates at a single working precision: at most
# QUADRATURE_MAX_LEVEL + 1 = 13 entries
@lru_cache(maxsize=64)
def _tier_nodes(tier: int, wdps: int) -> tuple[tuple[mpf, ...], ...]:
    """Nodes new at this refinement level: v = odd multiples of 2^-tier."""
    vmax = _vmax(wdps)
    nodes: list[tuple[mpf, ...]] = []
    with mp.workdps(wdps + 5):
        if tier == 0:
            half = mp.mpf(1) / 2
            nodes.append((mp.pi / 4, half, half, -mp.log(2), -mp.log(2)))
            for k in range(1, int(vmax) + 1):
                nodes.append(_make_node(mp.mpf(k)))
        else:
            h = mp.mpf(1) / 2**tier
            k = 1
            while k * float(h) <= vmax:
                nodes.append(_make_node(k * h))
                k += 2
    return tuple(nodes)


def lz_quadrature(a: int, b: int, precision: int) -> mpf:
    """Lz(a,b) by direct tanh-sinh integration of the normalized integral,
    refined until two consecutive levels agree."""
    if a < 1 or b < 1:
        raise ValueError(f"Lz needs a, b >= 1, got ({a}, {b})")
    wdps = precision + 10
    norm = math.factorial(a - 1) * math.factorial(b)
    with mp.workdps(wdps):
        tol = mp.mpf(10) ** (-(precision + 2))
        tier_sums: list[mpf] = []
        prev = None
        for level in range(QUADRATURE_MAX_LEVEL + 1):
            acc = mp.zero
            for weight, t, mt, log_t, log_mt in _tier_nodes(level, wdps):
                # log(t)^(a-1) log(1-t)^b / t at the node and at its mirror 1-t
                val = log_t ** (a - 1) * log_mt**b / t
                if t != mt:
                    val += log_mt ** (a - 1) * log_t**b / mt
                acc += weight * val
            tier_sums.append(acc)
            total = sum(tier_sums) / 2**level
            if level >= 5 and abs(total - prev) <= tol * max(1, abs(total)):
                with mp.workdps(precision):
                    return +total / norm
            prev = total
    raise PrecisionBudgetError(
        f"Lz({a},{b}) quadrature: quadrature level budget ({QUADRATURE_MAX_LEVEL}) exhausted"
    )


# ---------------------------------------------------------------------------
# series route: the integral split at t = 1/2 into two positive series


def _log2_powers(k: int) -> list:
    """log(2)^m / m! for m = 0..k."""
    c = [mp.one]
    for m in range(1, k + 1):
        c.append(c[-1] * mp.ln2 / m)
    return c


def _half_moment(c: list, k: int, n: int) -> mpf:
    """(1/k!) |integral over (0,1/2) of log^k(t) t^(n-1) dt|; c = _log2_powers(>= k)."""
    # = 2^-n * sum_{m=0..k} c_m / n^(k+1-m), Horner in 1/n
    x = mp.one / n
    acc = c[0]
    for m in range(1, k + 1):
        acc = acc * x + c[m]
    return mp.ldexp(acc * x, -n)


def _term_bound(a: int, b: int, n: int) -> mpf:
    """Majorant of term n of the two sums in lz_series, taken together."""
    # S_n^(k)/k! <= (1+ln n)^(k-1)/((k-1)! n) and each half moment <= 2^(1-n)/n
    h = 1 + mp.log(n)
    first = h ** (b - 1) / (math.factorial(b - 1) * n)
    second = h ** (a - 1) / math.factorial(a - 1)
    return mp.ldexp(first + second, 1 - n) / n


def lz_series(a: int, b: int, precision: int) -> mpf:
    """Lz(a,b) as the two positive series of the integral split at t = 1/2.

    On (0,1/2) expand (-log(1-t))^b = sum S_n^(b) t^n; on (1/2,1) put
    u = 1-t and expand (-log(1-u))^(a-1)/(1-u) = sum (n/a) S_n^(a) u^(n-1).
    With M_k(n) the half moment of log^k(t) t^(n-1) over k!,
    |Lz(a,b)| = sum_{n>=b} S_n^(b)/b! M_{a-1}(n) + sum_{n>=a} n S_n^(a)/a! M_b(n).
    Every term is positive, so the first term of each sum bounds the partial
    sum from below, and the cut is placed where the majorant of the tail is
    at most 10^-(working digits) times that lower bound.
    """
    if a < 1 or b < 1:
        raise ValueError(f"Lz needs a, b >= 1, got ({a}, {b})")
    wdps = precision + 10
    with mp.workdps(wdps):
        c = _log2_powers(max(a - 1, b))
        fa, fb = math.factorial(a), math.factorial(b)
        # the first term of each sum (S_b^(b) = S_a^(a) = 1)
        floor = _half_moment(c, a - 1, b) / fb + a * _half_moment(c, b, a) / fa
        goal = mp.mpf(10) ** (-wdps) * floor
        # from n = 3 max(a,b) on, consecutive majorants shrink by at least 3/4,
        # so the tail after n_max is at most 4 times the majorant of term n_max+1
        n_max = 3 * max(a, b) - 1
        while n_max <= SERIES_MAX_TERMS and 4 * _term_bound(a, b, n_max + 1) > goal:
            n_max += 1
        if n_max > SERIES_MAX_TERMS:
            raise PrecisionBudgetError(
                f"Lz({a},{b}) series: term budget ({SERIES_MAX_TERMS}) "
                f"exhausted at {precision} digits"
            )
        table = build_s_table(max(a, b), n_max, precision)
        first = mp.fsum(table[b][n] * _half_moment(c, a - 1, n) for n in range(b, n_max + 1))
        second = mp.fsum(n * table[a][n] * _half_moment(c, b, n) for n in range(a, n_max + 1))
        total = first / fb + second / fa
    sign = -1 if (a + b) % 2 == 0 else 1
    with mp.workdps(precision):
        return +(sign * total)


# ---------------------------------------------------------------------------
# symbolic evaluation and the three-way verification report


def evaluate_reduced(comb: PiReducedCombination, precision: int) -> mpf:
    """Numeric value of a pi-reduced combination from zeta_value and pi."""
    wdps = precision + 10
    with mp.workdps(wdps):
        total = mp.zero
        for coeff, pi_exp, mono in comb.items():
            term = _frac(coeff)
            if pi_exp:
                term *= mp.pi**pi_exp
            for n, k in mono.factors:
                term *= zeta_value(n, wdps) ** k
            total += term
    with mp.workdps(precision):
        return +total


class VerificationReport(NamedTuple):
    values: dict[str, mpf]  # symbolic first, then each route run, in print order
    max_deviation: mpf
    threshold: mpf
    passed: bool


def verify_expansion(a: int, b: int, precision: int, method: str = "both") -> VerificationReport:
    """The verify judgement: the symbolic value of Lz(a,b) against the routes
    of method ("both", "series" or "quadrature").

    Values carry P+5 digits and are compared at P+10; the check passes when
    the largest pairwise deviation is below 10^-(P-5), so P must be at least
    6 for the threshold to lie below 1.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if precision < 6:
        raise ValueError(f"precision must be at least 6 digits, got {precision}")
    routes = ("series", "quadrature") if method == "both" else (method,)
    reduced = reduce_even(expand_lz(a, b))
    carried = precision + 5
    with mp.workdps(precision + 10):
        values = {"symbolic": evaluate_reduced(reduced, carried)}
        for name in routes:
            # looked up per call, so a rebound module attribute is the one run
            route = lz_series if name == "series" else lz_quadrature
            values[name] = route(a, b, carried)
        max_dev = max(abs(x - y) for x, y in combinations(values.values(), 2))
        threshold = mp.mpf(10) ** (-(precision - 5))
        return VerificationReport(values, max_dev, threshold, bool(max_dev < threshold))
