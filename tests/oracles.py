"""Independent reference computations used only by the tests.

Everything here is deliberately brute force and shares no code with the
package: polynomial products are carried out on explicit (x,y) exponent
dicts, partition counts come from Euler's pentagonal recurrence,
composition sums are enumerated via explicit cut points, pi-reduced
expansions come from a generating function with Bernoulli numbers from
the Akiyama-Tanigawa algorithm, and row reduction is textbook Fraction
Gauss-Jordan; the power sums on the plane z = -x - y are expanded
directly and in e2, e3 by Newton's identity.  The exceptions are
expansion_system, which builds a linear system from the package's own
reduced expansions: it is the reference for the solver's shortcut that
skips them; and big_c, which reads C_b(X) off the package's composition
profile for the tests that check it; and column_by_convolution, which
reads the package's partition records (profile and Ct) and even kernel:
it is the record-side reference for the closed-form product a system
column is read from, which reads no record.  The views composition_profile,
row_coefficients, matrix_of, matrix_entries and reduced_rows only reshape
the package's own integer records, rows, matrices and echelon rows, as
Fractions where they hold any; odd_monomials and survey_record read the
solver's column cache and a survey report.

The numeric oracles are mpf forms of the package's numeric kernels:
lz_series_mpf sums the series route in mpf with a linear tail-cut scan,
and make_node_mpf builds a tanh-sinh node from seven transcendental calls.
to_mpf turns a value the numeric layer returns, the exact Fraction of a
binary float, into that float as an mpf with no rounding, so mpf
arithmetic on it rounds only where mpmath rounds.  audit_certificate is
no oracle: it evaluates both sides of a certificate's identity in mpf from
the numeric layer's own routes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from mpmath import mp
from mpmath.libmp import from_man_exp

from zetalog import coefficients, numerics, solver
from zetalog.coefficients import c_tilde
from zetalog.exact import RationalMatrix
from zetalog.expansion import PiReducedCombination, ZetaMonomial, expand_lz, reduce_even


def composition_profile(x) -> tuple[int, ...]:
    """C_b(X) for every b at once, indexed by b: the profile of x's record."""
    return coefficients._record(x.support)[0]


def row_coefficients(system) -> list[tuple[Fraction, ...]]:
    """A system's rows as Fractions, each numerator over its one denominator."""
    return [tuple(Fraction(x, system.denominator) for x in row) for row in system.rows]


def matrix_of(rows, cols: int) -> RationalMatrix:
    """The matrix of rows of ints or Fractions over the lcm of all their
    denominators."""
    rows = [[Fraction(x) for x in row] for row in rows]
    den = math.lcm(*(x.denominator for row in rows for x in row))
    nums = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
    return RationalMatrix(nums, cols, den)


def odd_monomials(weight: int) -> list[ZetaMonomial]:
    """Monomials over odd zetas >= 3 of the given weight, in the solver's
    column order."""
    return list(solver._odd_columns(weight))


def survey_record(report, weight: int):
    """The record of one weight in a survey report."""
    for rec in report.records:
        if rec.weight == weight:
            return rec
    raise KeyError(f"weight {weight} not surveyed")


def matrix_entries(m: RationalMatrix) -> list[list[Fraction]]:
    return [[Fraction(x, m.denominator) for x in row] for row in m.numerators]


def reduced_rows(rows, pivots) -> list[list[Fraction]]:
    """The rows of the reduced row-echelon form from rref's (rows, pivots):
    each echelon row divided by its entry in its pivot column."""
    return [[Fraction(x, row[c]) for x in row] for row, c in zip(rows, pivots)]


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict[tuple[int, int], int] = {}
    for (i, j), a in p.items():
        for (k, l), b in q.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + a * b
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=64)
def _xy_power(n: int) -> dict:
    # (x + y)^n by repeated multiplication, no binomial shortcut
    acc = {(0, 0): 1}
    for _ in range(n):
        acc = _poly_mul(acc, {(1, 0): 1, (0, 1): 1})
    return acc


@lru_cache(maxsize=1)
def _bivariate_product(support) -> dict:
    # callers read every b of one support in turn
    prod = {(0, 0): 1}
    for size, mult in support:
        factor = dict(_xy_power(size))
        factor[(size, 0)] = factor.get((size, 0), 0) - 1
        factor[(0, size)] = factor.get((0, size), 0) - 1
        factor = {k: v for k, v in factor.items() if v}
        for _ in range(mult):
            prod = _poly_mul(prod, factor)
    return prod


def bivariate_big_c(support, b: int) -> int:
    """Coefficient of x^(N-b) y^b in prod ((x+y)^n - x^n - y^n)^k."""
    total = sum(n * k for n, k in support)
    return _bivariate_product(support).get((total - b, b), 0)


def big_c(x, b: int) -> int:
    """C_b(X) from composition_profile, and 0 outside the profile."""
    prof = composition_profile(x)
    return prof[b] if 0 <= b < len(prof) else 0


def partition_counts(limit: int) -> list[int]:
    """p(0..limit) from the pentagonal number recurrence."""
    p = [1] + [0] * limit
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if k % 2 else -1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def brute_slot_values(sizes, b: int) -> list[tuple[int, ...]]:
    """All tuples with one value per slot, each in [1, size-1], summing to b."""
    ranges = [range(1, s) for s in sizes]
    return [vals for vals in itertools.product(*ranges) if sum(vals) == b]


def s_composition_sum(k: int, n: int) -> Fraction:
    """sum over compositions of n into k positive parts of prod 1/part."""
    if k < 1 or n < k:
        return Fraction(0)
    total = Fraction(0)
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = (0,) + cuts + (n,)
        prod = Fraction(1)
        for lo, hi in zip(bounds, bounds[1:]):
            prod /= hi - lo
        total += prod
    return total


def elementary_reciprocals(k_max: int, n_max: int) -> list[list[Fraction]]:
    """rows[n][k] = e_k(1, 1/2, ..., 1/(n-1)) for 0 <= n <= n_max, 0 <= k <= k_max.

    One pass over n: row n+1 is row n times the factor (1 + x/n) of
    prod (1 + x/j), truncated at x^k_max.
    """
    rows = [[Fraction(1)] + [Fraction(0)] * k_max] * 2  # n = 0, 1: no variables
    for j in range(1, n_max):
        prev = rows[-1]
        rows.append([prev[0]] + [prev[i] + prev[i - 1] / j for i in range(1, k_max + 1)])
    return rows


_AKIYAMA_TANIGAWA: list[Fraction] = []  # the algorithm's row after step i
_AT_VALUES: list[Fraction] = []  # B_0, ..., B_i


def _bernoulli(m: int) -> Fraction:
    """B_m by the Akiyama-Tanigawa algorithm (B_1 = +1/2; only even m used),
    whose step i gives B_i, so the row carries over from one call to the next."""
    row = _AKIYAMA_TANIGAWA
    while len(_AT_VALUES) <= m:
        i = len(row)
        row.append(Fraction(1, i + 1))
        for j in range(i, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        _AT_VALUES.append(row[0])
    return _AT_VALUES[m]


def _p_poly(n: int) -> dict:
    """x^n + y^n - (x+y)^n."""
    p = {k: -v for k, v in _xy_power(n).items()}
    p[(n, 0)] += 1
    p[(0, n)] += 1
    return {k: v for k, v in p.items() if v}


@lru_cache(maxsize=64)
def _even_kernel(d: int) -> dict:
    """Degree-d part Phi_d of exp(sum_k zeta(2k)/(2k) P_2k), pi^d taken out.

    d Phi_d = sum_j j E_j Phi_(d-j), where E_j = zeta(j)/pi^j / j * P_j for
    even j and zeta(2k)/pi^(2k) = (-1)^(k+1) B_2k 2^(2k-1) / (2k)!.
    """
    if d == 0:
        return {(0, 0): Fraction(1)}
    total: dict = {}
    for j in range(2, d + 1, 2):
        k = j // 2
        q = (-1) ** (k + 1) * _bernoulli(j) * 2 ** (j - 1) / math.factorial(j)
        term = _poly_mul({key: q * v for key, v in _p_poly(j).items()}, _even_kernel(d - j))
        for key, v in term.items():
            total[key] = total.get(key, 0) + v
    return {key: v / d for key, v in total.items() if v}


def _odd_partitions(n: int, largest: int):
    """Partitions of n into odd parts >= 3, each at most largest, descending."""
    if n == 0:
        yield []
        return
    for part in range(min(n, largest), 2, -1):
        if part % 2:
            for rest in _odd_partitions(n - part, part):
                yield [part] + rest


@lru_cache(maxsize=1024)
def _odd_factor(factors: tuple[tuple[int, int], ...]) -> dict:
    """Q_m = prod (-P_n/n)^k / k! for the odd monomial m with these factors."""
    q = {(0, 0): Fraction(1)}
    for n, k in factors:
        base = {key: Fraction(-v, n) for key, v in _p_poly(n).items()}
        for _ in range(k):
            q = _poly_mul(q, base)
        q = {key: v / math.factorial(k) for key, v in q.items()}
    return q


def reduced_lz_kernel(a: int, b: int) -> list[tuple[tuple[tuple[int, int], ...], Fraction]]:
    """(factors, coefficient) of the pi-reduced Lz(a,b), odd monomial by monomial.

    Lz(a,b) = [x^a y^b] exp(sum_n (-1)^n zeta(n)/n P_n).  The odd-n factor
    splits by odd monomial m = prod zeta(n)^k into Q_m = prod (-P_n/n)^k/k!,
    and the even-n factor is the rational kernel Phi times pi powers, so the
    coefficient of m is [x^a y^b] Q_m Phi_(N - wt m), with pi^(N - wt m).
    Terms are ordered by the descending part tuple of m plus the part N - wt m.
    """
    total = a + b
    found = []
    for w in range(total % 2, total + 1, 2):
        kernel = _even_kernel(total - w)
        for parts in _odd_partitions(w, w):
            factors = tuple(sorted((n, parts.count(n)) for n in set(parts)))
            coeff = sum(
                (v * kernel.get((a - i, b - j), 0) for (i, j), v in _odd_factor(factors).items()),
                Fraction(0),
            )
            if coeff:
                found.append((tuple(sorted(parts + [total - w], reverse=True)), factors, coeff))
    found.sort(reverse=True, key=lambda t: t[0])
    return [(factors, coeff) for _, factors, coeff in found]


def kernel_mismatches(pairs) -> list[tuple[int, int]]:
    """The pairs (a, b) whose pi-reduced expansion differs from
    reduced_lz_kernel(a, b) in a value or in term order."""
    return [
        (a, b)
        for a, b in pairs
        if [(m.factors, c) for m, c in reduce_even(expand_lz(a, b)).terms.items()]
        != reduced_lz_kernel(a, b)
    ]


def fraction_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan over Fraction with first-nonzero pivots; (rows, pivots)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def expansion_system(N: int, mode: str, ensure=()):
    """(columns, rows) of the weight-N system, every coefficient read from
    reduce_even(expand_lz(N - b, b)).

    Columns are factor tuples: the odd monomials of weight N, in strict
    mode also those of every lower weight of the same parity, plus the
    factors of each monomial in ensure, ordered by descending weight, then
    by factors.  A row is (pair, coefficients, known) with known the
    {factors: coefficient} terms of the reduced expansion off the columns;
    rows without a nonzero coefficient are left out.
    """
    weights = range(N, 2, -2) if mode == "strict" else (N,)
    colset = {
        tuple(sorted((n, parts.count(n)) for n in set(parts)))
        for w in weights
        for parts in _odd_partitions(w, w)
    } | {m.factors for m in ensure}
    columns = sorted(colset, key=lambda f: (-sum(n * k for n, k in f), f))
    rows = []
    for b in range(1, N // 2 + 1):
        red = reduce_even(expand_lz(N - b, b))
        coeffs = tuple(red.coefficient(ZetaMonomial(f)) for f in columns)
        if any(coeffs):
            known = {m.factors: c for m, c in red.terms.items() if m.factors not in colset}
            rows.append(((N - b, b), coeffs, known))
    return columns, rows


def column_by_convolution(x, N: int) -> tuple[list[int], int]:
    """solver._column's (numerators, denominator) by one slice-and-sum
    convolution of C_x with phi_d per b = 1..N/2, d = N - wt(x)."""
    d = N - x.weight
    prof = composition_profile(x)
    ct = c_tilde(x)
    phi, den = solver._even_kernel(d)
    col = []
    for b in range(1, N // 2 + 1):
        # sum_j C_j(x) * phi_d[b - j] over 0 <= b - j <= d; phi_d is
        # symmetric, so phi_d[b - j] = phi_d[d - b + j] and both run upward
        lo = max(0, b - d)
        col.append(ct.numerator * sum(p * q for p, q in zip(prof[lo : b + 1], phi[d - b + lo :])))
    return col, den * ct.denominator


# ---------------------------------------------------------------------------
# power sums p_n = x^n + y^n + z^n on the plane z = -x - y, where e1 = 0:
# the lemmas behind the README's proofs of the survey's structure

_E2_XY = {(2, 0): -1, (1, 1): -1, (0, 2): -1}  # xy + yz + zx = -(x^2 + xy + y^2)
_E3_XY = {(2, 1): -1, (1, 2): -1}  # xyz = -(x^2 y + x y^2)


def power_sum_xy(n: int) -> dict:
    """p_n(x, y, -x-y) = x^n + y^n + (-1)^n (x+y)^n, expanded directly."""
    p = {k: (-1) ** n * v for k, v in _xy_power(n).items()}
    p[(n, 0)] += 1
    p[(0, n)] += 1
    return {k: v for k, v in p.items() if v}


def power_sums_e(n_max: int) -> list[dict]:
    """p_0, ..., p_(n_max) on the plane as polynomials in e2 = xy + yz + zx
    and e3 = xyz, keyed (i, j) for e2^i e3^j, by Newton's identity
    p_n = -e2 p_(n-2) + e3 p_(n-3) from p_0 = 3, p_1 = 0, p_2 = -2 e2."""
    p = [{(0, 0): 3}, {}, {(1, 0): -2}]
    for n in range(3, n_max + 1):
        q = {(i + 1, j): -v for (i, j), v in p[n - 2].items()}
        for (i, j), v in p[n - 3].items():
            q[(i, j + 1)] = q.get((i, j + 1), 0) + v
        p.append({k: v for k, v in q.items() if v})
    return p[: n_max + 1]


@lru_cache(maxsize=256)
def _e_power_xy(i: int, j: int) -> dict:
    if i:
        return _poly_mul(_e_power_xy(i - 1, j), _E2_XY)
    return _poly_mul(_e_power_xy(0, j - 1), _E3_XY) if j else {(0, 0): 1}


def e_to_xy(poly: dict) -> dict:
    """A polynomial in e2, e3 written out in x and y."""
    out: dict[tuple[int, int], int] = {}
    for (i, j), v in poly.items():
        for key, w in _e_power_xy(i, j).items():
            out[key] = out.get(key, 0) + v * w
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=2048)
def power_sum_product_on_line(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of y^0, y^1, ... of prod p_n(1, y, -1-y) over the parts,
    each product built from that of the parts after the first."""
    if not parts:
        return (1,)
    n, rest = parts[0], power_sum_product_on_line(parts[1:])
    p = power_sum_xy(n)
    line = [p.get((n - k, k), 0) for k in range(n + 1)]
    out = [0] * (len(rest) + n)
    for i, u in enumerate(rest):
        for k, v in enumerate(line):
            out[i + k] += u * v
    return tuple(out)


# ---------------------------------------------------------------------------
# numeric kernels in mpf


def to_mpf(q: Fraction):
    """The binary float q, an exact Fraction with a power-of-two
    denominator, as the mpf of the same value: exact at any precision."""
    den = q.denominator
    assert den & (den - 1) == 0, q
    return mp.make_mpf(from_man_exp(q.numerator, 1 - den.bit_length()))


def audit_certificate(cert, precision: int = 30):
    """Relative gap between the two sides of a certificate's identity
    pi^k * target = sum lambda Lz(a,b) + remainder, evaluated at the given
    precision: each Lz by lz_series, the target and the remainder by
    evaluate_reduced, each read off the numerics module when called.  The
    gap is |lhs - rhs| over sum |lambda Lz| + |lhs|, about 10^-precision for
    a true identity.  Numeric evidence, not proof.
    """
    with mp.workdps(precision + 10):
        target = PiReducedCombination(cert.weight, {cert.target: Fraction(1)})
        lhs = to_mpf(numerics.evaluate_reduced(target, precision))
        lz = [
            mp.mpf(lam.numerator) / lam.denominator * to_mpf(numerics.lz_series(a, b, precision))
            for (a, b), lam in cert.lz_terms.items()
        ]
        rhs = mp.fsum(lz) + to_mpf(numerics.evaluate_reduced(cert.known_remainder, precision))
        return abs(lhs - rhs) / (mp.fsum(abs(x) for x in lz) + abs(lhs))


@lru_cache(maxsize=16)
def _s_table_mpf(b_max: int, n_max: int, precision: int) -> tuple:
    """rows[k][n] = S_n^(k) by the prefix recurrence in mpf at precision + 10."""
    with mp.workdps(precision + 10):
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


@lru_cache(maxsize=2048)
def _half_moments_mpf(n: int, k_max: int, wdps: int) -> tuple:
    """M_k(n) = (1/k!) |integral over (0,1/2) of log^k(t) t^(n-1) dt| for
    k = 0..k_max, each by Horner in 1/n: 2^-n sum_{m<=k} c_m / n^(k+1-m)."""
    with mp.workdps(wdps):
        c = [mp.one]
        for m in range(1, k_max + 1):
            c.append(c[-1] * mp.ln2 / m)
        x = mp.one / n
        acc = c[0]
        moments = [mp.ldexp(acc * x, -n)]
        for m in range(1, k_max + 1):
            acc = acc * x + c[m]
            moments.append(mp.ldexp(acc * x, -n))
    return tuple(moments)


@lru_cache(maxsize=2048)
def _bound_parts_mpf(n: int, k_max: int, wdps: int) -> tuple:
    """(1 + log n)^k / (k! n) and (1 + log n)^k / k! for k = 0..k_max."""
    with mp.workdps(wdps):
        h = 1 + mp.log(n)
        powers = [h**k for k in range(k_max + 1)]
        return (
            tuple(p / (math.factorial(k) * n) for k, p in enumerate(powers)),
            tuple(p / math.factorial(k) for k, p in enumerate(powers)),
        )


def _term_bound_mpf(a: int, b: int, n: int, k_max: int, wdps: int):
    """Majorant of term n of the two sums, as lz_series_mpf scans it."""
    firsts, seconds = _bound_parts_mpf(n, k_max, wdps)
    return mp.ldexp(firsts[b - 1] + seconds[a - 1], 1 - n) / n


def _log_term_bound(a: int, b: int, n: int) -> float:
    """The natural log of that majorant, in floats."""
    h = math.log1p(math.log(n))
    first = (b - 1) * h - math.lgamma(b) - math.log(n)
    second = (a - 1) * h - math.lgamma(a)
    top = max(first, second)
    spread = math.log(math.exp(first - top) + math.exp(second - top))
    return top + spread + (1 - n) * math.log(2) - math.log(n)


def _ceil_pow2(n: int) -> int:
    return 1 << max(n - 1, 1).bit_length()


def lz_series_mpf(a: int, b: int, precision: int):
    """(Lz(a,b), n_max) by the split-at-1/2 series in mpf, the tail cut found
    by a linear scan of the majorant from n = 3 max(a,b) - 1 on, and each sum
    taken as one mpf dot product.

    The scan tests every n in turn; the mpf majorant is evaluated only where
    its float log lies within 1 of the goal's, a margin far wider than the
    float error, so each answer is the mpf one.  The S table, the half
    moments and the two parts of the majorant are shared between calls:
    each is the same number whatever the size of the table holding it.
    """
    wdps = precision + 10
    k_max = max(a, b, 40)
    with mp.workdps(wdps):
        fa, fb = math.factorial(a), math.factorial(b)
        floor = _half_moments_mpf(b, k_max, wdps)[a - 1] / fb
        floor += a * _half_moments_mpf(a, k_max, wdps)[b] / fa
        goal = mp.mpf(10) ** (-wdps) * floor
        log_goal = float(mp.log(goal / 4))
        n_max = 3 * max(a, b) - 1
        while True:
            near = _log_term_bound(a, b, n_max + 1) < log_goal + 1
            if near and 4 * _term_bound_mpf(a, b, n_max + 1, k_max, wdps) <= goal:
                break
            n_max += 1
        table = _s_table_mpf(k_max, _ceil_pow2(n_max + 1), precision)
        moments = {n: _half_moments_mpf(n, k_max, wdps) for n in range(1, n_max + 1)}
        first = mp.fdot(table[b][b : n_max + 1], [moments[n][a - 1] for n in range(b, n_max + 1)])
        second = mp.fdot(
            table[a][a : n_max + 1], [n * moments[n][b] for n in range(a, n_max + 1)]
        )
        total = first / fb + second / fa
    sign = -1 if (a + b) % 2 == 0 else 1
    with mp.workdps(precision):
        return +(sign * total), n_max


def make_node_mpf(v):
    """(base weight, t, 1-t, log t, log(1-t)) of the tanh-sinh node at v."""
    u = mp.pi / 2 * mp.sinh(v)
    emu = mp.exp(-2 * u)
    log_big = -mp.log1p(emu)
    log_small = -2 * u + log_big
    big = mp.exp(log_big)
    small = emu * big
    base_weight = (mp.pi / 4) * mp.cosh(v) / mp.cosh(u) ** 2
    return (base_weight, big, small, log_big, log_small)
