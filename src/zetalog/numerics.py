"""High-precision evaluation and cross-checking of the Lz integrals.

Two independent numeric routes are provided.  The series route splits the
defining integral at t = 1/2 and expands each half as a power series whose
coefficients are composition sums S_n^(k) (sums over compositions of n into
k positive parts of prod 1/m_j); every term is positive and falls like
2^-n, and the sum is cut at the first term where an explicit majorant of
the tail, scanned in floats with a 2^-30 margin on its log2, is below
10^-(working digits) of the partial sum.  The quadrature route integrates
the defining integral directly with a double-exponential (tanh-sinh) rule
whose nodes carry full-precision values of t, 1-t and both logarithms, so
the endpoint log singularities cost nothing.

zeta_value is P. Borwein's alternating series over one integer table, with
an a-priori truncation bound and nothing from the exact layer, whose
Bernoulli numbers make the pi-coefficients it checks.
Every evaluation works with 10 guard digits over the P it returns; the
symbolic sum in evaluate_reduced, the one that cancels, adds the digits it
measures lost, so every value and the verdict are relative to |Lz|.

Both routes, zeta_value and the symbolic sum work in integer fixed point:
Python ints in units of 2^-W, where every truncation is a floor division
that loses under one unit, so W carries guard bits for a counted bound on
the units lost.  pi (Machin's formula), log 2 (2 atanh(1/3)) and the
exponential are integer series of their own, each with its error counted.
The series route reads log 2, quadrature pi, log 2 and one exponential per
node (no log), and the symbolic sum pi and zeta_value.  Each result is
rounded once, half to even, to the binary float of the digits asked for,
and returned as the exact Fraction of that float: the value mpmath's
round-to-nearest would give.  verify_expansion judges those values
exactly: the largest deviation is exact and so is the threshold, a power
of ten.  nstr prints a Fraction correctly rounded, half to even, so the
package needs no mpmath and imports none.  The two routes share no code
of their own: the series never evaluates the integrand, quadrature never
expands it, and each has its own sum, error bound and stopping rule.
The layer keeps no state: one verify reads no zeta value and builds no
quadrature level twice, so every call computes afresh, with no cache.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, combinations
from typing import NamedTuple

from .expansion import PiReducedCombination, expand_lz, reduce_even

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
    "nstr",
]

# the routes verify can check the symbolic value against, as --method names them
METHODS = ("series", "quadrature", "both")
QUADRATURE_MAX_LEVEL = 12
SERIES_MAX_TERMS = 2000
SYMBOLIC_MAX_PASSES = 6


class PrecisionBudgetError(RuntimeError):
    """Requested precision unreachable within the configured budget."""


# ---------------------------------------------------------------------------
# binary floats as exact Fractions, and the constants in integer fixed point


def _prec(dps: int) -> int:
    """The bits of dps decimal digits, by mpmath's dps_to_prec."""
    return max(1, round((dps + 1) * 3.3219280948873626))


def _round(num: int, den: int, prec: int) -> Fraction:
    """num/den for den > 0, rounded to prec significant bits, half to even."""
    if not num:
        return Fraction(0)
    mag = abs(num)
    # q holds the first prec + 1 or prec + 2 bits of the quotient, r the rest
    shift = prec + 1 - mag.bit_length() + den.bit_length()
    q, r = divmod(mag << max(shift, 0), den << max(-shift, 0))
    extra = q.bit_length() - prec
    low, m, half = q & ((1 << extra) - 1), q >> extra, 1 << (extra - 1)
    if low > half or (low == half and (r or m & 1)):
        m += 1
    m, e = (m if num > 0 else -m), extra - shift
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _pi_fixed(prec: int) -> int:
    """floor(pi 2^prec) or one less, by Machin's pi = 16 atan(1/5) -
    4 atan(1/239) in units of 2^-(prec+g)."""
    # atan(1/m) = sum_j (-1)^j / ((2j+1) m^(2j+1)); t is 2^(prec+g) / m^(2j+1)
    # floored, and a floor of a floor by an integer is the floor of the
    # quotient, so every term is within one unit and so is the tail after
    # the first zero term.  The sum is within err units, counted 16 or 4 per
    # term and tail, so sum - err is in (T - 2 err, T] for T = pi 2^(prec+g),
    # and 2 err < 2^g: the shift is the floor of pi 2^prec or one less
    g = prec.bit_length() + 32
    total = err = 0
    for m, c in ((5, 16), (239, -4)):
        t, k = (1 << (prec + g)) // m, 1
        while t:
            total += t // k * (c if k % 4 == 1 else -c)
            t, k, err = t // (m * m), k + 2, err + abs(c)
        err += abs(c)
    return (total - err) >> g


def _ln2_fixed(prec: int) -> int:
    """floor(log(2) 2^prec) or one less, as 2 atanh(1/3) in units of
    2^-(prec+g)."""
    # atanh(1/3) = sum_j 1 / ((2j+1) 3^(2j+1)), each term its exact floor as
    # in _pi_fixed, and the tail after the first zero term is under 9/8: J
    # terms put twice the sum in (T - 2J - 3, T] for T = log(2) 2^(prec+g),
    # and 2J + 3 < 2^g
    g = prec.bit_length() + 32
    t, k, total = (1 << (prec + g)) // 3, 1, 0
    while t:
        total += t // k
        t, k = t // 9, k + 2
    return 2 * total >> g


def _exp_fixed(x: int, prec: int) -> int:
    """e^(x 2^-prec) in units of 2^-prec, low by under 2 units, for
    0 <= x < 8 2^prec."""
    # y = x 2^-r < 2^-13 in units of 2^-wp, summed as its Taylor series in
    # even and odd parts, one product per two terms, then squared r times.
    # Every term comes out low by under 2 units, and the K <= wp/13 + 1 terms
    # and the tail leave the sum low by under 2K + 8 units, a relative
    # (2K + 8) 2^-wp since e^y >= 1; each squaring doubles that and floors
    # under one unit more.  So before the last shift e^x is low by relative
    # under 2^r (2K + 9) 2^-wp, which is e^x (2K + 9) 2^-G < 2^12 (2K + 9)
    # 2^-G < 1 unit of 2^-prec, and the shift floors one unit more
    r, G = 16, prec.bit_length() + 20
    wp = prec + r + G
    one, y = 1 << wp, x << G
    y2 = a = y * y >> wp
    even = odd = one  # sum of y^2j / (2j)! and of y^2j / (2j+1)!
    k = 2
    while a:
        a //= k
        even += a
        a //= k + 1
        odd += a
        a, k = a * y2 >> wp, k + 2
    s = even + (odd * y >> wp)
    for _ in range(r):
        s = s * s >> wp
    return s >> (wp - prec)


# ---------------------------------------------------------------------------
# zeta at integer arguments, Borwein's alternating series with an a-priori bound


def zeta_value(s: int, precision: int) -> Fraction:
    """zeta(s) for integer s >= 2, accurate to 10^(-precision).

    P. Borwein's algorithm 2 ("An efficient algorithm for the Riemann zeta
    function", 2000): with d_k = sum_{i<=k} n (n+i-1)! 4^i / ((n-i)! (2i)!),
    eta(s) d_n = sum_{k<n} (-1)^k (d_n - d_k) / (k+1)^s up to under
    6 (3+sqrt 8)^-n in zeta for real s >= 2."""
    if s < 2 or precision < 1:
        raise ValueError(f"zeta_value needs s >= 2 and precision >= 1, got ({s}, {precision})")
    wdps = precision + 10
    # 10^(3/4) < 3+sqrt 8, so the truncation is below 10^-(wdps+2)
    n = -(-4 * (wdps + 3) // 3)
    d, t = [1], 1
    for i in range(1, n + 1):
        # t_i = n (n+i-1)! 4^i / ((n-i)! (2i)!), an integer, divided exactly
        t = t * 4 * (n + i - 1) * (n - i + 1) // (2 * i * (2 * i - 1))
        d.append(d[-1] + t)
    # each term floored in units of 2^-W of eta d_n: under n units, so under
    # 2 units of 2^-W in zeta after the division by d_n and its floor
    W = _prec(wdps) + 4
    total = sum((-1) ** k * (((d[n] - d[k]) << W) // (k + 1) ** s) for k in range(n))
    total = (total << (s - 1)) // (d[n] * ((1 << (s - 1)) - 1))
    return _round(total, 1 << W, _prec(precision))


# ---------------------------------------------------------------------------
# the S table: sums over compositions of n into k positive parts of prod 1/m_j


def build_s_table(
    b_max: int, n_max: int, precision: int
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(W, rows), where rows[k][n] is S_n^(k) in units of 2^-W, rounded down,
    for 1 <= k <= b_max and 0 <= n <= n_max; zero below the diagonal, rows[0]
    empty.

    W is the working bits of precision + 10 digits plus at least 32 guard
    bits, so that below 2^31 entries no entry depends on the shape of the
    table holding it.  Each entry is low by under k n 2^-W of its value, so
    every entry by under b_max n_max 2^-W <= 2^-(working bits + 1).
    """
    if b_max < 1 or precision < 1:
        raise ValueError(f"b_max and precision must be >= 1, got ({b_max}, {precision})")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    W = _prec(precision + 10) + max(32, (b_max * n_max).bit_length() + 1)
    # prefix form S_n^(k) = (k/n) * sum_{m<n} S_m^(k-1), O(b*n).  Each floor
    # loses under one unit, and S_n^(k) >= 1/n: if row k-1 is low by under
    # (k-1) m 2^-W of S_m^(k-1), row k is low by under ((k-1)(n-1) + n) 2^-W
    # <= k n 2^-W of S_n^(k)
    row = (0,) + tuple((1 << W) // n for n in range(1, n_max + 1))
    rows = [(), row]
    for k in range(2, b_max + 1):
        prev, row, running = row, [0] * (n_max + 1), 0
        for n in range(k, n_max + 1):
            running += prev[n - 1]
            row[n] = k * running // n
        rows.append(tuple(row))
    return W, tuple(rows)


# ---------------------------------------------------------------------------
# tanh-sinh quadrature over (0,1) in integer fixed point


def _vmax(wdps: int) -> float:
    goal = -(wdps + 12) * math.log(10.0)
    v = 1.0
    # node weight decays like exp(-pi*sinh v); margin covers log-power factors
    while -math.pi * math.sinh(v) + math.log(math.cosh(v)) + 24 * math.log1p(
        math.pi * math.sinh(v)
    ) > goal:
        v += 0.05
    return v


def _tier_nodes(tier: int, wdps: int, vmax: float) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(B, nodes new at this level up to vmax): v = k 2^-tier for k = 0, 1,
    2, ... at level 0 and for odd k above it.  With u = pi/2 sinh v and
    x = e^(-2u) = E 2^-(B+n), node (c, M, L, E, n) has t = 1/(1+x),
    |log t| = log1p(x) = M 2^-(B+n), |log(1-t)| = 2u + log1p(x) = L 2^-B and
    base weight c x/(1+x) 2^-B.  c, M, L and E are at least 2^(B-1) and within
    3 units, so all keep relative precision however tiny x is.  B is the
    working bits of wdps + 5 digits plus 32 guard bits.  A node costs one
    _exp_fixed: e^v is one product from the last, log1p an integer series."""
    B = _prec(wdps + 5) + 32
    # e^v steps by e^(2^-tier) from an _exp_fixed anchor every 64 steps; each
    # factor is within 16 units and each product floored, so e^v is within
    # 2^11 units.  e^v, 2u and n stay below 2^12: 2u and r within 2^-(B+2)
    W = B + 28
    pi, ln2 = _pi_fixed(W), _ln2_fixed(W)
    ev, ratio, nodes = 1 << W, _exp_fixed(1 << (W - tier), W), []
    for k in range(int(vmax * 2**tier) + 1):
        if k % 64:
            ev = ev * ratio >> W
        elif k:
            ev = _exp_fixed(k << (W - tier), W)
        if tier and k % 2 == 0:
            continue
        emv = (1 << 2 * W) // ev
        y = pi * (ev - emv) >> (W + 1)  # 2u
        # x = e^r 2^-n with r = n ln2 - 2u in [0, ln2)
        n = -(-y // ln2)
        E = _exp_fixed(n * ln2 - y, W) >> (W - B)
        one_x = (1 << (B + n)) + E  # 1 + x in units of 2^-(B+n)
        # log1p(x) = 2 atanh(z), z = x/(2+x) <= 1/3, in units of 2^-P: under
        # P/3 terms lose under 2P units, so below P = 2^15 M is low by under 2
        P = B + n + 16
        z = (E << P) // (one_x + (1 << (B + n)))
        z2, term, j, M = z * z >> P, z, 1, 0
        while term:
            M, term, j = M + term // j, term * z2 >> P, j + 2
        M >>= 15
        c = ((pi * (ev + emv) >> (W + 1)) << (2 * B + n - W)) // one_x
        nodes.append((c, M, (y >> (W - B)) + (M >> n), E, n))
    return B, tuple(nodes)


def _fpow(x: int, k: int, B: int) -> int:
    """x^k in units of 2^-B for x in units of 2^-B, each product floored."""
    r = 1 << B
    for bit in bin(k)[2:]:
        r = r * r >> B
        if bit == "1":
            r = r * x >> B
    return r


def lz_quadrature(a: int, b: int, precision: int) -> Fraction:
    """Lz(a,b) by direct tanh-sinh integration of the normalized integral,
    refined until two consecutive levels agree to 10^-(precision+2) of
    their value.  The level sums are integers, rounded once."""
    if a < 1 or b < 1 or precision < 1:
        raise ValueError(f"Lz needs a, b and precision >= 1, got ({a}, {b}, {precision})")
    wdps = precision + 10
    # The integrand keeps one sign and is at least ln2^b (1-t)^(a-1) on (1/2,1)
    # and ln2^(a-1) t^(b-1) on (0,1/2), so |integral| >= max(ln2^b/(a 2^a),
    # ln2^(a-1)/(b 2^b)) >= 2^(working bits + 20 - S).  Each half adds its floor
    # in units of 2^-S, or nothing when its bit bound is below one unit: under
    # one unit lost, and under 2^16 halves by level 12.  Node fields within 3
    # units and powers of values >= ln2, each product floored, put each half
    # within relative 2^(a+b+7-B): through weight 40, 10^-wdps in all.
    lg = math.log2(math.log(2))
    bound_bits = min(a + math.log2(a) - b * lg, b + math.log2(b) - (a - 1) * lg)
    S = _prec(wdps) + 20 + math.ceil(bound_bits)
    vmax, running, prev = _vmax(wdps), 0, 0
    for level in range(QUADRATURE_MAX_LEVEL + 1):
        B, nodes = _tier_nodes(level, wdps, vmax)
        for c, M, L, E, n in nodes:
            # the integrand times the base weight at 1-t, c |log(1-t)|^(a-1)
            # |log t|^b, and at t, c x |log t|^(a-1) |log(1-t)|^b; the centre
            # (n = 0) is its own mirror and counts once.  M, E < 2^(B+1)
            ec, eL = c.bit_length() - B, L.bit_length() - B
            if ec + (a - 1) * eL + b * (1 - n) + S > 0:
                running += c * _fpow(L, a - 1, B) * _fpow(M, b, B) >> (3 * B + n * b - S)
            if n and ec + a * (1 - n) + b * eL + S > 0:
                running += c * E * _fpow(M, a - 1, B) * _fpow(L, b, B) >> (4 * B + n * a - S)
        if level >= 5 and abs(running - 2 * prev) * 10 ** (precision + 2) <= running:
            norm = math.factorial(a - 1) * math.factorial(b) << (S + level)
            total = -running if (a + b) % 2 == 0 else running
            return _round(total, norm, _prec(precision))
        prev = running
    raise PrecisionBudgetError(
        f"Lz({a},{b}) quadrature: quadrature level budget ({QUADRATURE_MAX_LEVEL}) exhausted"
    )


# ---------------------------------------------------------------------------
# series route: the integral split at t = 1/2 into two positive series


def _half_moment(c: list[int], k: int, n: int) -> int:
    """2^n (1/k!) |integral over (0,1/2) of log^k(t) t^(n-1) dt|, in the units
    of c, where c[m] = log(2)^m / m! for m = 0..(>= k)."""
    # = sum_{m=0..k} c_m / n^(k+1-m), Horner in 1/n
    acc = c[0]
    for m in range(1, k + 1):
        acc = acc // n + c[m]
    return acc // n


def _series_cut(a: int, b: int, log2_goal: float) -> int:
    """The last term n_max of lz_series: the first n >= 3 max(a,b) - 1 with
    log2(4 t(n+1)) <= log2_goal - 2^-30, where t(n) is the majorant of term n
    of the two sums taken together, or SERIES_MAX_TERMS + 1 if there is none."""
    # S_n^(k)/k! <= (1+ln n)^(k-1)/((k-1)! n) and each half moment is at most
    # 2^(1-n)/n, so t(n) = 2^(1-n)/n ((1+ln n)^(b-1)/((b-1)! n) + (1+ln n)^(a-1)
    # /(a-1)!).  From n = 3 max(a,b) on, t shrinks by at least 3/4 a step, so
    # the tail after n_max is at most 4 t(n_max+1).  The test can pass only
    # for n <= 2000, so max(a,b) <= 667 and log2_goal > -2^13; there the
    # goal's parts (log2 of the floor, W) and every float below are under
    # 2^14 in size, and a dozen rounded float operations put log2(4 t) and
    # the goal within 2^-35 of their exact values, far inside the margin:
    # each cut holds for the exact t and goal
    lfa, lfb = math.log(math.factorial(a - 1)), math.log(math.factorial(b - 1))
    n = 3 * max(a, b) - 1
    while n <= SERIES_MAX_TERMS:
        # natural logs of the two parts of t(n+1) over 2^-n/(n+1)
        h = math.log1p(math.log(n + 1))
        first, second = (b - 1) * h - lfb - math.log(n + 1), (a - 1) * h - lfa
        both = max(first, second) + math.log1p(math.exp(-abs(first - second)))
        if 2 - n - math.log2(n + 1) + both / math.log(2) <= log2_goal - 2**-30:
            break
        n += 1
    return n


def lz_series(a: int, b: int, precision: int) -> Fraction:
    """Lz(a,b) as the two positive series of the integral split at t = 1/2.

    On (0,1/2) expand (-log(1-t))^b = sum S_n^(b) t^n; on (1/2,1) put
    u = 1-t and expand (-log(1-u))^(a-1)/(1-u) = sum (n/a) S_n^(a) u^(n-1).
    With M_k(n) the half moment of log^k(t) t^(n-1) over k!,
    |Lz(a,b)| = sum_{n>=b} S_n^(b)/b! M_{a-1}(n) + sum_{n>=a} n S_n^(a)/a! M_b(n).
    Every term is positive, so the first term of each sum bounds the partial
    sum from below, and the cut is placed where the majorant of the tail is
    at most 10^-(working digits) times that lower bound.  Both sums run in
    integer fixed point.
    """
    if a < 1 or b < 1 or precision < 1:
        raise ValueError(f"Lz needs a, b and precision >= 1, got ({a}, {b}, {precision})")
    wdps = precision + 10
    fa, fb = math.factorial(a), math.factorial(b)
    # 2^-L bounds the first term of either sum, hence the floor, from below:
    # M_k(n) >= 2^-n / n^(k+1), and S_b^(b) = S_a^(a) = 1
    L = min(b + (b**a * fb).bit_length(), a + (a**b * fa).bit_length())
    # Fixed point in units of 2^-W, every truncation rounding down.  log 2
    # and the c_m are low by under 4 units each, so a half moment is low by
    # under 6(k+1) units; a term carries that times S_n^(k)/k! 2^-n <= e 2^-n
    # (times n in the second sum), and sum_n n 2^-n = 2, so the two sums lose
    # under 40(a+b+1) units together, which the guard bits absorb: the loss is
    # below 2^-(working bits) times the floor
    W = _prec(wdps) + L + (40 * (a + b + 1)).bit_length()
    ln2 = _ln2_fixed(W)
    c = [1 << W]
    for m in range(1, max(a - 1, b) + 1):
        c.append((c[-1] * ln2 >> W) // m)
    # the first term of each sum
    floor = (_half_moment(c, a - 1, b) >> b) // fb + a * (_half_moment(c, b, a) >> a) // fa
    n_max = _series_cut(a, b, math.log2(floor) - W - wdps * math.log2(10))
    if n_max > SERIES_MAX_TERMS:
        raise PrecisionBudgetError(
            f"Lz({a},{b}) series: term budget ({SERIES_MAX_TERMS}) "
            f"exhausted at {precision} digits"
        )
    # S entries are in units of 2^-T, each low by under 2^-(working bits + 1)
    # of itself, so they lower each sum by under that share of the sum.  The
    # shifts and divisions of the 2^-(W+T) products lose under one unit of
    # 2^-W more.  With the tail, cut at 10^-(working digits) of the floor, the
    # result is low by under 3 10^-(P+10) of |Lz| before the final rounding to
    # P digits, which is 10 digits coarser
    T, rows = build_s_table(max(a, b), n_max, precision)
    first = sum(rows[b][n] * _half_moment(c, a - 1, n) >> n for n in range(b, n_max + 1))
    second = sum(n * rows[a][n] * _half_moment(c, b, n) >> n for n in range(a, n_max + 1))
    total = first // fb + second // fa
    if (a + b) % 2 == 0:
        total = -total
    return _round(total, 1 << (W + T), _prec(precision))


# ---------------------------------------------------------------------------
# symbolic evaluation and the three-way verification report


def evaluate_reduced(comb: PiReducedCombination, precision: int) -> Fraction:
    """Numeric value of a pi-reduced combination from zeta_value and pi,
    accurate relative to itself however much its terms cancel."""
    if precision < 1:
        raise ValueError(f"evaluate_reduced needs precision >= 1, got {precision}")
    terms = comb.items()
    den = math.lcm(*(coeff.denominator for coeff, _, _ in terms))
    zeta_args = {n for _, _, mono in terms for n, _ in mono.factors}
    guard = 10
    for _ in range(SYMBOLIC_MAX_PASSES):
        wdps = precision + guard
        # a term is its pi and zeta powers in units of 2^-U times the integer
        # coeff den, so total and size are exact sums in units of 2^-U/den
        U = _prec(wdps) + 4
        pis = list(accumulate([1 << U] + [_pi_fixed(U)] * comb.weight, lambda x, y: x * y >> U))
        zetas = {n: int(zeta_value(n, wdps) * (1 << U)) for n in zeta_args}
        total = size = 0
        for coeff, pi_exp, mono in terms:
            term = pis[pi_exp]
            for n, k in mono.factors:
                for _ in range(k):
                    term = term * zetas[n] >> U
            term *= coeff.numerator * (den // coeff.denominator)
            total += term
            size += abs(term)
        if not size:
            return Fraction(0)
        # size/|total| < 10^lost, as 0.30103 > log10 2; an exact zero reads
        # a loss of over wdps digits, as size is over 2^U units
        lost = math.ceil((size.bit_length() - abs(total).bit_length() + 1) * 0.30103)
        # Every factor is at least 1: a weight-w term has at most w/3 zeta
        # factors, each within relative 10^-wdps, and under 2w floors, each
        # under 2^-U < 10^-wdps/100 of it; the sum itself is exact.  So the
        # sum is within (w/2) 10^-wdps size, and with lost <= guard - 3
        # within relative 20 10^-(precision+3) through weight 40.  A noisy
        # pass reads a loss near its working digits and widens again
        if lost <= guard - 3:
            return _round(total, den << U, _prec(precision))
        guard = lost + 10
    raise PrecisionBudgetError(f"symbolic sum: pass budget ({SYMBOLIC_MAX_PASSES}) exhausted")


class VerificationReport(NamedTuple):
    values: dict[str, Fraction]  # symbolic first, then each route run, in print order
    max_deviation: Fraction
    threshold: Fraction
    passed: bool


def _place(x: Fraction) -> int:
    """The place e of the leading digit of x != 0: 10^e <= |x| < 10^(e+1)."""
    x = abs(x)
    if not x:
        raise ValueError("0 has no leading digit")
    # from log10 of the power of two within a factor 2 of x, then exact steps
    e = math.floor((x.numerator.bit_length() - x.denominator.bit_length()) * 0.30103)
    while x >= Fraction(10) ** (e + 1):
        e += 1
    while x < Fraction(10) ** e:
        e -= 1
    return e


def verify_expansion(a: int, b: int, precision: int, method: str = "both") -> VerificationReport:
    """The verify judgement: the symbolic value of Lz(a,b) against the routes
    of method ("both", "series" or "quadrature").

    Values carry P+5 digits relative to |Lz| and are compared exactly; the
    check passes when the largest pairwise deviation is below 10^(e-(P-5)),
    with 10^e the leading digit's place in the largest value, so P must be
    at least 6 for the threshold to lie below that digit.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if precision < 6:
        raise ValueError(f"precision must be at least 6 digits, got {precision}")
    routes = ("series", "quadrature") if method == "both" else (method,)
    reduced = reduce_even(expand_lz(a, b))
    carried = precision + 5
    values = {"symbolic": evaluate_reduced(reduced, carried)}
    for name in routes:
        # looked up per call, so a rebound module attribute is the one run
        route = lz_series if name == "series" else lz_quadrature
        values[name] = route(a, b, carried)
    max_dev = max(abs(x - y) for x, y in combinations(values.values(), 2))
    threshold = Fraction(10) ** (_place(max(map(abs, values.values()))) - (precision - 5))
    return VerificationReport(values, max_dev, threshold, max_dev < threshold)


def nstr(x: Fraction, n: int) -> str:
    """x to n >= 1 significant digits, correctly rounded, half to even.

    Fixed form while the leading digit's place e has min(-(n//3), -5) < e
    < n, else d.ddde+e or d.ddde-e; trailing zeros stripped down to one
    digit after the point.
    """
    if n < 1:
        raise ValueError(f"nstr needs n >= 1 digits, got {n}")
    if not x:
        return "0.0"
    sign = "-" if x < 0 else ""
    exponent = _place(x)
    digits = str(round(abs(x) * Fraction(10) ** (n - 1 - exponent)))
    if len(digits) > n:  # rounded up through 9...9 into 10...0
        digits, exponent = digits[:n], exponent + 1
    split = 1
    if min(-(n // 3), -5) < exponent < n:  # fixed form
        digits, split, exponent = "0" * -exponent + digits, max(exponent, 0) + 1, 0
    point = digits[:split] + "." + (digits[split:].rstrip("0") or "0")
    return sign + point + (f"e{exponent:+d}" if exponent else "")
