from __future__ import annotations

import importlib.util
import math
import random
import sys
from collections import Counter
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import mpmath
import pytest
from mpmath import mp, workdps
from mpmath.libmp import (
    dps_to_prec,
    from_man_exp,
    ln2_fixed,
    mpf_exp,
    pi_fixed,
    round_floor,
    to_fixed,
)

import golden_data
from zetalog import numerics
from zetalog.expansion import (
    UNIT_MONOMIAL,
    PiReducedCombination,
    ZetaMonomial,
    expand_lz,
    reduce_even,
)
from zetalog.numerics import (
    PrecisionBudgetError,
    build_s_table,
    evaluate_reduced,
    lz_quadrature,
    lz_series,
    verify_expansion,
    zeta_value,
)
from oracles import (
    elementary_reciprocals,
    lz_series_mpf,
    make_node_mpf,
    s_composition_sum,
    to_mpf,
)

F = Fraction


def _tol(digits: int):
    return mp.mpf(10) ** (-digits)


def test_zeta_matches_reference_library():
    # correctly rounded through weight 40 at every P = 16..80: verify asks
    # for P+15 = 21..75 digits and the certificate audit for 40, so this
    # pins the printed digits of both
    with workdps(100):
        refs = {s: mpmath.zeta(s) for s in range(2, 41)}
    for digits in range(16, 81):
        with workdps(digits):
            for s, ref in refs.items():
                assert to_mpf(zeta_value(s, digits)) == +ref, (digits, s)


def test_zeta_high_precision():
    with workdps(65):
        assert abs(to_mpf(zeta_value(2, 60)) - mp.pi**2 / 6) < _tol(60)


def test_zeta_rejects_small_argument():
    with pytest.raises(ValueError):
        zeta_value(1, 30)


def test_nonpositive_precision_is_rejected():
    # Borwein's term count follows P, so P = -20 once indexed past the
    # table and P = -13 summed nothing; an evaluation at P < 1 must refuse,
    # whether or not the combination holds a zeta factor
    for digits in (-20, -13, 0):
        with pytest.raises(ValueError):
            zeta_value(3, digits)
    pi_only = PiReducedCombination(2, {UNIT_MONOMIAL: F(1, 6)})
    for comb in (golden_data.reduced_combination(2, 1), pi_only):
        for digits in (-20, -5, 0):
            with pytest.raises(ValueError):
                evaluate_reduced(comb, digits)
    # both routes and the S table would answer from a few bits (Lz(3,3) as
    # -0.015625 at P = 0 and -9), so they refuse P < 1 too
    for digits in (-40, -9, -5, 0):
        for route in (lz_series, lz_quadrature):
            with pytest.raises(ValueError):
                route(3, 3, digits)
        with pytest.raises(ValueError):
            build_s_table(3, 10, digits)
    assert abs(to_mpf(zeta_value(3, 1)) - mpmath.zeta(3)) < _tol(1)
    assert abs(to_mpf(lz_series(3, 3, 1)) - to_mpf(lz_quadrature(3, 3, 1))) < _tol(1)


def _mpf(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


def _assert_entries_within_bound(table, exact, k_max, n_max):
    # each entry is S 2^W rounded down and low by under k n 2^-W of S,
    # checked exactly; below the diagonal S = 0 and the entry is 0
    W, rows = table
    for k in range(1, k_max + 1):
        for n in range(n_max + 1):
            want = exact(k, n)
            gap = want * 2**W - rows[k][n]
            assert 0 <= gap < k * n * want or gap == want == 0, (W, k, n)


def test_s_table_exact_against_brute_force():
    _assert_entries_within_bound(build_s_table(4, 24, 30), s_composition_sum, 4, 24)


def _s_exact(k_max: int, n_max: int):
    # S_n^(k) = k!/n * e_{k-1}(1, 1/2, ..., 1/(n-1)) for 1 <= k <= n
    e = elementary_reciprocals(k_max - 1, n_max)
    return lambda k, n: F(math.factorial(k), n) * e[n][k - 1] if n >= k else F(0)


def test_s_table_elementary_symmetric_identity():
    _assert_entries_within_bound(build_s_table(5, 40, 30), _s_exact(5, 40), 5, 40)


def test_s_table_matches_exact_at_every_precision():
    # W is the working bits of P + 10 digits plus 32 guard bits, so every
    # entry is within relative b_max n_max 2^-W <= 2^-(working bits + 1)
    exact = _s_exact(4, 120)
    for digits in (15, 30, 60):
        table = build_s_table(4, 120, digits)
        assert table[0] == dps_to_prec(digits + 10) + 32, digits
        _assert_entries_within_bound(table, exact, 4, 120)


def test_s_table_entries_do_not_depend_on_shape():
    W, full = build_s_table(40, 600, 30)
    for b_max, n_max in [(1, 0), (3, 10), (5, 40), (12, 200), (39, 599)]:
        table = build_s_table(b_max, n_max, 30)
        assert table == (W, ((),) + tuple(row[: n_max + 1] for row in full[1 : b_max + 1]))


def test_s_table_bounds_and_cache():
    table = build_s_table(3, 10, 30)
    rows = table[1]
    assert rows[0] == () and [len(row) for row in rows[1:]] == [11, 11, 11]
    assert build_s_table(3, 10, 30) == table
    with pytest.raises(ValueError):
        build_s_table(0, 5, 30)
    with pytest.raises(ValueError):
        build_s_table(2, -1, 30)


def test_quadrature_matches_golden_values():
    digits = 30
    for (a, b) in [(2, 1), (3, 2), (4, 3), (4, 4)]:
        want = to_mpf(evaluate_reduced(golden_data.reduced_combination(a, b), digits + 5))
        got = to_mpf(lz_quadrature(a, b, digits))
        with workdps(digits + 5):
            assert abs(got - want) < _tol(digits - 2), (a, b)
    with pytest.raises(ValueError):
        lz_quadrature(0, 1, digits)


def test_series_matches_golden_values():
    digits = 30
    for (a, b) in [(2, 1), (1, 1), (3, 3), (5, 2)]:
        want = to_mpf(evaluate_reduced(golden_data.reduced_combination(a, b), digits + 5))
        got = to_mpf(lz_series(a, b, digits))
        with workdps(digits + 5):
            assert abs(got - want) < _tol(digits - 2), (a, b)
    with pytest.raises(ValueError):
        lz_series(1, 0, digits)


def test_series_euler_identity():
    # Lz(1,2) summed as S_n^(1)/n^2 collapses onto zeta(3)
    digits = 30
    got = to_mpf(lz_series(1, 2, digits))
    with workdps(digits + 5):
        assert abs(got - to_mpf(zeta_value(3, digits))) < _tol(digits)


def test_orientation_sums_agree():
    # Lz(a,b) = Lz(b,a), from two different pairs of sums
    digits = 25
    with workdps(digits + 10):
        assert abs(to_mpf(lz_series(3, 2, digits)) - to_mpf(lz_series(2, 3, digits))) < _tol(20)


def test_orientation_sum_validation():
    with pytest.raises(ValueError):
        lz_series(0, 1, 20)


@pytest.mark.parametrize("digits", [6, 30, 60])
def test_series_matches_mpf_oracle_on_every_pair(digits, monkeypatch):
    # every ordered pair of weight <= 40: the fixed-point sums print the same
    # P+5 digits as the mpf sums, and the cut the float scan finds with its
    # 2^-30 margin is the one the oracle's scan of the mpf majorant finds
    real_cut = numerics._series_cut
    cuts = []

    def cut(*args):
        cuts.append(real_cut(*args))
        return cuts[-1]

    monkeypatch.setattr(numerics, "_series_cut", cut)
    carried = digits + 5
    for weight in range(2, 41):
        for a in range(1, weight):
            b = weight - a
            got = lz_series(a, b, carried)
            want, n_max = lz_series_mpf(a, b, carried)
            assert mp.nstr(to_mpf(got), carried) == mp.nstr(want, carried), (a, b)
            assert cuts[-1] == n_max, (a, b)


def test_series_budget_error(monkeypatch):
    monkeypatch.setattr(numerics, "SERIES_MAX_TERMS", 16)
    with pytest.raises(PrecisionBudgetError):
        lz_series(2, 2, 15)


def test_series_relative_accuracy_on_tiny_value():
    # |Lz(16,16)| ~ 2.4e-31: an absolute 1e-30 check would accept anything
    digits = 30
    got = to_mpf(lz_series(16, 16, digits))
    with workdps(90):
        want = mp.zero
        for coeff, pi_exp, mono in reduce_even(expand_lz(16, 16)).items():
            term = _mpf(coeff) * mp.pi**pi_exp
            for n, k in mono.factors:
                term *= mp.zeta(n) ** k
            want += term
        assert abs(want) < mp.mpf("1e-30")
        assert abs(got - want) / abs(want) < mp.mpf("1e-30")


def _node_fields(B, node):
    # (base weight, t, 1-t, log t, log(1-t)) rebuilt from an integer node,
    # where x = e^(-2u) = E 2^-(B+n)
    c, M, L, E, n = node
    x = mp.ldexp(E, -(B + n))
    return (
        mp.ldexp(c, -B) * x / (1 + x),
        1 / (1 + x),
        x / (1 + x),
        -mp.ldexp(M, -(B + n)),
        -mp.ldexp(L, -B),
    )


def test_nodes_match_the_seven_call_formula():
    # the nodes of tiers 0..6 at 21, 45 and 75 working digits, a few hundred
    # at 75, past the re-anchor of e^v at k = 64 and with x from 1 at the
    # centre to tiny at the ends: each of the five fields rebuilt from
    # (c, M, L, E, n) agrees with the sinh/cosh/exp/log1p form to relative
    # 10^-wdps
    for wdps in (21, 45, 75):
        vmax = numerics._vmax(wdps)
        for tier in range(7):
            B, nodes = numerics._tier_nodes(tier, wdps, vmax)
            step = 2 if tier else 1
            vs = [k / 2**tier for k in range(step - 1, int(vmax * 2**tier) + 1, step)]
            assert len(nodes) == len(vs), (wdps, tier)
            with workdps(wdps + 5):
                for v, node in zip(vs, nodes):
                    want = make_node_mpf(mp.mpf(v))
                    for got, wanted in zip(_node_fields(B, node), want):
                        assert abs(got - wanted) <= _tol(wdps) * abs(wanted), (wdps, tier, v)
        # the centre t = 1/2 is its own mirror, which lz_quadrature counts
        # once: x = 1 exactly, c = pi/2, and log t = log(1-t) = -log 2, each
        # floored
        B, nodes = numerics._tier_nodes(0, wdps, vmax)
        assert nodes[0] == (pi_fixed(B) >> 1, ln2_fixed(B), ln2_fixed(B), 1 << B, 0)
        with workdps(wdps + 5):
            assert _node_fields(B, nodes[0])[1:3] == (0.5, 0.5)


def test_quadrature_is_correctly_rounded_on_every_pair(monkeypatch):
    # every ordered pair of weight <= 16 at 11, 35 and 65 digits: the value is
    # the series value at P + 25 digits rounded to P digits, and refinement
    # stops at level 5 (6 at 65 digits).  The pairs of one precision share
    # their levels, built once here
    real_nodes = lru_cache(maxsize=None)(numerics._tier_nodes)
    tiers = []

    def nodes(tier, wdps, vmax):
        tiers.append(tier)
        return real_nodes(tier, wdps, vmax)

    monkeypatch.setattr(numerics, "_tier_nodes", nodes)
    for digits, level in [(11, 5), (35, 5), (65, 6)]:
        for weight in range(2, 17):
            for a in range(1, weight):
                tiers.clear()
                got = to_mpf(lz_quadrature(a, weight - a, digits))
                with workdps(digits):
                    want = +to_mpf(lz_series(a, weight - a, digits + 25))
                assert got == want, (a, weight - a, digits)
                assert max(tiers) == level, (a, weight - a, digits)


def test_one_verify_asks_no_zeta_value_or_level_twice(monkeypatch, run_cli):
    # why the numeric layer keeps no cache: each pass of the symbolic sum
    # reads zeta at its own working precision, each quadrature level is
    # built once, and the _vmax scan runs once per quadrature
    calls = []

    def counted(name):
        real = getattr(numerics, name)

        def wrapper(*args):
            calls.append((name, *args[:2]))
            return real(*args)

        monkeypatch.setattr(numerics, name, wrapper)

    for name in ("zeta_value", "_tier_nodes", "_vmax", "lz_quadrature"):
        counted(name)
    for a, b, digits in [(12, 12, 30), (3, 17, 30), (22, 2, 60)]:
        calls.clear()
        code, out, _ = run_cli("verify", str(a), str(b), "--digits", str(digits))
        assert code == 0 and out.endswith("PASS\n"), (a, b, digits)
        reads = [call for call in calls if call[0] in ("zeta_value", "_tier_nodes")]
        assert reads and len(set(reads)) == len(reads), (a, b, digits)
        counts = Counter(name for name, *_ in calls)
        assert counts["_vmax"] == counts["lz_quadrature"] == 1, (a, b, digits)


def test_quadrature_budget_error(monkeypatch):
    monkeypatch.setattr(numerics, "QUADRATURE_MAX_LEVEL", 3)
    with pytest.raises(PrecisionBudgetError):
        lz_quadrature(1, 1, 25)


def test_evaluate_reduced_constant_and_product():
    digits = 30
    with workdps(digits + 5):
        val = to_mpf(evaluate_reduced(golden_data.reduced_combination(1, 1), digits))
        assert abs(val + mp.pi**2 / 6) < _tol(digits - 2)
        prod = to_mpf(evaluate_reduced(golden_data.reduced_combination(6, 2), digits))
        want = to_mpf(zeta_value(3, digits)) * to_mpf(zeta_value(5, digits)) - mp.pi**8 / 7560
        assert abs(prod - want) < _tol(digits - 2)


def test_verification_report():
    report = verify_expansion(4, 3, 30)
    assert report.passed
    assert report.max_deviation < report.threshold
    assert list(report.values) == ["symbolic", "series", "quadrature"]
    with workdps(40):
        devs = [abs(to_mpf(x) - to_mpf(y)) for x, y in combinations(report.values.values(), 2)]
    assert len(devs) == 3 and max(devs) == to_mpf(report.max_deviation)


def test_verification_report_holds_only_the_routes_run():
    report = verify_expansion(4, 3, 30, method="series")
    assert set(report.values) == {"symbolic", "series"}
    assert report.passed


def _zeta_reference(a: int, b: int, digits: int):
    # Lz from its exact pi-reduced expansion with mpmath's own zeta, as the
    # benchmark's verify reference is built
    with workdps(digits):
        total = mp.zero
        for coeff, pi_exp, mono in reduce_even(expand_lz(a, b)).items():
            term = mp.mpf(coeff.numerator) / coeff.denominator * mp.pi**pi_exp
            for n, k in mono.factors:
                term *= mp.zeta(n) ** k
            total += term
        return total


# the symbolic sums cancel by 26, 28, 39 and 53 digits
@pytest.mark.parametrize("a, b, digits", [(12, 12, 30), (13, 12, 10), (16, 16, 30), (20, 20, 30)])
def test_verification_is_relative_under_cancellation(a, b, digits):
    report = verify_expansion(a, b, digits)
    assert report.passed
    symbolic = to_mpf(report.values["symbolic"])
    assert mp.nstr(symbolic, digits) == mp.nstr(to_mpf(report.values["series"]), digits)
    # the reference sum cancels as the symbolic one does, so it needs 53+ guard digits
    want = _zeta_reference(a, b, digits + 80)
    with workdps(digits + 80):
        assert abs(symbolic - want) < abs(want) * _tol(digits + 3)


@pytest.mark.parametrize("a, b", [(16, 16), (20, 20)])
def test_doubled_expansion_fails_at_tiny_values(a, b, monkeypatch, run_cli):
    # |Lz| is about 1e-31 and 1e-42, far below an absolute 10^-25
    monkeypatch.setattr(numerics, "reduce_even", lambda comb: reduce_even(comb).scale(2))
    assert not verify_expansion(a, b, 30).passed
    code, out, _ = run_cli("verify", str(a), str(b), "--digits", "30")
    assert code == 3 and out.endswith("FAIL\n")


def test_evaluate_reduced_empty_is_zero():
    assert evaluate_reduced(PiReducedCombination(9, {}), 30) == 0


def test_evaluate_reduced_exact_cancellation_exhausts_budget(monkeypatch):
    # with every zeta read as 1, z9 - z3^3 is exactly 0: no guard can fit it
    monkeypatch.setattr(numerics, "zeta_value", lambda s, precision: 1)
    comb = PiReducedCombination(9, {ZetaMonomial.parse("z9"): F(1), ZetaMonomial.parse("z3^3"): F(-1)})
    with pytest.raises(PrecisionBudgetError):
        evaluate_reduced(comb, 30)


def test_verification_rejects_vacuous_precision():
    # P-5 digits of slack must leave the threshold below the value's leading digit
    with pytest.raises(ValueError):
        verify_expansion(3, 3, 5)
    assert verify_expansion(2, 1, 6).passed


def test_verification_rejects_unknown_method():
    # an unknown name must not run quadrature under its own label
    with pytest.raises(ValueError):
        verify_expansion(4, 3, 30, method="serie")


# ---------------------------------------------------------------------------
# the integer pieces that stand in for mpmath, against mpmath


def test_constants_match_libmp():
    # each is the floor of the constant times 2^prec or one less.  libmp's
    # own may lie one below its floor too, so the floor is taken from 64
    # bits more
    for prec in range(1, 1200):
        assert dps_to_prec(prec) == numerics._prec(prec)
        for ours, ref in ((numerics._pi_fixed, pi_fixed), (numerics._ln2_fixed, ln2_fixed)):
            assert 0 <= (ref(prec + 64) >> 64) - ours(prec) <= 1, (prec, ours.__name__)


def _exp_floor(x: int, prec: int) -> int:
    return to_fixed(mpf_exp(from_man_exp(x, -prec), prec + 40, round_floor), prec)


def test_exp_within_two_units_on_the_tier_grid(monkeypatch):
    # low by under 2 units: the floor of e^x 2^prec or one less.  Every
    # working precision of the tier grid: the step ratio and the re-anchors
    # of each tier 0..7 up to vmax; at seven of them every argument
    # _tier_nodes passes, the reduced exponent of each x = e^-2u included
    for wdps in range(11, 91):
        vmax = numerics._vmax(wdps)
        W = numerics._prec(wdps + 5) + 60
        for tier in range(8):
            ks = [1] + list(range(64, int(vmax * 2**tier) + 1, 64))
            for k in ks:
                x = k << (W - tier)
                assert 0 <= _exp_floor(x, W) - numerics._exp_fixed(x, W) <= 1, (wdps, tier, k)
    calls = []
    real = numerics._exp_fixed

    def recorded(x, prec):
        calls.append((x, prec))
        return real(x, prec)

    monkeypatch.setattr(numerics, "_exp_fixed", recorded)
    for wdps in range(11, 91, 13):
        for tier in range(8):
            numerics._tier_nodes(tier, wdps, numerics._vmax(wdps))
    assert len(calls) > 4000
    assert all(0 <= _exp_floor(x, W) - real(x, W) <= 1 for x, W in calls)


# ---------------------------------------------------------------------------
# the printer and the verdict, against decimal and exact Fractions


def _as_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    value = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -value if sign else value


def _decimal(x: Fraction, digits: int) -> Decimal:
    """x rounded once to digits significant digits, half to even: decimal
    division is correctly rounded, and a Decimal made from an int is exact."""
    with localcontext(Context(prec=digits, rounding=ROUND_HALF_EVEN, Emin=-10**6, Emax=10**6)):
        return Decimal(x.numerator) / Decimal(x.denominator)


def _decimal_nstr(x: Fraction, n: int) -> str:
    # nstr's layout, read off decimal's digits and leading place
    d = _decimal(x, n)
    if not d:
        return "0.0"
    sign, digits, exp = d.as_tuple()
    place = d.adjusted()
    fixed = min(-(n // 3), -5) < place < n
    text = f"{Decimal((sign, digits, exp if fixed else exp - place)):f}"
    text = (text if "." in text else text + ".").rstrip("0")
    text += "0" if text.endswith(".") else ""
    return text if fixed else f"{text}e{place:+d}"


def test_nstr_is_correctly_rounded():
    # random binary floats whose leading digit falls in the fixed and in
    # both e forms, binary floats just below a power of ten, whose digits
    # carry through ...999 into the next place, and zero, for n = 6..60
    rng = random.Random(40)
    for n in range(6, 61):
        assert numerics.nstr(Fraction(0), n) == "0.0"
        for _ in range(40):
            bits = rng.randint(1, 4 * n)
            x = Fraction(rng.getrandbits(bits) | 1) * Fraction(2) ** rng.randint(-300, 200)
            x *= rng.choice((1, -1))
            assert numerics.nstr(x, n) == _decimal_nstr(x, n), (x, n)
        for e in range(-25, 25, 3):
            for nines in (n - 1, n, n + 1, n + 3):
                with workdps(n + 5):
                    y = mp.mpf(10) ** e * (1 - mp.mpf(10) ** -nines)
                x = _as_fraction(y)
                assert numerics.nstr(x, n) == _decimal_nstr(x, n), (x, n)
    # q/2^j for odd q and j >= 1 ends its decimal expansion in a 5: an
    # exact tie at one digit fewer than it has, printed half a unit off x
    # at the even neighbour
    assert numerics.nstr(Fraction(40216337, 256), 13) == "157095.0664062"
    ties = 0
    for _ in range(300):
        q, j = rng.getrandbits(rng.randint(1, 120)) | 1, rng.randint(1, 80)
        x, n = Fraction(q, 2**j), len(str(q * 5**j)) - 1
        if 1 <= n <= 60:
            printed = numerics.nstr(x, n)
            assert printed == _decimal_nstr(x, n), (x, n)
            place, p = _decimal(x, n + 1).adjusted(), Fraction(Decimal(printed))
            assert abs(p - x) == Fraction(10) ** (place + 1 - n) / 2, (x, n)
            assert p * Fraction(10) ** (n - 1 - place) % 2 == 0, (x, n)
            ties += 1
    assert ties > 100
    # far outside any binary float mpmath 1.3.0's nstr was checked on
    for n in (1, 6, 30):
        for x in (Fraction(10) ** 4000, -Fraction(1, 10**4000), Fraction(10**4000 - 1, 10**8000)):
            assert numerics.nstr(x, n) == _decimal_nstr(x, n), (x, n)
    assert numerics.nstr(Fraction(10) ** 4000, 6) == "1.0e+4000"
    assert numerics.nstr(-Fraction(1, 10**4000), 6) == "-1.0e-4000"


def test_nstr_refuses_fewer_than_one_digit():
    for n in (0, -2):
        with pytest.raises(ValueError):
            numerics.nstr(Fraction(12345, 100), n)
    assert numerics.nstr(Fraction(12345, 100), 1) == "1.0e+2"


def _verify_strata():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return [case for cases in module.VERIFY_STRATA for case in cases]


def _assert_judged_exactly(report, digits):
    # the exact rule from the same values: the largest deviation is the
    # exact max |x - y|, the threshold is 10^(floor(log10 top) - (P-5)) with
    # the floor read off an exact Decimal of top, the verdict is their
    # comparison, and every printed value is correctly rounded
    values = list(report.values.values())
    dev = max(abs(x - y) for x, y in combinations(values, 2))
    top = max(abs(x) for x in values)
    exact = _decimal(top, len(str(top.numerator)) + top.denominator.bit_length())
    assert Fraction(exact) == top
    threshold = Fraction(10) ** (exact.adjusted() - (digits - 5))
    assert report.max_deviation == dev
    assert report.threshold == threshold
    assert report.passed == (dev < threshold)
    for value in [*values, dev, threshold]:
        assert numerics.nstr(value, digits) == _decimal_nstr(value, digits)


def test_verify_reports_are_judged_exactly():
    # every verify the benchmark draws
    cases = _verify_strata()
    assert len(cases) == 33
    for a, b, digits in cases:
        _assert_judged_exactly(verify_expansion(a, b, digits), digits)


def _judge_made_up_values(monkeypatch) -> dict:
    values = {}
    monkeypatch.setattr(numerics, "evaluate_reduced", lambda comb, p: values["symbolic"])
    monkeypatch.setattr(numerics, "lz_series", lambda a, b, p: values["series"])
    monkeypatch.setattr(numerics, "lz_quadrature", lambda a, b, p: values["quadrature"])
    return values


def test_verify_judges_made_up_values_exactly(monkeypatch):
    # values of every magnitude 2^j through 1e-51 set every threshold place
    # at every P = 6..60.  The quadrature value, 2^40 times smaller than the
    # others and of the other sign, spans more bits from them than P+10
    # digits hold, so its deviations are exact only unrounded
    rng = random.Random(40)
    values = _judge_made_up_values(monkeypatch)
    for digits in range(6, 61):
        bits = numerics._prec(digits + 5)
        for j in range(-170, 1, 3):
            one = Fraction(2) ** j
            tiny = Fraction(rng.getrandbits(bits) | 1 << (bits - 1), 2**bits) * one / 2**40
            values.update(symbolic=one, series=one + one / 2**bits, quadrature=-tiny)
            _assert_judged_exactly(verify_expansion(2, 1, digits), digits)


def test_verdict_boundary_is_exact(monkeypatch):
    # a largest deviation of exactly 10^(e-(P-5)) fails, and one unit of
    # 2^-1024 less, far below any rounding at P+10 digits, passes; a largest
    # magnitude of exactly 10^e has place e, and one unit less place e-1
    values = _judge_made_up_values(monkeypatch)
    unit = Fraction(1, 2**1024)
    for digits in range(6, 61):
        for e in (-40, -7, -1, 0):
            for top, place in ((Fraction(10) ** e, e), (Fraction(10) ** e - unit, e - 1)):
                threshold = Fraction(10) ** (place - (digits - 5))
                for dev, passed in ((threshold, False), (threshold - unit, True)):
                    values.update(symbolic=top, series=top - dev, quadrature=top)
                    report = verify_expansion(2, 1, digits)
                    assert (report.max_deviation, report.threshold) == (dev, threshold)
                    assert report.passed is passed, (digits, e, top, dev)
