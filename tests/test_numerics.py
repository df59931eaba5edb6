from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import mpmath
import pytest
from mpmath import mp, workdps
from mpmath.libmp import dps_to_prec, ln2_fixed, pi_fixed

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
from oracles import elementary_reciprocals, lz_series_mpf, make_node_mpf, s_composition_sum

F = Fraction


def _tol(digits: int):
    return mp.mpf(10) ** (-digits)


def test_zeta_matches_reference_library():
    # correctly rounded through weight 40 at every P = 16..80: verify asks
    # for P+15 = 21..75 digits and audit_certificate for 40, so this pins the
    # printed digits of both
    with workdps(100):
        refs = {s: mpmath.zeta(s) for s in range(2, 41)}
    for digits in range(16, 81):
        with workdps(digits):
            for s, ref in refs.items():
                assert zeta_value(s, digits) == +ref, (digits, s)


def test_zeta_high_precision():
    with workdps(65):
        assert abs(zeta_value(2, 60) - mp.pi**2 / 6) < _tol(60)


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
    assert abs(zeta_value(3, 1) - mpmath.zeta(3)) < _tol(1)
    assert abs(lz_series(3, 3, 1) - lz_quadrature(3, 3, 1)) < _tol(1)


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
        want = evaluate_reduced(golden_data.reduced_combination(a, b), digits + 5)
        got = lz_quadrature(a, b, digits)
        with workdps(digits + 5):
            assert abs(got - want) < _tol(digits - 2), (a, b)
    with pytest.raises(ValueError):
        lz_quadrature(0, 1, digits)


def test_series_matches_golden_values():
    digits = 30
    for (a, b) in [(2, 1), (1, 1), (3, 3), (5, 2)]:
        want = evaluate_reduced(golden_data.reduced_combination(a, b), digits + 5)
        got = lz_series(a, b, digits)
        with workdps(digits + 5):
            assert abs(got - want) < _tol(digits - 2), (a, b)
    with pytest.raises(ValueError):
        lz_series(1, 0, digits)


def test_series_euler_identity():
    # Lz(1,2) summed as S_n^(1)/n^2 collapses onto zeta(3)
    digits = 30
    got = lz_series(1, 2, digits)
    with workdps(digits + 5):
        assert abs(got - zeta_value(3, digits)) < _tol(digits)


def test_orientation_sums_agree():
    # Lz(a,b) = Lz(b,a), from two different pairs of sums
    digits = 25
    with workdps(digits + 10):
        assert abs(lz_series(3, 2, digits) - lz_series(2, 3, digits)) < _tol(20)


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
            assert mp.nstr(got, carried) == mp.nstr(want, carried), (a, b)
            assert cuts[-1] == n_max, (a, b)


def test_series_budget_error(monkeypatch):
    monkeypatch.setattr(numerics, "SERIES_MAX_TERMS", 16)
    with pytest.raises(PrecisionBudgetError):
        lz_series(2, 2, 15)


def test_series_relative_accuracy_on_tiny_value():
    # |Lz(16,16)| ~ 2.4e-31: an absolute 1e-30 check would accept anything
    digits = 30
    got = lz_series(16, 16, digits)
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
                got = lz_quadrature(a, weight - a, digits)
                with workdps(digits):
                    want = +lz_series(a, weight - a, digits + 25)
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
        val = evaluate_reduced(golden_data.reduced_combination(1, 1), digits)
        assert abs(val + mp.pi**2 / 6) < _tol(digits - 2)
        prod = evaluate_reduced(golden_data.reduced_combination(6, 2), digits)
        want = zeta_value(3, digits) * zeta_value(5, digits) - mp.pi**8 / 7560
        assert abs(prod - want) < _tol(digits - 2)


def test_verification_report():
    report = verify_expansion(4, 3, 30)
    assert report.passed
    assert report.max_deviation < report.threshold
    assert list(report.values) == ["symbolic", "series", "quadrature"]
    with workdps(40):
        devs = [abs(x - y) for x, y in combinations(report.values.values(), 2)]
    assert len(devs) == 3 and max(devs) == report.max_deviation


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
    symbolic = report.values["symbolic"]
    assert mp.nstr(symbolic, digits) == mp.nstr(report.values["series"], digits)
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
