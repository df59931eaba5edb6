"""End-to-end acceptance checks.

Every test prints a single PASS/FAIL summary line directly to the
terminal (bypassing capture) and then asserts, so a plain pytest run
shows one line per criterion.
"""

from __future__ import annotations

import time
from fractions import Fraction

from mpmath import mp, workdps

import golden_data
from oracles import (
    big_c,
    bivariate_big_c,
    composition_profile,
    partition_counts,
    survey_record,
)
from zetalog.expansion import (
    PiReducedCombination,
    ZetaMonomial,
    expand_lz,
    reduce_even,
)
from zetalog.numerics import (
    lz_quadrature,
    lz_series,
    verify_expansion,
    zeta_value,
)
from zetalog.partitions import PartitionFilter, count_partitions, enumerate_partitions
from zetalog.solver import express, survey, verify_certificate

F = Fraction


def _report(capsys, num: int, ok: bool, text: str) -> None:
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, f"criterion {num}: {text}"


def _note(capsys, num: int, text: str) -> None:
    with capsys.disabled():
        print(f"[criterion {num:02d}] note  {text}")


def test_criterion_01_golden_closed_forms(capsys):
    started = time.monotonic()
    expected_pairs = {(1, 1)} | {
        (n - b, b) for n in range(3, 10) for b in range(1, n // 2 + 1)
    }
    assert set(golden_data.REDUCED) == expected_pairs
    assert len(expected_pairs) == 20
    bad = [
        (a, b)
        for (a, b) in sorted(golden_data.REDUCED)
        if reduce_even(expand_lz(a, b)) != golden_data.reduced_combination(a, b)
    ]
    # the three headline identities, spelled out
    assert reduce_even(expand_lz(4, 2)).items() == [
        (F(1, 2), 0, ZetaMonomial.parse("z3^2")),
        (F(-1, 1260), 6, ZetaMonomial.parse("1")),
    ]
    assert reduce_even(expand_lz(5, 3)).coefficient(
        ZetaMonomial.parse("z3*z5")
    ) == F(3)
    assert reduce_even(expand_lz(6, 3)).coefficient(
        ZetaMonomial.parse("z3^3")
    ) == F(1, 6)
    elapsed = time.monotonic() - started
    ok = not bad and elapsed < 5.0
    _report(
        capsys, 1, ok,
        f"20 closed forms through weight 9 reproduced exactly ({elapsed:.2f}s < 5s)",
    )


def test_criterion_02_symmetry(capsys):
    started = time.monotonic()
    bad = []
    for n in range(2, 15):
        for b in range(1, n // 2 + 1):
            if expand_lz(n - b, b) != expand_lz(b, n - b):
                bad.append((n - b, b))
    elapsed = time.monotonic() - started
    ok = not bad and elapsed < 30.0
    _report(
        capsys, 2, ok,
        f"expand_lz(a,b) == expand_lz(b,a) for all a+b <= 14 ({elapsed:.2f}s < 30s)",
    )


def test_criterion_03_coefficient_oracle(capsys):
    started = time.monotonic()
    mismatch = 0
    for n in range(1, 11):
        for x in enumerate_partitions(n):
            for b in range(n + 1):
                if big_c(x, b) != bivariate_big_c(x.support, b):
                    mismatch += 1
    rowsum_bad = 0
    for n in range(1, 13):
        for x in enumerate_partitions(n):
            expected = 1
            for size, mult in x.support:
                expected *= (2**size - 2) ** mult
            if sum(composition_profile(x)) != expected:
                rowsum_bad += 1
    elapsed = time.monotonic() - started
    ok = mismatch == 0 and rowsum_bad == 0 and elapsed < 30.0
    _report(
        capsys, 3, ok,
        "big_c matches the bivariate expansion (weight <= 10) and the row-sum "
        f"identity (weight <= 12) ({elapsed:.2f}s < 30s)",
    )


def test_criterion_04_numeric_cross_validation(capsys):
    started = time.monotonic()
    digits = 50
    worst = None
    bad = []
    with workdps(digits + 10):
        limit = mp.mpf(10) ** -30
        for n in range(2, 9):
            for b in range(1, n // 2 + 1):
                report = verify_expansion(n - b, b, digits)
                symbolic = report.values["symbolic"]
                top = max(abs(report.values[r] - symbolic) for r in ("series", "quadrature"))
                if worst is None or top > worst:
                    worst = top
                if top >= limit:
                    bad.append((n - b, b))
    elapsed = time.monotonic() - started
    ok = not bad and elapsed < 60.0
    _report(
        capsys, 4, ok,
        f"series and quadrature track the symbolic value below 1e-30 for all "
        f"a+b <= 8 at 50 digits (worst {mp.nstr(worst, 3)}, {elapsed:.1f}s < 60s)",
    )


def test_criterion_05_euler_identity(capsys):
    with workdps(45):
        diff = abs(lz_series(1, 2, 30) - zeta_value(3, 30))
        ok = diff < mp.mpf(10) ** -30
    _report(
        capsys, 5, ok,
        f"series route for Lz(1,2) reproduces zeta(3) to 30 digits "
        f"(|diff| = {mp.nstr(diff, 3)})",
    )


def test_criterion_06_certificates(capsys):
    started = time.monotonic()
    checks = []

    cert = express(ZetaMonomial.parse("z3")).certificate
    checks.append(cert.lz_terms == {(2, 1): F(1)} and len(cert.known_remainder) == 0)
    checks.append(verify_certificate(cert))

    cert = express(ZetaMonomial.parse("z3*z5")).certificate
    checks.append(cert.lz_terms == {(6, 2): F(1)})
    checks.append(
        cert.known_remainder.items() == [(F(1, 7560), 8, ZetaMonomial.parse("1"))]
    )
    checks.append(verify_certificate(cert))

    cert = express(ZetaMonomial.parse("z3^2")).certificate
    checks.append(cert.lz_terms == {(4, 2): F(2)})
    checks.append(verify_certificate(cert))

    # pi^2 zeta(5): ten-fold rescaling of (3/5) zeta(2) zeta(5) = Lz(6,1) + Lz(5,2) - (4/5) Lz(4,3)
    cert5 = express(ZetaMonomial.parse("z5"), mode="strict", weight=7).certificate
    checks.append(cert5.lz_terms == {(6, 1): F(10), (5, 2): F(10), (4, 3): F(-8)})
    checks.append(verify_certificate(cert5))

    # pi^4 zeta(3): 120-fold rescaling of (3/4) zeta(4) zeta(3) = Lz(6,1) - 2 Lz(5,2) + Lz(4,3)
    cert3 = express(ZetaMonomial.parse("z3"), mode="strict", weight=7).certificate
    checks.append(cert3.lz_terms == {(6, 1): F(120), (5, 2): F(-240), (4, 3): F(120)})
    checks.append(verify_certificate(cert3))

    # independent numeric confirmation of the weight-7 identity
    digits = 30
    with workdps(digits + 10):
        lhs = mp.pi**2 * zeta_value(5, digits)
        rhs = (
            10 * lz_quadrature(6, 1, digits)
            + 10 * lz_quadrature(5, 2, digits)
            - 8 * lz_quadrature(4, 3, digits)
        )
        checks.append(abs(lhs - rhs) < mp.mpf(10) ** -(digits - 5))

    elapsed = time.monotonic() - started
    ok = all(checks) and elapsed < 10.0
    _report(
        capsys, 6, ok,
        f"five substitution-validated certificates, matching the classical "
        f"weight-5/7/8 identities up to rescaling ({elapsed:.2f}s < 10s)",
    )


def test_criterion_07_even_branch_erratum(capsys):
    reduced = reduce_even(expand_lz(2, 2))
    quarter = PiReducedCombination(
        4, {ZetaMonomial.parse("1"): F(-1, 360)}
    )
    full = PiReducedCombination(
        4, {ZetaMonomial.parse("1"): F(-1, 90)}
    )
    digits = 25
    with workdps(digits + 10):
        want = -mp.pi**4 / 360
        tol = mp.mpf(10) ** -digits
        series_ok = abs(lz_series(2, 2, digits) - want) < tol
        quad_ok = abs(lz_quadrature(2, 2, digits) - want) < tol
    ok = reduced == quarter and reduced != full and series_ok and quad_ok
    _report(
        capsys, 7, ok,
        "Lz(2,2) reduces to -zeta(4)/4 = -pi^4/360 (both numeric routes agree "
        "to 25 digits), never to the even-branch value -zeta(4)",
    )


def test_criterion_08_desk_scale_survey(capsys):
    started = time.monotonic()
    report = survey(3, 30)
    elapsed = time.monotonic() - started

    odd_filter = PartitionFilter(min_part=3, parity="odd")
    nonempty = all(
        len(survey_record(report, n).inexpressible) > 0 for n in range(21, 31)
    )
    counting_ok = True
    for rec in report.records:
        n = rec.weight
        po3 = count_partitions(n, odd_filter)
        if n % 2:
            m = (n - 1) // 2
            if rec.counting_equations != m - 2 or rec.counting_unknowns != po3 - 1:
                counting_ok = False
            if m > 9 and not rec.counting_deficient:
                counting_ok = False
        else:
            m = n // 2
            if rec.counting_equations != m - 1 or rec.counting_unknowns != po3:
                counting_ok = False
            if m > 10 and not rec.counting_deficient:
                counting_ok = False

    ok = nonempty and counting_ok and elapsed < 120.0
    _report(
        capsys, 8, ok,
        f"survey of weights 3..30 in {elapsed:.1f}s (< 120s): inexpressible "
        "monomials at every weight in [21,30]; counting columns match the "
        "partition module with the expected deficiencies",
    )
    first_rank = next(
        (r.weight for r in report.records if r.rank_deficient), None
    )
    first_count = next(
        (r.weight for r in report.records if r.counting_deficient and r.weight >= 6),
        None,
    )
    split = [
        r.weight for r in report.records if r.rank_deficient != r.counting_deficient
    ]
    _note(
        capsys, 8,
        f"threshold check (informational): rank deficiency first appears at "
        f"weight {first_rank}, counting deficiency (weights >= 6) at "
        f"{first_count}; verdicts diverge at {split or 'no weight'}; the "
        f"claimed onset bound is 20",
    )


def test_criterion_09_partition_counts(capsys):
    started = time.monotonic()
    p = partition_counts(40)
    flt = PartitionFilter(min_part=2)
    bad = [
        n for n in range(1, 41) if count_partitions(n, flt) != p[n] - p[n - 1]
    ]
    ok = not bad and count_partitions(10) == 42 and p[10] == 42
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 5.0
    _report(
        capsys, 9, ok,
        f"|P2(N)| = p(N) - p(N-1) for N <= 40 against the pentagonal oracle; "
        f"p(10) = 42 ({elapsed:.2f}s < 5s)",
    )


def test_criterion_10_series_symmetry(capsys):
    started = time.monotonic()
    worst = None

    with workdps(40):
        limit = mp.mpf(10) ** -20
        ok = True
        for a, b in [(1, 2), (2, 3), (2, 4)]:
            diff = abs(lz_series(a, b, 25) - lz_series(b, a, 25))
            if worst is None or diff > worst:
                worst = diff
            if diff >= limit:
                ok = False
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 20.0
    _report(
        capsys, 10, ok,
        f"series agree across orientation, Lz(a,b) = Lz(b,a), for (1,2), (2,3), "
        f"(2,4) below 1e-20 (worst {mp.nstr(worst, 3)}, {elapsed:.1f}s < 20s)",
    )
