from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from mpmath import mp, workdps

from oracles import (
    _even_kernel as recurrence_kernel,
    _poly_mul,
    column_by_convolution,
    composition_profile,
    e_to_xy,
    expansion_system,
    odd_monomials,
    power_sum_product_on_line,
    power_sum_xy,
    power_sums_e,
    row_coefficients,
    survey_record,
)
from zetalog.coefficients import little_c
from zetalog.exact import RationalMatrix, rref, zeta_even_pi_coeff
from zetalog.expansion import (
    UNIT_MONOMIAL,
    PiReducedCombination,
    ZetaMonomial,
    expand_lz,
    reduce_even,
)
from zetalog import coefficients, expansion, numerics, solver
from zetalog.numerics import (
    audit_certificate,
    evaluate_reduced,
    lz_quadrature,
    lz_series,
    zeta_value,
)
from zetalog.partitions import (
    PartitionElement,
    PartitionFilter,
    count_partitions,
    enumerate_partitions,
)
from zetalog.solver import (
    MODES,
    Certificate,
    _solve,
    build_system,
    express,
    survey,
    verify_certificate,
)

F = Fraction


def mono(text: str) -> ZetaMonomial:
    return ZetaMonomial.parse(text)


def test_odd_monomials_enumeration():
    assert [str(m) for m in odd_monomials(3)] == ["z3"]
    assert [str(m) for m in odd_monomials(4)] == []
    assert [str(m) for m in odd_monomials(9)] == ["z3^3", "z9"]
    assert [str(m) for m in odd_monomials(12)] == ["z3*z9", "z3^4", "z5*z7"]


def test_system_shapes():
    shapes = {
        3: (["z3"], [(2, 1)]),
        5: (["z5"], [(4, 1), (3, 2)]),
        7: (["z7"], [(6, 1), (5, 2), (4, 3)]),
        9: (["z3^3", "z9"], [(8, 1), (7, 2), (6, 3), (5, 4)]),
        10: (["z3*z7", "z5^2"], [(8, 2), (7, 3), (6, 4), (5, 5)]),
    }
    for n, (cols, pairs) in shapes.items():
        system = build_system(n)
        assert [str(c) for c in system.columns] == cols
        assert list(system.pairs) == pairs
        assert system.matrix().rows == len(pairs)
        assert system.matrix().cols == len(cols)


def test_system_even_weight_without_odd_monomials():
    system = build_system(4)
    assert system.columns == () and system.pairs == () and system.rows == ()


def test_strict_mode_appends_lower_weights():
    system = build_system(9, "strict")
    assert [str(c) for c in system.columns] == ["z3^3", "z9", "z7", "z5", "z3"]
    assert build_system(6, "strict").columns == build_system(6).columns


def test_system_known_parts_stay_off_columns():
    # a row is the whole column part of its pair's reduced expansion, so what
    # the pair leaves for a certificate's remainder lies off the columns
    for n, mode in ((9, "optimistic"), (12, "optimistic"), (12, "strict")):
        system = build_system(n, mode)
        colset = set(system.columns)
        for pair, coeffs in zip(system.pairs, row_coefficients(system)):
            on_columns = PiReducedCombination(n, dict(zip(system.columns, coeffs)))
            known = reduce_even(expand_lz(*pair)) + on_columns.scale(-1)
            assert not colset & set(known.terms), (n, mode, pair)


def test_full_weight_coefficient_is_little_c():
    # no even part can join a weight-N odd monomial m, so its reduced
    # coefficient in Lz(N-b, b) is c_b of its own odd partition
    checked = 0
    for n in range(3, 25):
        for b in range(1, n):
            red = reduce_even(expand_lz(n - b, b))
            for m in odd_monomials(n):
                assert red.coefficient(m) == little_c(PartitionElement(n, m.factors), b), (n, b, m)
                checked += 1
    assert checked == 2167


def test_build_system_matches_expansion_builder():
    def same(n, mode, ensure=()):
        system = build_system(n, mode, ensure)
        columns, rows = expansion_system(n, mode, ensure)
        assert [m.factors for m in system.columns] == columns, (n, mode, ensure)
        got = list(zip(system.pairs, row_coefficients(system)))
        assert got == [(pair, coeffs) for pair, coeffs, _ in rows], (n, mode, ensure)

    for n in range(3, 25):
        same(n, "optimistic")
        # a raised-weight target brings a lower-weight column into an
        # optimistic system
        for m in odd_monomials(n - 2):
            same(n, "optimistic", (m,))
    # strict lower-weight columns come from the convolution with phi
    for n in range(3, 29):
        same(n, "strict")


def test_even_kernel_matches_recurrence_oracle():
    # phi_d read from the partition engine against the Phi recurrence, which
    # never reads a c_b, through d = 38, past every kernel the weight cap of
    # 40 reaches; j > d/2 checks the mirror phi_d[j] = phi_d[d - j].  The
    # interior is negative: evidence for README's conjectured sign of phi_d,
    # which no computation relies on
    for d in range(2, 39, 2):
        phi, den = solver._even_kernel(d)
        assert len(phi) == d + 1
        for j in range(d + 1):
            assert F(phi[j], den) == recurrence_kernel(d).get((d - j, j), 0), (d, j)
            assert phi[j] == phi[d - j]
        assert phi[0] == phi[d] == 0
        assert max(phi[1:-1]) < 0, d


def test_column_product_matches_convolution():
    # pins the slot width of _column's one int product, and its closed-form
    # C_x and Ct against the partition records the convolution reads: the
    # monomial of every odd partition x against every weight N <= 40 its
    # column can appear at
    checked = 0
    for w in range(3, 41):
        for x in enumerate_partitions(w, PartitionFilter(min_part=3, parity="odd")):
            for N in range(w, 41, 2):
                got = solver._column(ZetaMonomial.from_partition(x), N)
                assert got == column_by_convolution(x, N), (x, N)
                checked += 1
    assert checked == 4623


def test_column_reads_a_mixed_sign_kernel(monkeypatch):
    # _column's slots are balanced, so no column rests on the sign of phi_d:
    # a kernel of alternating signs, symmetric with zero ends as the
    # convolution reads it, gives the convolution's column for every odd
    # partition x and weight N <= 24 its column can appear at
    def mixed(d):
        if d == 0:
            return (1,), 1
        half = [(-1) ** j * (3 * j + 1) for j in range(1, d // 2 + 1)]
        return (0, *half, *reversed(half[: (d - 1) // 2]), 0), 5

    monkeypatch.setattr(solver, "_even_kernel", mixed)
    checked = 0
    for w in range(3, 25):
        for x in enumerate_partitions(w, PartitionFilter(min_part=3, parity="odd")):
            for N in range(w, 25, 2):
                got = solver._column(ZetaMonomial.from_partition(x), N)
                assert got == column_by_convolution(x, N), (x, N)
                checked += 1
    assert checked == 401


def test_build_system_reads_no_vanishing_little_c(monkeypatch):
    # columns read no partition record, so never little_c; only the pairs
    # behind a strict survey's even kernels do, and expand_lz asks for no c_b
    # that vanishes
    returned = []

    def recording(x, b):
        returned.append(little_c(x, b))
        return returned[-1]

    monkeypatch.setattr(expansion, "little_c", recording)
    for mode in MODES:
        returned.clear()
        expand_lz.cache_clear()
        solver._even_kernel.cache_clear()
        survey(3, 20, mode)
        if mode == "optimistic":
            assert returned == []
        else:
            assert returned and all(returned)


def test_optimistic_survey_expands_no_pair():
    expand_lz.cache_clear()
    survey(3, 24)
    assert expand_lz.cache_info().misses == 0
    system = build_system(12)
    assert expand_lz.cache_info().misses == 0
    assert system.pairs[0] == (10, 2)
    red = reduce_even(expand_lz(10, 2)).terms
    known = PiReducedCombination(12, {m: c for m, c in red.items() if m not in system.columns})
    assert known.text() == "-(691/283783500)*pi^12"
    assert expand_lz.cache_info().misses == 1


def test_strict_survey_expands_only_even_kernel_pairs():
    # a strict column of weight w < N reads phi_(N - w), built once per even
    # d from the pairs (d - j, j) with j <= d/2; no row expands its own pair
    solver._even_kernel.cache_clear()
    expand_lz.cache_clear()
    survey(3, 24, "strict")
    pairs = [(d - j, j) for d in range(2, 21, 2) for j in range(1, d // 2 + 1)]
    assert expand_lz.cache_info().misses == len(pairs) == 55
    for pair in pairs:
        expand_lz(*pair)
    assert expand_lz.cache_info().misses == len(pairs)


def test_build_system_validation():
    with pytest.raises(ValueError):
        build_system(2)
    with pytest.raises(ValueError):
        build_system(9, "greedy")
    with pytest.raises(ValueError):
        build_system(9, ensure=(mono("z4"),))
    with pytest.raises(ValueError):
        build_system(9, ensure=(mono("z3^2"),))  # parity gap


def test_express_apery_constant():
    out = express(mono("z3"))
    assert out.status == "expressible" and out.weight == 3
    cert = out.certificate
    assert cert.lz_terms == {(2, 1): F(1)}
    assert len(cert.known_remainder) == 0
    assert cert.target_pi_exponent == 0
    assert verify_certificate(cert)


def test_express_product_certificates():
    out = express(mono("z3*z5"))
    cert = out.certificate
    assert cert.lz_terms == {(6, 2): F(1)}
    assert cert.known_remainder.items() == [(F(1, 7560), 8, mono("1"))]

    out = express(mono("z3^2"))
    cert = out.certificate
    assert cert.lz_terms == {(4, 2): F(2)}
    assert cert.known_remainder.items() == [(F(1, 630), 6, mono("1"))]


def test_express_weight_seven_strict_identities():
    out5 = express(mono("z5"), mode="strict", weight=7)
    assert out5.status == "expressible"
    assert out5.certificate.lz_terms == {
        (6, 1): F(10),
        (5, 2): F(10),
        (4, 3): F(-8),
    }
    assert len(out5.certificate.known_remainder) == 0
    assert out5.certificate.target_pi_exponent == 2

    out3 = express(mono("z3"), mode="strict", weight=7)
    assert out3.certificate.lz_terms == {
        (6, 1): F(120),
        (5, 2): F(-240),
        (4, 3): F(120),
    }
    assert out3.certificate.target_pi_exponent == 4


def test_express_apery_form_at_weight_five():
    # pi^2 z3 = 12 Lz(4,1) - 6 Lz(3,2)
    out = express(mono("z3"), weight=5)
    assert out.certificate.lz_terms == {(4, 1): F(12), (3, 2): F(-6)}
    assert len(out.certificate.known_remainder) == 0


def test_express_resolves_remainder_dependencies():
    out = express(mono("z3^3"))
    assert out.status == "expressible"
    deps = {str(m) for m in out.certificate.dependencies()}
    assert deps == {"z3", "z5", "z7"}
    assert verify_certificate(out.certificate)


def test_express_strict_falls_back_to_lower_certificates():
    out = express(mono("z5"), mode="strict", weight=9)
    assert out.status == "expressible"
    assert "lower-weight certificates" in out.detail
    assert out.certificate.lz_terms == {(8, 1): F(360), (7, 2): F(-90)}


def test_strict_certificates_have_no_dependencies():
    # strict columns hold every odd monomial of weight = N (mod 2), so nothing
    # but the pi power is left over; express relies on this to ask for
    # optimistic answers only when it resolves dependencies
    solved = 0
    for w in range(3, 15):
        for m in odd_monomials(w):
            for N in (w, w + 2):
                cert = _solve(m, N, "strict")
                if cert is not None:
                    assert cert.dependencies() == [], (m, N)
                    solved += 1
    assert solved == 12


def test_express_not_expressible():
    for text in ("z3*z7", "z5^2"):
        out = express(mono(text))
        assert out.status == "not_expressible"
        assert out.certificate is None


def test_express_unresolved_dependency():
    out = express(mono("z3^2"), weight=12)
    assert out.status == "unresolved_dependency"
    assert out.certificate is not None
    names = {str(m) for m in out.certificate.dependencies()}
    assert {"z3*z7", "z5^2"} <= names
    assert "z3*z7" in out.detail


def test_express_validation():
    with pytest.raises(ValueError):
        express(mono("z4"))
    with pytest.raises(ValueError):
        express(mono("1"))
    with pytest.raises(ValueError):
        express(mono("z5"), weight=8)  # parity gap
    with pytest.raises(ValueError):
        express(mono("z5"), weight=3)
    with pytest.raises(ValueError):
        express(mono("z3"), mode="eager")


def test_certificate_substitution_rejects_tampering():
    cert = express(mono("z3*z5")).certificate
    bad = Certificate(
        cert.target,
        cert.weight,
        {(6, 2): F(2)},
        cert.known_remainder,
    )
    assert not verify_certificate(bad)


def test_certificate_payload():
    payload = express(mono("z3^2")).certificate.to_payload()
    assert payload == {
        "target": "z3^2",
        "weight": 6,
        "lz": [{"a": 4, "b": 2, "coeff": "2", "pi": 0}],
        "known": [{"mono": "1", "coeff": "1/630", "pi": 6}],
    }


def test_certificate_numeric_substitution():
    digits = 30
    cert = express(mono("z3*z5")).certificate
    with workdps(digits + 10):
        lhs = zeta_value(3, digits) * zeta_value(5, digits)
        rhs = mp.zero
        for (a, b), c in cert.lz_terms.items():
            rhs += mp.mpf(c.numerator) / c.denominator * lz_quadrature(a, b, digits)
        rhs += evaluate_reduced(cert.known_remainder, digits)
        assert abs(lhs - rhs) < mp.mpf(10) ** (-(digits - 3))


def _failed_audits(max_weight: int) -> list[tuple[str, str]]:
    """(mode, certificate) for every certificate of weight <= max_weight, in
    both modes and at the target's own and each raised weight, whose two
    sides differ by more than relative 10^-28 at 30 digits."""
    # express returns the certificate of one of these solves, or none
    failed = []
    for weight in range(3, max_weight + 1):
        for target in (m for w in range(weight, 2, -2) for m in odd_monomials(w)):
            for mode in MODES:
                cert = _solve(target, weight, mode)
                if cert is not None and audit_certificate(cert) > mp.mpf("1e-28"):
                    failed.append((mode, cert.text()))
    return failed


def _memoized_series(monkeypatch):
    # the certificates of one weight share their pairs
    monkeypatch.setattr(numerics, "lz_series", lru_cache(maxsize=512)(numerics.lz_series))


def test_every_certificate_passes_the_numeric_audit(monkeypatch):
    _memoized_series(monkeypatch)
    assert _failed_audits(24) == []


def test_certificate_remainders_sum_the_oracle_known_parts():
    # _solve drops the column terms once, from the whole sum; the oracle
    # drops them from each pair's reduced expansion, before summing.  Every
    # certificate through weight 24, in both modes and at raised weights
    @lru_cache(maxsize=None)
    def known_parts(n, mode, ensure):
        return {pair: known for pair, _, known in expansion_system(n, mode, ensure)[1]}

    nonzero = []  # per certificate, whether its remainder has a term
    for weight in range(3, 25):
        for target in (m for w in range(weight, 2, -2) for m in odd_monomials(w)):
            for mode in MODES:
                cert = _solve(target, weight, mode)
                if cert is None:
                    continue
                columns = build_system(weight, mode).columns
                # ensuring a target already among the columns changes no row
                ensure = () if target in columns else (target,)
                remainder = cert.known_remainder.terms
                assert not set(remainder) & {*columns, target}, (mode, cert.text())
                want = Counter()
                for pair, lam in cert.lz_terms.items():
                    for factors, c in known_parts(weight, mode, ensure)[pair].items():
                        want[factors] -= lam * c
                got = {m.factors: c for m, c in remainder.items()}
                assert got == {f: c for f, c in want.items() if c}, (mode, cert.text())
                nonzero.append(bool(got))
    assert (len(nonzero), sum(nonzero)) == (314, 288)


@pytest.fixture
def six_two_tripled(monkeypatch):
    """little_c tripled on the partition 6+2, as the expansion reads it, with
    the caches that hold its values cleared around.  The optimistic weight-8
    system never reads 6+2, whose odd part is the unit."""
    six_two = PartitionElement.from_parts([6, 2])

    def tripled(x, b):
        value = little_c(x, b)
        return 3 * value if x == six_two else value

    monkeypatch.setattr(expansion, "little_c", tripled)
    caches = (
        expand_lz.cache_clear,
        solver._even_kernel.cache_clear,
        solver._expressible_members.cache_clear,
    )
    for clear in caches:
        clear()
    yield
    monkeypatch.undo()
    for clear in caches:
        clear()


def test_numeric_audit_catches_a_wrong_even_partition_coefficient(six_two_tripled, monkeypatch):
    # the substitution check reads the same wrong value on both sides and
    # accepts the certificate; the audit evaluates Lz(6,2) by its series
    cert = express(mono("z3*z5")).certificate
    assert cert.text() == "z3*z5 = Lz(6,2) - (1/4536)*pi^8"
    assert verify_certificate(cert)
    assert audit_certificate(cert) > 1
    _memoized_series(monkeypatch)
    assert ("optimistic", cert.text()) in _failed_audits(8)


def test_substitution_catches_a_wrong_odd_partition_coefficient(monkeypatch):
    # the columns read no partition record, so a wrong little_c reaches only
    # the expansion that the substitution check reads
    five_three = PartitionElement.from_parts([5, 3])

    def wrong(x, b):
        value = little_c(x, b)
        return value + 1 if x == five_three else value

    for module in (coefficients, expansion, solver):
        if hasattr(module, "little_c"):
            monkeypatch.setattr(module, "little_c", wrong)
    caches = (expand_lz, solver._even_kernel, solver._expressible_members)
    for cache in caches:
        cache.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="substitution check"):
            express(mono("z3*z5"))
    finally:
        monkeypatch.undo()
        for cache in caches:
            cache.cache_clear()


def test_substitution_catches_a_wrong_odd_partition_record(five_three_record_halved):
    # were the columns built from the same record, the solve would absorb
    # the error and the check would pass
    with pytest.raises(solver.CertificateCheckError, match="substitution check"):
        express(mono("z3*z5"))


def test_express_matches_the_per_dependency_path(monkeypatch):
    # _expressible_members solves only the members of a weight's row space;
    # a stub that asks express for every odd monomial of the weight gives the
    # same sets, and the same outcome for every odd monomial through weight
    # 20, at its own weight and raised by 2, in both modes
    def outcomes():
        return {
            (m, N, mode): express(m, mode, N)
            for w in range(3, 21)
            for m in odd_monomials(w)
            for N in (w, w + 2)
            for mode in MODES
        }

    solver._expressible_members.cache_clear()
    fast = outcomes()
    asked: dict[int, frozenset[ZetaMonomial]] = {}

    def every_monomial(w):
        if w not in asked:
            asked[w] = frozenset(m for m in odd_monomials(w) if express(m).status == "expressible")
        return asked[w]

    monkeypatch.setattr(solver, "_expressible_members", every_monomial)
    assert outcomes() == fast
    monkeypatch.undo()
    counts = Counter(out.status for out in fast.values())
    assert counts == {"expressible": 52, "not_expressible": 100, "unresolved_dependency": 100}
    assert asked == {w: solver._expressible_members(w) for w in asked}
    # some weight holds an odd monomial outside its set: the stub solved for
    # more than the row space lets through
    assert any(len(asked[w]) < len(odd_monomials(w)) for w in asked)


def test_verify_certificate_rejects_terms_off_the_weight():
    cert = express(mono("z3*z5")).certificate
    assert not verify_certificate(cert._replace(lz_terms={(5, 2): F(1)}))
    assert not verify_certificate(cert._replace(known_remainder=PiReducedCombination(10, {})))
    assert not verify_certificate(cert._replace(weight=10))


def test_survey_small_weights():
    report = survey(3, 12)
    assert report.mode == "optimistic"
    for n in range(3, 10):
        rec = survey_record(report, n)
        assert rec.inexpressible == ()
        assert rec.rank == rec.unknowns
        assert not rec.rank_deficient
    rec = survey_record(report, 10)
    assert [str(m) for m in rec.expressible] == []
    assert [str(m) for m in rec.inexpressible] == ["z3*z7", "z5^2"]
    assert (rec.equations, rec.unknowns, rec.rank) == (4, 2, 1)
    assert rec.rank_deficient
    rec = survey_record(report, 12)
    assert [str(m) for m in rec.inexpressible] == ["z3*z9", "z3^4", "z5*z7"]
    assert rec.rank == 2


def test_survey_counting_columns_match_partition_module():
    report = survey(3, 24)
    odd_filter = PartitionFilter(min_part=3, parity="odd")
    for rec in report.records:
        n = rec.weight
        po3 = count_partitions(n, odd_filter)
        if n % 2:
            assert rec.counting_equations == (n - 1) // 2 - 2
            assert rec.counting_unknowns == po3 - 1
        else:
            assert rec.counting_equations == n // 2 - 1
            assert rec.counting_unknowns == po3
        assert rec.counting_deficient == (
            rec.counting_equations < rec.counting_unknowns
        )
        assert rec.unknowns == po3


def test_survey_single_zeta_stays_expressible():
    report = survey(13, 21)
    for n in (13, 15, 17, 19, 21):
        rec = survey_record(report, n)
        assert f"z{n}" in {str(m) for m in rec.expressible}


def test_survey_validation_and_lookup():
    with pytest.raises(ValueError):
        survey(2, 5)
    with pytest.raises(ValueError):
        survey(9, 5)
    with pytest.raises(KeyError):
        survey_record(survey(3, 5), 9)


# ---------------------------------------------------------------------------
# the survey's structure in closed form, checked exactly over a weight range


def _rank_by_count(n: int) -> int:
    # #{(i, j) >= 0 : 2i + 3j = n} - [n even]
    return sum((n - 3 * j) % 2 == 0 for j in range(n // 3 + 1)) - (n % 2 == 0)


def test_optimistic_rank_and_expressible_set():
    extra = {6: ["z3^2"], 8: ["z3*z5"], 9: ["z3^3"], 11: ["z3^2*z5"]}
    for rec in survey(3, 40).records:
        n = rec.weight
        assert rec.rank == _rank_by_count(n), n
        want = sorted(extra.get(n, []) + ([f"z{n}"] if n % 2 else []))
        assert sorted(str(m) for m in rec.expressible) == want, n


# the lemmas of the README's proof of the optimistic rank, as exact
# polynomial identities in x, y or in e2, e3 on the plane z = -x - y


def test_profile_is_a_product_of_power_sums():
    # C_b(X) is the y^b coefficient of (-1)^|X| prod p_n(1, y, -1-y)
    seen = 0
    for n in range(3, 41):
        for x in enumerate_partitions(n, PartitionFilter(min_part=3, parity="odd")):
            parts = tuple(size for size, mult in reversed(x.support) for _ in range(mult))
            want = [(-1) ** len(parts) * v for v in power_sum_product_on_line(parts)]
            prof = composition_profile(x)
            assert list(prof) + [0] * (len(want) - len(prof)) == want, x
            seen += 1
    assert seen == 1112


def test_newton_identity_gives_the_power_sums():
    for n, p in enumerate(power_sums_e(40)):
        assert e_to_xy(p) == power_sum_xy(n), n


def test_odd_power_sums_are_multiples_of_e3():
    # p_(2i+3) = (-1)^i (2i+3) e2^i e3 + (terms in e3^3 and up)
    p = power_sums_e(99)
    for n in range(3, 100, 2):
        assert min(j for _, j in p[n]) == 1, n
        assert p[n][((n - 3) // 2, 1)] == (-1) ** ((n - 3) // 2) * n, n


def test_rank_columns_are_triangular():
    # the column p_3^(j-1) p_(2i+3) of weight N = 2i + 3j starts at e2^i e3^j,
    # so one column per j >= 1 spans every e2^i e3^j of weight N with j >= 1
    p = power_sums_e(60)
    for N in range(3, 61):
        for j in range(1, N // 3 + 1):
            if (N - 3 * j) % 2:
                continue
            i = (N - 3 * j) // 2
            col = p[2 * i + 3]
            for _ in range(j - 1):
                col = _poly_mul(col, p[3])
            assert min(l for _, l in col) == j, (N, j)
            assert col[(i, j)] == 3 ** (j - 1) * (-1) ** i * (2 * i + 3), (N, j)


def test_fewest_parts_family_spans_with_one_to_spare():
    # the reduction of the optimistic conjecture (ROADMAP item 15): at even N
    # the products p_n p_(N-n), n odd, 3 <= n <= N/2, and at odd N the
    # three-part odd products with p_N, span the weight-N e2^i e3^j with
    # j >= 1, and still do without any one member other than p_N.  A column
    # outside the family is then spanned by it, and one inside by the rest
    def rank(rows, cols):
        return len(rref(RationalMatrix(rows, cols, 1))[1])

    p = power_sums_e(60)
    for N in range(16, 61):
        keys = [((N - 3 * j) // 2, j) for j in range(1, N // 3 + 1) if (N - 3 * j) % 2 == 0]
        if N % 2 == 0:
            family = [_poly_mul(p[n], p[N - n]) for n in range(3, N // 2 + 1, 2)]
        else:
            family = [
                _poly_mul(_poly_mul(p[a], p[b]), p[N - a - b])
                for a in range(3, N // 3 + 1, 2)
                for b in range(a, (N - a) // 2 + 1, 2)
            ] + [p[N]]
        assert all(set(member) <= set(keys) for member in family), N
        rows = [[member.get(k, 0) for k in keys] for member in family]
        assert rank(rows, len(keys)) == len(keys) == _rank_by_count(N), N
        for i in range(len(rows) - (N % 2)):
            assert rank(rows[:i] + rows[i + 1 :], len(keys)) == len(keys), (N, i)


def test_strict_square_families_have_full_rank():
    # the reduction of the strict rank conjecture (ROADMAP item 20): at odd N
    # the (N-1)/2 columns z_n pi^(N-n), n odd, 3 <= n <= N, and at even N the
    # N/2 - 2 columns z3 z_n pi^(N-3-n), n odd, 3 <= n <= N-3, each have full
    # rank over the rows b = 1..N/2 (row b = 1 is zero at even N).  That is
    # the conjectured strict rank as a lower bound, so only their
    # nonsingularity is left to prove
    for N in range(5, 41):
        if N % 2:
            family = [mono(f"z{n}") for n in range(3, N + 1, 2)]
        else:
            family = [mono(f"z3*z{n}") for n in range(3, N - 2, 2)]
        assert len(family) == ((N - 1) // 2 if N % 2 else N // 2 - 2), N
        rows = [solver._column(m, N)[0] for m in family]
        if N % 2 == 0:
            assert all(row[0] == 0 for row in rows), N
        assert len(rref(RationalMatrix(rows, N // 2, 1))[1]) == len(family), N


def test_strict_rank_and_expressible_set():
    # one relation among the rows at every even weight from 6 on; weight 4
    # has no column, so no row
    for rec in survey(3, 30, "strict").records:
        n = rec.weight
        assert rec.rank == rec.equations - (n % 2 == 0 and n >= 6), n
        names = sorted(str(m) for m in rec.expressible)
        if n % 2 and n >= 9:
            assert names == [f"z{n}"], n
        elif n in (8, 10):
            assert names == ["z3*z5", "z3^2"], n
        elif n % 2 == 0 and n >= 12:
            assert names == [], n


def _even_relation(n: int) -> dict[int, int]:
    """b -> mu_b with sum_b mu_b Lz(n - b, b) a rational multiple of pi^n:
    mu_b = w_b (-1)^(h - b) for b = 2..h = n/2, w_b = 2 below h and w_h = 1."""
    h = n // 2
    return {b: (2 if b < h else 1) * (-1) ** (h - b) for b in range(2, h + 1)}


def test_strict_relation_is_a_pi_power():
    # sum_b mu_b Lz(n - b, b) = (-1)^(h+1) zeta(n) / 2^(n-2), exactly: the
    # reflection formula Gamma(1+x) Gamma(1-x) = pi x / sin(pi x) at y = -x
    # in the generating function, folded by Lz(a, b) = Lz(b, a)
    for n in range(4, 31, 2):
        total = PiReducedCombination(n, {})
        for b, mu in _even_relation(n).items():
            total = total + reduce_even(expand_lz(n - b, b)).scale(mu)
        value = (-1) ** (n // 2 + 1) * zeta_even_pi_coeff(n // 2) / 2 ** (n - 2)
        assert total == PiReducedCombination(n, {UNIT_MONOMIAL: value}), n


def test_strict_relation_holds_numerically_above_the_cap():
    # at N = 42, past every exact check, through the series route alone
    n, h, digits = 42, 21, 40
    with workdps(digits + 10):
        lhs = mp.fsum(mu * lz_series(n - b, b, digits) for b, mu in _even_relation(n).items())
        rhs = (-1) ** (h + 1) * zeta_value(n, digits) / mp.mpf(2) ** (n - 2)
        assert abs(lhs - rhs) < abs(rhs) * mp.mpf(10) ** (1 - digits)


def test_strict_relation_annihilates_strict_rows():
    # the relation, stated without the system builder, kills every column
    for n in range(6, 31, 2):
        system = build_system(n, "strict")
        mu = _even_relation(n)
        rows = row_coefficients(system)
        for c in range(len(system.columns)):
            total = sum(mu.get(b, 0) * row[c] for (_, b), row in zip(system.pairs, rows))
            assert total == 0, (n, c)
