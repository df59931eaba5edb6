from __future__ import annotations

from fractions import Fraction

import pytest

import golden_data
from oracles import kernel_mismatches
from zetalog.expansion import (
    MonomialParseError,
    PiReducedCombination,
    UNIT_MONOMIAL,
    ZetaCombination,
    ZetaMonomial,
    expand_lz,
    expand_weight,
    reduce_even,
)
from zetalog.partitions import PartitionElement

F = Fraction


def test_raw_golden_forms():
    for (a, b) in golden_data.RAW:
        assert expand_lz(a, b) == golden_data.raw_combination(a, b), (a, b)


def test_reduced_golden_forms():
    for (a, b) in golden_data.REDUCED:
        got = reduce_even(expand_lz(a, b))
        assert got == golden_data.reduced_combination(a, b), (a, b)


def test_reduced_expansion_matches_kernel_oracle():
    # the only check of reduced expansions above the golden weights: values
    # and term order against odd monomials times the even kernel, for every
    # ordered pair through weight 30 and the pairs with b <= 3 in both
    # orders through weight 40 (CI's tests job checks every pair to 40)
    pairs = [(n - b, b) for n in range(2, 31) for b in range(1, n)]
    pairs += [p for n in range(31, 41) for b in (1, 2, 3) for p in ((n - b, b), (b, n - b))]
    assert kernel_mismatches(pairs) == []


def test_reduce_even_drops_cancelled_terms():
    # z2*z4 = pi^6/540 and z6 = pi^6/945, so the pi^6 terms cancel
    p = ZetaMonomial.parse
    comb = ZetaCombination(6, {p("z2*z4"): 540, p("z6"): -945, p("z3^2"): 1})
    red = reduce_even(comb)
    assert red.text() == "z3^2"
    assert list(red.terms) == [p("z3^2")]


def test_reduce_even_keeps_first_appearance_order():
    # z4*z3 = pi^4/90 z3 and z2^2*z3 = pi^4/36 z3 cancel; z5 comes before z7
    p = ZetaMonomial.parse
    comb = ZetaCombination(
        7, {p("z2*z5"): 6, p("z7"): 2, p("z3*z4"): 90, p("z2^2*z3"): -36}
    )
    red = reduce_even(comb)
    assert red.text() == "2*z7 + pi^2*z5"
    assert list(red.terms) == [p("z5"), p("z7")]


def test_symmetry_small_weights():
    for n in range(2, 11):
        for b in range(1, n):
            assert expand_lz(n - b, b) == expand_lz(b, n - b)


def test_part_count_bound():
    # every surviving monomial comes from a partition with at most min(a,b) parts
    for n in range(2, 13):
        for b in range(1, n // 2 + 1):
            comb = expand_lz(n - b, b)
            assert comb.weight == n
            for mono in comb.terms:
                assert sum(k for _, k in mono.factors) <= b
                assert mono.weight == n
                assert all(size >= 2 for size, _ in mono.factors)


def test_expand_weight_consistent_with_expand_lz():
    for n in range(2, 11):
        table = expand_weight(n)
        assert list(table) == [(n - b, b) for b in range(1, n // 2 + 1)]
        for (a, b), comb in table.items():
            assert comb == expand_lz(a, b)


def test_expand_rejects_bad_arguments():
    with pytest.raises(ValueError):
        expand_lz(0, 3)
    with pytest.raises(ValueError):
        expand_lz(3, 0)
    with pytest.raises(ValueError):
        expand_weight(1)


def test_monomial_parse_roundtrip():
    seen = set()
    for n in range(2, 13):
        for mono in expand_lz(n - 1, 1).terms:
            seen.add(mono)
        for mono in expand_lz(n - n // 2, n // 2).terms:
            seen.add(mono)
    assert seen
    for mono in seen:
        assert ZetaMonomial.parse(str(mono)) == mono


def test_monomial_parse_merges_and_orders():
    assert ZetaMonomial.parse("z5*z3") == ZetaMonomial(((3, 1), (5, 1)))
    assert ZetaMonomial.parse("z3*z3^2") == ZetaMonomial(((3, 3),))
    assert ZetaMonomial.parse(" z7 ") == ZetaMonomial(((7, 1),))
    assert ZetaMonomial.parse("1") is UNIT_MONOMIAL


def test_monomial_hash_is_construction_independent():
    # equality and hash read only the factors; equal monomials built any way
    # must hash alike, the hash is that of the field tuple while the field
    # tuple itself is not equal, and fields and new attributes are refused
    built = [
        ZetaMonomial.parse("z3^2*z2"),
        ZetaMonomial.parse("z2*z3*z3"),
        ZetaMonomial.from_partition(PartitionElement.from_parts([3, 2, 3])),
        ZetaMonomial(((2, 1), (3, 2))),
    ]
    assert all(m == built[0] and hash(m) == hash(built[0]) for m in built)
    assert len(set(built)) == 1
    assert built[0] != ZetaMonomial.parse("z3*z5") and built[0] != built[0].factors
    assert hash(ZetaMonomial(())) == hash(UNIT_MONOMIAL)
    m = built[0]
    assert m != (m.factors,) and (m.factors,) != m
    assert not (m == (m.factors,)) and not ((m.factors,) == m)
    assert hash(m) == hash((m.factors,))
    with pytest.raises(AttributeError):
        built[0].factors = ((3, 1),)
    with pytest.raises(AttributeError):
        built[0].extra = 1


def test_monomial_parse_failures():
    for bad in ["", "z1", "z3^0", "z", "3", "z3**2", "z3^", "z-3", "z3 z5", "pi", "z٣", "z５"]:
        with pytest.raises(MonomialParseError):
            ZetaMonomial.parse(bad)


def test_monomial_validation_direct():
    with pytest.raises(ValueError):
        ZetaMonomial(((5, 1), (3, 1)))  # must ascend
    with pytest.raises(ValueError):
        ZetaMonomial(((1, 1),))
    with pytest.raises(ValueError):
        ZetaMonomial(((3, 0),))


def test_monomial_properties():
    m = ZetaMonomial.parse("z3^2*z4*z6")
    assert m.weight == 16
    assert m.odd_weight == 6
    assert not m.is_odd_only and not m.is_unit
    assert UNIT_MONOMIAL.is_unit and UNIT_MONOMIAL.is_odd_only
    assert UNIT_MONOMIAL.weight == 0


def test_monomial_rendering():
    assert str(ZetaMonomial.parse("z3^2*z5")) == "z3^2*z5"
    assert ZetaMonomial.parse("z3^2*z5").latex() == "\\zeta(3)^2\\zeta(5)"
    assert ZetaMonomial(((3, 10),)).latex() == "\\zeta(3)^{10}"
    assert str(ZetaMonomial(((3, 10),))) == "z3^10"
    assert str(UNIT_MONOMIAL) == "1" and UNIT_MONOMIAL.latex() == "1"


def test_combination_text_rendering():
    assert expand_lz(3, 2).text() == "2*z5 - z2*z3"
    assert expand_lz(1, 1).text() == "-z2"
    assert reduce_even(expand_lz(2, 2)).text() == "-(1/360)*pi^4"
    assert reduce_even(expand_lz(4, 2)).text() == "(1/2)*z3^2 - (1/1260)*pi^6"
    assert ZetaCombination(3, {}).text() == "0"


def test_combination_latex_rendering():
    assert expand_lz(4, 1).latex() == "\\zeta(5)"
    assert (
        expand_lz(4, 2).latex()
        == "\\frac{1}{2}\\zeta(3)^2+\\zeta(2)\\zeta(4)-\\frac{5}{2}\\zeta(6)"
    )
    assert reduce_even(expand_lz(1, 1)).latex() == "-\\frac{1}{6}\\pi^2"


def test_term_order_by_odd_weight_then_factors():
    text = expand_lz(3, 3).text()
    assert text == "z3^2 + (3/2)*z2*z4 - (1/6)*z2^3 - (10/3)*z6"


def test_combination_arithmetic():
    c = expand_lz(3, 2)
    doubled = c.scale(2)
    assert doubled.coefficient(ZetaMonomial.parse("z5")) == F(4)
    total = doubled + c.scale(-2)
    assert len(total) == 0 and total.text() == "0"
    assert c + ZetaCombination(5, {}) == c


def test_combination_validation_and_immutability():
    z3 = ZetaMonomial.parse("z3")
    with pytest.raises(ValueError):
        ZetaCombination(4, {z3: F(1)})
    c = ZetaCombination(3, {z3: F(2)})
    # a zero term is dropped before its weight is checked
    assert ZetaCombination(3, {z3: F(2), ZetaMonomial.parse("z5"): F(0)}) == c
    with pytest.raises(AttributeError):
        c.weight = 5
    with pytest.raises(ValueError):
        c + ZetaCombination(4, {})


def test_reduced_combination_validation():
    z3 = ZetaMonomial.parse("z3")
    with pytest.raises(ValueError):
        PiReducedCombination(7, {ZetaMonomial.parse("z4"): F(1)})
    with pytest.raises(ValueError):
        PiReducedCombination(6, {z3: F(1)})  # would need pi^3: odd exponent
    with pytest.raises(ValueError):
        PiReducedCombination(1, {z3: F(1)})  # would need pi^-2: negative exponent
    # a zero term is dropped before its exponent is checked
    assert len(PiReducedCombination(6, {z3: F(0)})) == 0
    ok = PiReducedCombination(7, {z3: F(1)})
    assert ok.items() == [(F(1), 4, z3)]
    assert PiReducedCombination(7, {z3: F(1), ZetaMonomial.parse("z5"): F(0)}) == ok
    with pytest.raises(AttributeError):
        ok.weight = 9


def test_reduced_combination_arithmetic():
    r = reduce_even(expand_lz(5, 2))
    z5 = ZetaMonomial.parse("z5")
    assert r.coefficient(z5) == F(-1, 6)
    assert r.scale(-1).coefficient(z5) == F(1, 6)
    cancel = r + r.scale(-1)
    assert len(cancel) == 0 and cancel.text() == "0"
    assert r.scale(6).coefficient(z5) == F(-1)


def test_combinations_take_exact_rationals_only():
    # a float's binary value would be carried as a 55-bit fraction
    z3 = ZetaMonomial.parse("z3")
    with pytest.raises(TypeError):
        PiReducedCombination(5, {z3: 0.1})
    tenth = PiReducedCombination(5, {z3: "1/10"})
    assert tenth == PiReducedCombination(5, {z3: F(1, 10)})
    with pytest.raises(TypeError):
        tenth.scale(0.1)
    assert tenth.scale(10) == tenth.scale("10/1") == PiReducedCombination(5, {z3: 1})


def test_reduce_even_drops_nothing():
    # spot check by weight bookkeeping: each reduced term keeps total weight
    for (a, b) in [(5, 2), (6, 3), (5, 4), (4, 4)]:
        red = reduce_even(expand_lz(a, b))
        assert red.weight == a + b
        for _, pi_exp, mono in red.items():
            assert mono.is_odd_only
            assert mono.weight + pi_exp == a + b
            assert pi_exp >= 0 and pi_exp % 2 == 0
