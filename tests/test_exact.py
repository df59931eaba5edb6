from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    _bernoulli,
    fraction_rref,
    matrix_entries,
    matrix_of,
    reduced_rows,
    row_coefficients,
)
from zetalog.exact import (
    RationalMatrix,
    bernoulli_number,
    pack,
    rref,
    slot_width,
    solve_membership,
    unpack,
    zeta_even_pi_coeff,
)
from zetalog.expansion import UNIT_MONOMIAL
from zetalog.solver import MODES, _rowspace_members, build_system

F = Fraction

KNOWN_BERNOULLI = {
    0: F(1),
    1: F(-1, 2),
    2: F(1, 6),
    4: F(-1, 30),
    6: F(1, 42),
    8: F(-1, 30),
    10: F(5, 66),
    12: F(-691, 2730),
    14: F(7, 6),
    16: F(-3617, 510),
}


def test_bernoulli_known_values():
    for m, value in KNOWN_BERNOULLI.items():
        assert bernoulli_number(m) == value


def test_bernoulli_odd_vanish():
    for m in range(3, 40, 2):
        assert bernoulli_number(m) == 0


def test_bernoulli_matches_oracle():
    # B_2..B_200 from tangent numbers against Akiyama-Tanigawa, first with m
    # descending and then ascending: each call computes from scratch, so the
    # order of calls cannot change a value
    evens = range(200, 1, -2)
    for m in [*evens, *reversed(evens)]:
        assert bernoulli_number(m) == _bernoulli(m), m


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli_number(-1)


def test_even_zeta_coefficients():
    # zeta(2) = pi^2/6, zeta(4) = pi^4/90, ..., zeta(12) = 691 pi^12 / 638512875
    expected = [
        F(1, 6),
        F(1, 90),
        F(1, 945),
        F(1, 9450),
        F(1, 93555),
        F(691, 638512875),
    ]
    for n, q in enumerate(expected, start=1):
        assert zeta_even_pi_coeff(n) == q


def test_even_zeta_coefficients_positive():
    for n in range(1, 30):
        assert zeta_even_pi_coeff(n) > 0


def test_even_zeta_rejects_zero():
    with pytest.raises(ValueError):
        zeta_even_pi_coeff(0)


def integer_matrix(rows):
    """A nonempty matrix of integer rows over the denominator 1."""
    return RationalMatrix(rows, len(rows[0]), 1)


def test_matrix_shape_and_accessors():
    m = integer_matrix([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert (m.numerators, m.denominator) == ([[1, 2, 3], [4, 5, 6]], 1)


def test_matrix_from_integers_matches_matrix_from_fractions():
    nums, den = [[2, -4, 0], [3, 6, 9], [0, 0, 0]], 6
    from_ints = RationalMatrix(nums, 3, den)
    from_fractions = matrix_of([[F(x, den) for x in row] for row in nums], 3)
    want = [[F(1, 3), F(-2, 3), F(0)], [F(1, 2), F(1), F(3, 2)], [F(0)] * 3]
    assert matrix_entries(from_ints) == matrix_entries(from_fractions) == want
    assert (from_fractions.numerators, from_fractions.denominator) == (nums, den)
    # one denominator for all rows: the lcm over every row's entries
    mixed = matrix_of([[F(1, 2), F(0)], [F(0), F(-1, 3)]], 2)
    assert (mixed.numerators, mixed.denominator) == ([[3, 0], [0, -2]], 6)


def test_matrix_rejects_ragged_rows():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [3]], 2, 1)
    # a row longer or shorter than the declared column count
    for rows in ([[1, 2]], [[1, 2], [3, 4]]):
        for cols in (1, 5):
            with pytest.raises(ValueError):
                RationalMatrix(rows, cols, 1)
    for den in (0, -2):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2], [3, 4]], 2, den)


def test_empty_matrix_keeps_declared_columns():
    m = RationalMatrix([], 4, 1)
    assert (m.rows, m.cols) == (0, 4)
    assert rref(m) == ([], ())


def test_rref_small_example():
    m = integer_matrix([[2, 4], [1, 3]])
    rows, pivots = rref(m)
    assert (rows, pivots) == ([[1, 0], [0, 1]], (0, 1))
    assert reduced_rows(rows, pivots) == [[F(1), F(0)], [F(0), F(1)]]


def test_rref_idempotent():
    m = integer_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    once, pivots = rref(m)
    assert len(once) == len(pivots) == 2
    assert rref(RationalMatrix(once, m.cols, 1)) == (once, pivots)


def test_rank_of_singular_matrix():
    assert len(rref(integer_matrix([[1, 2], [2, 4]]))[1]) == 1
    assert len(rref(integer_matrix([[0, 0], [0, 0]]))[1]) == 0
    assert len(rref(RationalMatrix([[2, 6], [0, 21]], 2, 6))[1]) == 2


def test_membership_recovers_combination():
    system = integer_matrix([[1, 0, 2], [0, 1, -1]])
    lam = solve_membership(system, [F(3), F(-2), F(8)])
    assert lam == [F(3), F(-2)]
    # the same rows over 6 need six times the multipliers
    sixths = RationalMatrix(system.numerators, 3, 6)
    assert solve_membership(sixths, [F(3), F(-2), F(8)]) == [F(18), F(-12)]


def test_membership_inconsistent_returns_none():
    system = integer_matrix([[1, 1, 0]])
    assert solve_membership(system, [F(1), F(0), F(0)]) is None


def test_membership_zero_rows():
    system = RationalMatrix([], 3, 1)
    assert solve_membership(system, [0, 0, 0]) == []
    assert solve_membership(system, [1, 0, 0]) is None


def test_membership_dependent_rows_deterministic():
    # second row is redundant; free coefficient must stay zero
    system = integer_matrix([[1, 2], [2, 4]])
    lam = solve_membership(system, [F(3), F(6)])
    assert lam == [F(3), F(0)]


def test_membership_target_takes_exact_rationals_only():
    system = integer_matrix([[1, 0], [0, 1]])
    with pytest.raises(TypeError):
        solve_membership(system, [0.1, 0.2])
    assert solve_membership(system, [1, "1/5"]) == [F(1), F(1, 5)]


def test_membership_length_mismatch():
    with pytest.raises(ValueError):
        solve_membership(integer_matrix([[1, 2]]), [1, 2, 3])


def assert_rref_matches_oracle(m: RationalMatrix, entries, context=None):
    """rref's rows are primitive, one per pivot, and divided by their pivot
    entries they are the nonzero rows of textbook Gauss-Jordan; the rows
    Gauss-Jordan leaves past the pivots are zero."""
    rows, pivots = rref(m)
    expected, expected_pivots = fraction_rref(entries)
    assert pivots == tuple(expected_pivots), context
    assert all(math.gcd(*row) == 1 for row in rows), context
    assert reduced_rows(rows, pivots) == expected[: len(pivots)], context
    assert not any(x for row in expected[len(pivots) :] for x in row), context
    return expected, expected_pivots


_small_fraction = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(
        st.lists(_small_fraction, min_size=3, max_size=3), min_size=1, max_size=4
    ),
    weights=st.lists(_small_fraction, min_size=4, max_size=4),
)
def test_membership_roundtrip(entries, weights):
    # any target built as a row combination must be recognized, and the
    # returned combination must reproduce it exactly
    system = matrix_of(entries, 3)
    target = [
        sum((weights[i] * entries[i][j] for i in range(len(entries))), F(0))
        for j in range(3)
    ]
    lam = solve_membership(system, target)
    assert lam is not None
    rebuilt = [
        sum((lam[i] * entries[i][j] for i in range(len(entries))), F(0))
        for j in range(3)
    ]
    assert rebuilt == target


@st.composite
def _matrices(draw):
    """Up to 6x7 small signed rationals, with zero rows, zero columns and
    sometimes a last row that depends on the first two."""
    nrows = draw(st.integers(min_value=0, max_value=6))
    ncols = draw(st.integers(min_value=1, max_value=7))
    entry = st.one_of(st.just(F(0)), _small_fraction)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    zero_rows = draw(st.sets(st.integers(min_value=0, max_value=5)))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=6)))
    rows = [
        [F(0) if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    if nrows >= 3 and draw(st.booleans()):
        s, t = draw(_small_fraction), draw(_small_fraction)
        rows[-1] = [s * x + t * y for x, y in zip(rows[0], rows[1])]
    return rows, ncols


@settings(max_examples=80, deadline=None)
@given(
    matrix=_matrices(),
    weights=st.lists(_small_fraction, min_size=6, max_size=6),
    noise=st.lists(_small_fraction, min_size=7, max_size=7),
    in_span=st.booleans(),
)
def test_fraction_free_elimination_matches_oracle(matrix, weights, noise, in_span):
    rows, ncols = matrix
    m = matrix_of(rows, ncols)
    assert_rref_matches_oracle(m, rows)

    span = [sum((w * row[j] for w, row in zip(weights, rows)), F(0)) for j in range(ncols)]
    target = span if in_span else noise[:ncols]
    lam = solve_membership(m, target)
    aug = [[row[j] for row in rows] + [target[j]] for j in range(ncols)]
    inconsistent = len(rows) in fraction_rref(aug)[1]
    assert (lam is None) == inconsistent
    if lam is not None:
        assert all(type(x) is Fraction for x in lam)
        rebuilt = [sum((c * row[j] for c, row in zip(lam, rows)), F(0)) for j in range(ncols)]
        assert rebuilt == target


def test_rref_matches_oracle_on_survey_systems():
    # the survey reads rank and unit rows off rref's integer echelon rows;
    # textbook Fraction Gauss-Jordan must agree on both
    for n in range(3, 31):
        for mode in MODES:
            system = build_system(n, mode)
            m = system.matrix()
            entries = [list(row) for row in row_coefficients(system)]
            assert (m.rows, m.cols) == (len(system.rows), len(system.columns))
            assert matrix_entries(m) == entries, (n, mode)
            expected, pivots = assert_rref_matches_oracle(m, entries, (n, mode))
            units = {c for row, c in zip(expected, pivots) if sum(x != 0 for x in row) == 1}
            assert _rowspace_members(system) == (len(pivots), units), (n, mode)


def test_rowspace_members_ignore_column_scaling():
    # _rowspace_members divides each column by its gcd before eliminating;
    # rank and unit rows must not move when each column is scaled by a
    # distinct nonzero factor, and an all-zero column, whose gcd is 0, is
    # carried undivided and is never a member
    for n in range(3, 25):
        for mode in MODES:
            system = build_system(n, mode)
            rank, members = _rowspace_members(system)
            factors = [(-1) ** j * (j + 2) for j in range(len(system.columns))]
            scaled = tuple(tuple(x * f for x, f in zip(row, factors)) for row in system.rows)
            assert _rowspace_members(system._replace(rows=scaled)) == (rank, members), (n, mode)
            padded = system._replace(
                columns=(UNIT_MONOMIAL, *system.columns),
                rows=tuple((0, *row) for row in scaled),
            )
            shifted = {j + 1 for j in members}
            assert _rowspace_members(padded) == (rank, shifted), (n, mode)


def test_membership_agrees_with_rowspace_members_on_survey_systems():
    # survey reads unit rows off rref; express solves for lambda through
    # solve_membership.  Both read the one elimination, so on every column t
    # of every survey system a unit target e_t is solvable exactly when t is
    # a member, and the lambda returned rebuilds e_t
    for n in range(3, 25):
        for mode in MODES:
            system = build_system(n, mode)
            members = _rowspace_members(system)[1]
            ncols = len(system.columns)
            for t in range(ncols):
                unit = [F(int(j == t)) for j in range(ncols)]
                lam = solve_membership(system.matrix(), unit)
                assert (lam is not None) == (t in members), (n, mode, t)
                if lam is not None:
                    rebuilt = [
                        F(sum(c * row[j] for c, row in zip(lam, system.rows)), system.denominator)
                        for j in range(ncols)
                    ]
                    assert rebuilt == unit, (n, mode, t)


@st.composite
def _bounded_coefficients(draw):
    """A magnitude bound and up to 12 coefficients within it, -bound and
    bound among them."""
    bound = draw(st.integers(min_value=0, max_value=2**80))
    coeffs = draw(st.lists(st.integers(min_value=-bound, max_value=bound), max_size=10))
    for extreme in (-bound, bound):
        coeffs.insert(draw(st.integers(min_value=0, max_value=len(coeffs))), extreme)
    return bound, coeffs


@settings(max_examples=100, deadline=None)
@given(case=_bounded_coefficients(), data=st.data())
def test_codec_round_trips_signed_slots(case, data):
    # +-bound are the extreme slots, so S needs bound's bits and a sign bit;
    # a negative slot borrows from the one above it, which the offset undoes.
    # A prefix reads the same whatever the slots above it hold
    bound, coeffs = case
    S = slot_width(bound)
    assert unpack(pack(coeffs, S), S, len(coeffs)) == coeffs
    count = data.draw(st.integers(min_value=0, max_value=len(coeffs)))
    assert unpack(pack(coeffs, S), S, count) == coeffs[:count]


_signed = st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=1, max_size=8)


@settings(max_examples=100, deadline=None)
@example(a=[3, -7, 0, 5], b=[-2, 4, -1])
@given(a=_signed, b=_signed)
def test_codec_reads_signed_products(a, b):
    # one int product at y = 2^S holds the convolution, mixed signs included,
    # for S from the product of the factors' magnitude sums
    conv = [
        sum(x * b[k - i] for i, x in enumerate(a) if 0 <= k - i < len(b))
        for k in range(len(a) + len(b) - 1)
    ]
    S = slot_width(sum(map(abs, a)) * sum(map(abs, b)))
    assert unpack(pack(a, S) * pack(b, S), S, len(conv)) == conv
