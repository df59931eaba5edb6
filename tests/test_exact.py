from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _bernoulli, fraction_rref
from zetalog.exact import (
    RationalMatrix,
    bernoulli_number,
    rref,
    solve_membership,
    zeta_even_pi_coeff,
)
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


def test_matrix_shape_and_accessors():
    m = RationalMatrix([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)


def test_matrix_from_integers_matches_matrix_from_fractions():
    nums, dens = [[2, -4, 0], [3, 6, 9], [0, 0, 0]], [6, 3, 5]
    from_ints = RationalMatrix(nums, 3, dens)
    from_fractions = RationalMatrix([[F(x, d) for x in row] for row, d in zip(nums, dens)])
    want = [[F(1, 3), F(-2, 3), F(0)], [F(1), F(2), F(3)], [F(0)] * 3]
    assert from_ints.entries == from_fractions.entries == want
    assert RationalMatrix([[1, 0], [-2, 7]]).entries == [[F(1), F(0)], [F(-2), F(7)]]
    for m in (from_ints, from_fractions, RationalMatrix([[1, 0], [-2, 7]])):
        assert all(type(x) is Fraction for row in m.entries for x in row)


def test_matrix_rejects_ragged_rows():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [3]])
    for dens in ([1], [1, 0], [1, -2]):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2], [3, 4]], 2, dens)


def test_empty_matrix_keeps_declared_columns():
    m = RationalMatrix([], cols=4)
    assert (m.rows, m.cols) == (0, 4)
    assert len(rref(m)[1]) == 0


def test_rref_small_example():
    m = RationalMatrix([[2, 4], [1, 3]])
    reduced, pivots = rref(m)
    assert pivots == (0, 1)
    assert reduced.entries == [[F(1), F(0)], [F(0), F(1)]]


def test_rref_idempotent():
    m = RationalMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    once, pivots = rref(m)
    twice, again = rref(once)
    assert once == twice and pivots == again


def test_rank_of_singular_matrix():
    assert len(rref(RationalMatrix([[1, 2], [2, 4]]))[1]) == 1
    assert len(rref(RationalMatrix([[0, 0], [0, 0]]))[1]) == 0
    assert len(rref(RationalMatrix([[F(1, 3), 1], [0, F(7, 2)]]))[1]) == 2


def test_membership_recovers_combination():
    system = RationalMatrix([[1, 0, 2], [0, 1, -1]])
    lam = solve_membership(system, [F(3), F(-2), F(8)])
    assert lam == [F(3), F(-2)]


def test_membership_inconsistent_returns_none():
    system = RationalMatrix([[1, 1, 0]])
    assert solve_membership(system, [F(1), F(0), F(0)]) is None


def test_membership_zero_rows():
    system = RationalMatrix([], cols=3)
    assert solve_membership(system, [0, 0, 0]) == []
    assert solve_membership(system, [1, 0, 0]) is None


def test_membership_dependent_rows_deterministic():
    # second row is redundant; free coefficient must stay zero
    system = RationalMatrix([[1, 2], [2, 4]])
    lam = solve_membership(system, [F(3), F(6)])
    assert lam == [F(3), F(0)]


def test_membership_length_mismatch():
    with pytest.raises(ValueError):
        solve_membership(RationalMatrix([[1, 2]]), [1, 2, 3])


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
    system = RationalMatrix(entries)
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
    m = RationalMatrix(rows, cols=ncols)
    reduced, pivots = rref(m)
    expected, expected_pivots = fraction_rref(rows)
    assert reduced.entries == expected and pivots == tuple(expected_pivots)
    assert all(type(x) is Fraction for row in reduced.entries for x in row)

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
    # the survey reads rank and unit rows off the integer rows of the RREF;
    # textbook Fraction Gauss-Jordan must agree on both
    for n in range(3, 31):
        for mode in MODES:
            system = build_system(n, mode)
            m = system.matrix()
            assert m == RationalMatrix([row.coefficients for row in system.rows], cols=m.cols)
            expected, pivots = fraction_rref(m.entries)
            assert rref(m) == (RationalMatrix(expected, cols=m.cols), tuple(pivots)), (n, mode)
            units = {c for row, c in zip(expected, pivots) if sum(x != 0 for x in row) == 1}
            assert _rowspace_members(system) == (len(pivots), units), (n, mode)
