from __future__ import annotations

import math
from fractions import Fraction

import pytest

from oracles import big_c, bivariate_big_c, brute_slot_values, composition_profile
from zetalog import coefficients, expansion
from zetalog.coefficients import c_tilde, little_c
from zetalog.partitions import (
    PartitionElement,
    PartitionFilter,
    count_partitions,
    enumerate_partitions,
)

F = Fraction


def all_partitions(weight_max):
    for n in range(1, weight_max + 1):
        yield from enumerate_partitions(n)


def test_big_c_matches_bivariate_expansion():
    # each profile is one int product read back in signed slots of
    # slot_width(prod (2^n - 2)^k) bits; a slot too narrow spills into the
    # next.  Every partition expand_lz reads through weight 30,
    # and every column of a survey through weight 40
    xs = list(all_partitions(10))
    xs += [x for n in range(11, 31) for x in enumerate_partitions(n, PartitionFilter(min_part=2))]
    odd = PartitionFilter(min_part=3, parity="odd")
    xs += [x for n in range(31, 41) for x in enumerate_partitions(n, odd)]
    for x in xs:
        for b in range(x.weight + 2):
            assert big_c(x, b) == bivariate_big_c(x.support, b), (x, b)


def test_big_c_symmetry():
    for x in all_partitions(12):
        n = x.weight
        for b in range(n + 1):
            assert big_c(x, b) == big_c(x, n - b)


def test_big_c_vanishes_outside_band():
    for x in all_partitions(12):
        n = x.weight
        for b in range(n + 1):
            if b < x.norm or b > n - x.norm:
                assert big_c(x, b) == 0


def test_row_sum_identity():
    # summing over all b gives prod (2^n - 2)^k
    for x in all_partitions(12):
        expected = 1
        for size, mult in x.support:
            expected *= (2**size - 2) ** mult
        assert sum(composition_profile(x)) == expected


def test_profile_indexes_by_b():
    x = PartitionElement.from_parts([3, 2])
    prof = composition_profile(x)
    assert len(prof) == x.weight - x.norm + 1  # b runs over norm..N-norm
    assert prof[0] == prof[1] == 0
    assert [big_c(x, b) for b in range(6)] == list(prof) + [0, 0]


def test_composition_enumeration_against_brute_force():
    # C_b(X) is the sum over slot assignments of the product of C(n, value)
    for x in all_partitions(9):
        sizes = [size for size, mult in x.support for _ in range(mult)]
        for b in range(x.weight + 1):
            want = sum(
                math.prod(math.comb(n, v) for n, v in zip(sizes, values))
                for values in brute_slot_values(sizes, b)
            )
            assert big_c(x, b) == want, (x, b)


def test_c_tilde_values():
    assert c_tilde(PartitionElement.from_parts([2])) == F(-1, 2)
    assert c_tilde(PartitionElement.from_parts([6])) == F(-1, 6)
    assert c_tilde(PartitionElement.from_parts([4, 2])) == F(1, 8)
    assert c_tilde(PartitionElement.from_parts([3, 3])) == F(1, 18)
    assert c_tilde(PartitionElement.from_parts([2, 2, 2])) == F(-1, 48)


def test_c_tilde_sign_tracks_weight_plus_norm():
    for x in all_partitions(10):
        ct = c_tilde(x)
        assert (ct < 0) == bool((x.weight + x.norm) % 2)


def test_little_c_weight_two():
    # Lz(1,1) = -zeta(2): the single partition {2} at b = 1
    x = PartitionElement.from_parts([2])
    assert little_c(x, 1) == F(-1)


def test_little_c_zero_outside_band():
    x = PartitionElement.from_parts([3, 3])
    assert little_c(x, 1) == F(0)
    assert little_c(x, 5) == F(0)


def test_little_c_is_big_c_times_c_tilde():
    for x in all_partitions(10):
        for b in range(x.weight + 1):
            assert little_c(x, b) == big_c(x, b) * c_tilde(x), (x, b)


def test_records_do_not_depend_on_cache_state():
    # a record is read off its own factors; it must not matter whether the
    # cache already holds the records of an earlier, heavier weight (weight
    # 14 before 8, no clearing) or starts cold for each weight
    want = {}
    for n in range(1, 13):
        for x in enumerate_partitions(n):
            sign = -1 if (x.weight + x.norm) % 2 else 1
            ct = F(sign, math.prod(math.factorial(k) * size**k for size, k in x.support))
            want[x] = [(bivariate_big_c(x.support, b), ct) for b in range(n + 1)]

    def check(n):
        for x in enumerate_partitions(n):
            for b in range(n + 1):
                if n > 12:
                    little_c(x, b)
                    continue
                cb, ct = want[x][b]
                assert (big_c(x, b), c_tilde(x), little_c(x, b)) == (cb, ct, cb * ct), (x, b)

    coefficients._record.cache_clear()
    for n in (14, 8, *range(12, 0, -1)):
        check(n)
    for n in range(1, 13):
        coefficients._record.cache_clear()
        check(n)


def test_cold_expansion_builds_each_record_once():
    # no record is built from another: a cold call builds its own record
    # only, and a cold expand_weight(30) one per partition of 30 into parts
    # >= 2, the partitions its pairs read
    coefficients._record.cache_clear()
    little_c(PartitionElement.from_parts([5, 2, 2, 2]), 4)
    assert coefficients._record.cache_info().misses == 1
    coefficients._record.cache_clear()
    expansion.expand_lz.cache_clear()
    expansion.expand_weight(30)
    misses = coefficients._record.cache_info().misses
    assert misses == count_partitions(30, PartitionFilter(min_part=2)) == 1039
