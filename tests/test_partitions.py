from __future__ import annotations

import gc
import tracemalloc

import pytest

from oracles import partition_counts
from zetalog.partitions import (
    PARITY_CHOICES,
    PartitionElement,
    PartitionFilter,
    count_partitions,
    enumerate_partitions,
)

P = partition_counts(40)


def test_unrestricted_counts_match_pentagonal_recurrence():
    for n in range(41):
        assert count_partitions(n) == P[n]


def test_enumeration_agrees_with_count():
    # counting fills a table and enumeration recurses; they share only the
    # list of allowed sizes, so agreement checks both
    for n in range(25):
        for min_part in range(1, 5):
            for parity in PARITY_CHOICES:
                for t in (None, 1, 2, 3, 4, 5, 6):
                    flt = PartitionFilter(min_part=min_part, exact_parts=t, parity=parity)
                    assert count_partitions(n, flt) == len(enumerate_partitions(n, flt)), (n, flt)


def test_p_ten_is_forty_two():
    assert count_partitions(10) == 42


def test_min_part_two_counts():
    # partitions with all parts >= 2 are counted by p(n) - p(n-1)
    flt = PartitionFilter(min_part=2)
    for n in range(1, 41):
        assert count_partitions(n, flt) == P[n] - P[n - 1]


def test_canonical_order_weight_six():
    got = [str(x) for x in enumerate_partitions(6, PartitionFilter(min_part=2))]
    assert got == ["6", "4+2", "3+3", "2+2+2"]


def test_order_is_decreasing_lexicographic():
    for n in range(1, 13):
        lists = [x.part_list() for x in enumerate_partitions(n)]
        assert lists == sorted(lists, reverse=True)
        assert len(set(lists)) == len(lists)


def test_exact_parts_filter():
    for n in range(1, 15):
        for t in range(1, n + 1):
            flt = PartitionFilter(exact_parts=t)
            elems = enumerate_partitions(n, flt)
            assert all(x.norm == t for x in elems)
            assert len(elems) == count_partitions(n, flt)
    # partitions of n into exactly 2 parts: floor(n/2)
    for n in range(2, 20):
        assert count_partitions(n, PartitionFilter(exact_parts=2)) == n // 2


def test_parity_filters():
    odd = PartitionFilter(min_part=3, parity="odd")
    elems = enumerate_partitions(9, odd)
    assert [str(x) for x in elems] == ["9", "3+3+3"]
    even = PartitionFilter(parity="even")
    for n in range(1, 20, 2):
        assert enumerate_partitions(n, even) == []
    # even-part partitions of 2n are partitions of n in disguise
    for n in range(1, 16):
        assert count_partitions(2 * n, even) == P[n]


def test_filters_combine():
    flt = PartitionFilter(min_part=3, exact_parts=3, parity="odd")
    elems = enumerate_partitions(15, flt)
    assert [str(x) for x in elems] == ["9+3+3", "7+5+3", "5+5+5"]


def test_zero_weight():
    assert enumerate_partitions(0) == [PartitionElement(0, ())]
    assert count_partitions(0) == 1
    assert enumerate_partitions(0, PartitionFilter(exact_parts=1)) == []
    assert count_partitions(0, PartitionFilter(exact_parts=1)) == 0


def test_too_many_parts_build_no_table():
    # more parts than n holds answer 0 without one table row per part
    tracemalloc.start()
    try:
        assert count_partitions(5, PartitionFilter(exact_parts=10**4)) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    # from the first count that cannot fit (t * min_part > n) to n + 3
    for n in range(8):
        for min_part in (1, 2, 3):
            for t in range(n // min_part + 1, n + 4):
                flt = PartitionFilter(min_part=min_part, exact_parts=t)
                assert count_partitions(n, flt) == len(enumerate_partitions(n, flt)) == 0


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        enumerate_partitions(-1)
    with pytest.raises(ValueError):
        count_partitions(-2)


def test_filter_validation():
    with pytest.raises(ValueError):
        PartitionFilter(min_part=0)
    with pytest.raises(ValueError):
        PartitionFilter(exact_parts=0)
    with pytest.raises(ValueError):
        PartitionFilter(parity="prime")
    with pytest.raises(ValueError):
        PartitionFilter(min_part=2)._replace(min_part=0)


def test_filter_is_a_value():
    # equal by fields to a filter only: the field tuple hashes alike but is
    # not equal, and fields and new attributes are refused
    flt = PartitionFilter(min_part=3, parity="odd")
    fields = (3, None, "odd")
    assert flt == PartitionFilter(3, None, "odd") and flt != PartitionFilter(3)
    assert flt != fields and fields != flt
    assert not (flt == fields) and not (fields == flt)
    assert hash(flt) == hash(fields)
    assert flt._replace(parity="any") == PartitionFilter(min_part=3)
    with pytest.raises(AttributeError):
        flt.min_part = 2
    with pytest.raises(AttributeError):
        flt.extra = 1


def test_element_roundtrip():
    x = PartitionElement.from_parts([3, 2, 3, 2, 2])
    assert x.weight == 12
    assert x.support == ((2, 3), (3, 2))
    assert x.norm == 5
    assert x.part_list() == (3, 3, 2, 2, 2)
    assert str(x) == "3+3+2+2+2"


def test_element_validation():
    with pytest.raises(ValueError):
        PartitionElement(5, ((3, 1), (2, 1)))  # sizes out of order
    with pytest.raises(ValueError):
        PartitionElement(5, ((2, 1), (2, 1)))  # duplicate size
    with pytest.raises(ValueError):
        PartitionElement(4, ((2, 1),))  # weight mismatch
    with pytest.raises(ValueError):
        PartitionElement(2, ((2, 0),))  # zero multiplicity


def test_elements_hashable_and_equal():
    a = PartitionElement.from_parts([4, 2])
    b = PartitionElement(6, ((2, 1), (4, 1)))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    fields = (6, ((2, 1), (4, 1)))
    assert a != fields and fields != a
    assert not (a == fields) and not (fields == a)
    assert hash(a) == hash(fields)
    with pytest.raises(AttributeError):
        a.weight = 7
    with pytest.raises(AttributeError):
        a.extra = 1


def test_enumerated_elements_match_validating_constructor():
    # enumeration builds each support through the validating constructor,
    # pruning on the filter as it goes; each element must be the one
    # from_parts validates, hash and all, and a filtered enumeration must be
    # the unrestricted one filtered afterwards, order included
    def admits(flt, x):
        sizes_ok = all(flt.allows_size(size) for size, _ in x.support)
        return sizes_ok and flt.exact_parts in (None, x.norm)

    for n in range(19):
        everything = enumerate_partitions(n)
        for x in everything:
            ref = PartitionElement.from_parts(x.part_list())
            assert x == ref and hash(x) == hash(ref), x
            assert x.norm == ref.norm and str(x) == str(ref)
        for min_part in range(1, 5):
            for parity in PARITY_CHOICES:
                for t in (None, 1, 2, 3, 4, 5):
                    flt = PartitionFilter(min_part=min_part, exact_parts=t, parity=parity)
                    want = [x for x in everything if admits(flt, x)]
                    assert enumerate_partitions(n, flt) == want, (n, flt)


def test_dropped_enumeration_leaves_no_cycle():
    # a strict survey drops one uncached enumeration per even kernel: its
    # elements must be freed by reference counts alone, not left for the
    # collector (a recursive closure over itself held them in a cycle)
    gc.collect()
    gc.disable()
    try:
        for n in (0, 1, 6, 17, 30):
            for min_part in range(1, 4):
                for parity in PARITY_CHOICES:
                    for t in (None, 1, 3):
                        flt = PartitionFilter(min_part=min_part, exact_parts=t, parity=parity)
                        enumerate_partitions(n, flt)
        assert gc.collect() == 0
    finally:
        gc.enable()
