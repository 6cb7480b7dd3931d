import itertools

import pytest

from aglcount.partitions import (
    canon,
    enumerate_partitions,
    largest_part,
    order_key,
    parts_descending,
    support,
    weight,
)


def direct_compare(a, b):
    """The defining rule: weight first, then the multiplicity at the largest
    index where the two differ."""
    wa, wb = weight(a), weight(b)
    if wa != wb:
        return -1 if wa < wb else 1
    length = max(len(a), len(b))
    pa = a + (0,) * (length - len(a))
    pb = b + (0,) * (length - len(b))
    for i in range(length - 1, -1, -1):
        if pa[i] != pb[i]:
            return -1 if pa[i] < pb[i] else 1
    return 0


def partition_compare(a, b):
    """-1, 0 or 1 as a < b, a == b, a > b under order_key."""
    ka, kb = order_key(a), order_key(b)
    return (ka > kb) - (ka < kb)


def test_compare_examples():
    assert partition_compare((3,), (1, 1)) == -1
    assert partition_compare((1, 1), (0, 0, 1)) == -1
    assert partition_compare((2,), (2,)) == 0


def test_compare_matches_direct_rule_everywhere():
    pool = [p for w in range(9) for p in enumerate_partitions(w)]
    for a, b in itertools.product(pool, repeat=2):
        assert partition_compare(a, b) == direct_compare(a, b), (a, b)


def test_total_order_properties():
    pool = [p for p in enumerate_partitions(8)]
    for a, b in itertools.product(pool, repeat=2):
        ca, cb = partition_compare(a, b), partition_compare(b, a)
        assert ca == -cb
        assert (ca == 0) == (a == b)
    keys = [order_key(p) for p in pool]
    assert len(set(keys)) == len(keys)
    for a, b, c in itertools.product(pool, repeat=3):
        if partition_compare(a, b) <= 0 and partition_compare(b, c) <= 0:
            assert partition_compare(a, c) <= 0


def test_enumerate_weight_zero_and_three():
    assert enumerate_partitions(0) == ((),)
    assert enumerate_partitions(3) == ((3,), (1, 1), (0, 0, 1))
    assert len(enumerate_partitions(4)) == 5


def brute_partition_count(w):
    """Independent count: descending part lists."""

    def rec(total, max_part):
        if total == 0:
            return 1
        return sum(rec(total - p, p) for p in range(min(total, max_part), 0, -1))

    return rec(w, w)


def test_enumerate_counts_and_canonical_form():
    for w in range(11):
        parts = enumerate_partitions(w)
        assert len(parts) == brute_partition_count(w)
        assert len(set(parts)) == len(parts)
        for lam in parts:
            assert weight(lam) == w
            assert lam == canon(lam)  # no trailing zeros
            assert sorted(parts, key=order_key) == list(parts)


def test_helpers():
    lam = (2, 0, 1, 3)
    assert weight(lam) == 2 * 1 + 1 * 3 + 3 * 4 == 17
    assert support(lam) == (1, 3, 4)
    assert largest_part(lam) == 4
    assert largest_part(()) == 0
    assert parts_descending(lam) == (4, 4, 4, 3, 1, 1)
    with pytest.raises(ValueError):
        canon((1, -1))
