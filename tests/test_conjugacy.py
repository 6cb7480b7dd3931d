import itertools
import math
import pickle
from collections import Counter

import pytest

from aglcount import conjugacy
from aglcount.conjugacy import (
    ClassIndex,
    PartitionTuple,
    compute_D,
    enumerate_classes,
)
from aglcount.numtheory import multiplicative_order, psi
from aglcount.partitions import canon, enumerate_partitions, order_key, support, weight
from brute import brute_conjugacy_classes


def partition_tuple(d, psi_d, entries):
    """The tuple for order d with the nonempty entries canonical and in
    partition order, as the enumeration stores them (test helper)."""
    kept = tuple(sorted(filter(None, map(canon, entries)), key=order_key))
    return PartitionTuple(d=d, psi=psi_d, entries=kept)


def test_compute_D_examples():
    assert compute_D(1, 2) == ()
    assert compute_D(2, 2) == (3,)
    assert compute_D(2, 3) == (2, 4, 8)


def test_compute_D_definition():
    for q in (2, 3, 4):
        for n in range(1, 7):
            expected = {
                d
                for d in range(2, q**n)
                if any((q**i - 1) % d == 0 for i in range(1, n + 1))
            }
            assert set(compute_D(n, q)) == expected


def enumerate_omega(n, q):
    """The unmarked indices: one per (unipotent partition, spectra) pair."""
    return [idx for idx in enumerate_classes(n, q) if idx.marker is None]


def two_layer_classes(n, q):
    """Reference order: every (unipotent partition, spectra) pair by spectra
    weight, spectra and partition, each followed at once by its
    translation-marked copies, ascending."""
    dinfo = conjugacy._d_info(n, q)
    for w in range(n + 1):
        for spectra in conjugacy._iter_spectra(dinfo, conjugacy._fitting(n, q), 0, w):
            for lam in enumerate_partitions(n - w):
                yield ClassIndex(n=n, q=q, unipotent=lam, spectra=spectra)
                for t in support(lam):
                    yield ClassIndex(n=n, q=q, unipotent=lam, spectra=spectra, marker=t)


def unbisected_spectra(dinfo, start, budget):
    """The former spectra walk: every order d from position start on, at
    every level, skipping the ones with o_d > budget."""
    if budget == 0:
        yield ()
        return
    for j in range(start, len(dinfo)):
        d, o, psi_d = dinfo[j]
        if o > budget:
            continue
        for m in range(1, budget // o + 1):
            for entries in conjugacy._tuple_shapes(m, min(psi_d, m)):
                head = PartitionTuple(d=d, psi=psi_d, entries=entries)
                for tail in unbisected_spectra(dinfo, j + 1, budget - o * m):
                    yield (head, *tail)


@pytest.mark.parametrize("q, n", [(2, 16), (3, 9), (4, 6), (5, 7), (7, 5), (8, 5), (9, 4)])
def test_bisected_spectra_walk_matches_the_full_scan(q, n):
    # the bench's sizes and the F_4, F_8, F_9 ones: the same tuples in the
    # same order at every spectra weight
    dinfo, fitting = conjugacy._d_info(n, q), conjugacy._fitting(n, q)
    assert [len(positions) for positions in fitting] == [
        sum(o <= b for _, o, _ in dinfo) for b in range(n + 1)
    ]
    for w in range(n + 1):
        ours = list(conjugacy._iter_spectra(dinfo, fitting, 0, w))
        assert ours == list(unbisected_spectra(dinfo, 0, w)), (q, n, w)


@pytest.mark.parametrize("q,n_max", [(2, 8), (3, 5), (4, 4), (5, 3)])
def test_classes_follow_the_two_layer_order(q, n_max):
    for n in range(1, n_max + 1):
        ours = list(enumerate_classes(n, q))
        assert ours == list(two_layer_classes(n, q)), n
        # each spectra tuple is built once and shared by all its indices
        for _, run in itertools.groupby(ours, key=lambda idx: idx.spectra):
            first, *rest = run
            assert all(idx.spectra is first.spectra for idx in rest), n


def test_class_index_value_semantics():
    spec = (PartitionTuple(80, 8, ((1,),)),)
    keyword = ClassIndex(n=4, q=3, unipotent=(), spectra=spec)
    positional = ClassIndex(4, 3, (), spec, None)
    assert keyword == positional and hash(keyword) == hash(positional)
    with pytest.raises(AttributeError):
        keyword.marker = 1
    with pytest.raises(AttributeError):
        spec[0].psi = 2
    assert pickle.loads(pickle.dumps(keyword)) == keyword
    assert repr(keyword) == (
        "ClassIndex(n=4, q=3, unipotent=(), "
        "spectra=(PartitionTuple(d=80, psi=8, entries=((1,),)),), marker=None)"
    )


def brute_omega(n, q):
    """Independent enumeration: full psi-length tuples over every d, then
    canonicalized.  Exponential but fine at n <= 4."""
    dlist = [(d, multiplicative_order(q, d), psi(d, q)) for d in compute_D(n, q)]
    partitions_by_weight = {w: list(enumerate_partitions(w)) for w in range(n + 1)}

    def tuples_for(d, o, psi_d, budget):
        # nondecreasing psi_d-tuples with total o * weight <= budget
        out = []

        def rec(idx, prev_key, remaining, acc):
            if idx == psi_d:
                out.append((tuple(acc), remaining))
                return
            for w in range(remaining // o + 1):
                for lam in partitions_by_weight[w]:
                    key = order_key(lam)
                    if prev_key is not None and key < prev_key:
                        continue
                    acc.append(lam)
                    rec(idx + 1, key, remaining - o * w, acc)
                    acc.pop()

        rec(0, None, budget, [])
        return out

    results = set()

    def assign(level, remaining, acc):
        if level == len(dlist):
            if remaining >= 0:
                for w in range(remaining + 1):
                    if w == remaining:
                        for lam in partitions_by_weight[w]:
                            results.add((lam, tuple(acc)))
            return
        d, o, psi_d = dlist[level]
        for tup, left in tuples_for(d, o, psi_d, remaining):
            acc.append((d, tup))
            assign(level + 1, left, acc)
            acc.pop()

    assign(0, n, [])
    return results


def as_brute_form(idx):
    dlist = compute_D(idx.n, idx.q)
    spectra = {t.d: t for t in idx.spectra}
    padded = []
    for d in dlist:
        if d in spectra:
            t = spectra[d]
            padded.append((d, ((),) * (t.psi - len(t.entries)) + t.entries))
        else:
            padded.append((d, ((),) * psi(d, idx.q)))
    return (idx.unipotent, tuple(padded))


@pytest.mark.parametrize("n,q", [(1, 2), (2, 2), (3, 2), (2, 3)])
def test_omega_matches_brute_enumeration(n, q):
    ours = [as_brute_form(i) for i in enumerate_omega(n, q)]
    assert len(set(ours)) == len(ours)
    assert set(ours) == brute_omega(n, q)


def test_omega_small_examples():
    items = list(enumerate_omega(1, 2))
    assert len(items) == 1
    assert items[0].unipotent == (1,) and items[0].spectra == ()

    items = list(enumerate_omega(2, 2))
    assert len(items) == 3
    shapes = {(i.unipotent, tuple((t.d, t.entries) for t in i.spectra)) for i in items}
    assert shapes == {((2,), ()), ((0, 1), ()), ((), ((3, ((1,),)),))}


def test_omega_weight_identity():
    for q in (2, 3):
        for n in range(1, 6):
            for idx in enumerate_omega(n, q):
                idx.validate()
                total = weight(idx.unipotent) + sum(
                    multiplicative_order(q, t.d) * t.total_weight() for t in idx.spectra
                )
                assert total == n


def test_classes_expand_omega_exactly():
    for q in (2, 3):
        for n in range(1, 5):
            expanded = []
            for idx in enumerate_omega(n, q):
                expanded.append(idx)
                for t in support(idx.unipotent):
                    expanded.append(
                        ClassIndex(
                            n=n, q=q, unipotent=idx.unipotent, spectra=idx.spectra, marker=t
                        )
                    )
            assert expanded == list(enumerate_classes(n, q))


def class_count(n, q):
    """Number of conjugacy classes of AGL(n, F_q): indices weighted by fold size."""
    return sum(idx.multiplicity() for idx in enumerate_classes(n, q))


def test_class_counts_match_group_oracle():
    # (q, n) pairs; weighted count = true number of conjugacy classes
    for q, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        assert class_count(n, q) == brute_conjugacy_classes(n, q), (q, n)


def test_class_counts_with_nontrivial_folds():
    # q = 4 at n = 1 folds the two order-3 linear maps into one index of
    # multiplicity 2; q = 5 folds the order-4 pair likewise
    for q, n in [(4, 1), (5, 1), (4, 2), (8, 1), (9, 1)]:
        assert class_count(n, q) == brute_conjugacy_classes(n, q), (q, n)
    indices = list(enumerate_classes(1, 4))
    assert len(indices) < class_count(1, 4)
    for idx in indices:
        idx.validate()


def test_class_count_examples():
    assert class_count(1, 2) == 2
    assert class_count(2, 2) == 5
    assert class_count(1, 3) == 3


def permutation_count(t):
    """Distinct arrangements of the full psi-slot tuple: psi! over the
    factorials of the slot-content multiplicities, empty slots included
    (test reference)."""
    counts = Counter(t.entries)
    counts[()] = t.psi - len(t.entries)
    return math.factorial(t.psi) // math.prod(math.factorial(c) for c in counts.values())


def test_permutation_count_examples():
    t = partition_tuple(7, 2, [(1, 2), (2, 0, 1)])
    assert permutation_count(t) == 2
    t = partition_tuple(7, 2, [(1,), (1,)])
    assert permutation_count(t) == 1
    t = partition_tuple(5, 3, [(), (), ()])
    assert permutation_count(t) == 1
    assert t.entries == ()
    # one nonempty entry in 4 slots: 4 arrangements
    t = partition_tuple(15, 4, [(1,)])
    assert permutation_count(t) == 4
    # the fold multiplicity of an index is the product over its tuples
    for q, n in ((2, 8), (3, 5), (4, 4)):
        for idx in enumerate_classes(n, q):
            assert idx.multiplicity() == math.prod(permutation_count(s) for s in idx.spectra), idx


def test_partition_tuple_validation():
    # 3 nonempty > psi = 2
    crowded = ClassIndex(n=12, q=2, unipotent=(), spectra=(partition_tuple(7, 2, [(1,), (1,), (2,)]),))
    with pytest.raises(ValueError, match="too many entries"):
        crowded.validate()


def test_class_index_validation():
    good = ClassIndex(n=2, q=2, unipotent=(2,), spectra=(), marker=1)
    good.validate()
    with pytest.raises(ValueError):
        ClassIndex(n=2, q=2, unipotent=(2,), spectra=(), marker=2).validate()
    with pytest.raises(ValueError):
        ClassIndex(n=3, q=2, unipotent=(2,), spectra=(), marker=None).validate()
    with pytest.raises(ValueError):
        ClassIndex(
            n=2,
            q=2,
            unipotent=(),
            spectra=(partition_tuple(3, 1, [(1,)]),),
            marker=1,
        ).validate()
    # an unsorted tuple would double its multiplicity (120 for the 60 of
    # the sorted one) and so its representatives
    unsorted = PartitionTuple(d=31, psi=6, entries=((1,), (2,), (1,)))
    bad = ClassIndex(n=20, q=2, unipotent=(), spectra=(unsorted,))
    canonical = ClassIndex(n=20, q=2, unipotent=(), spectra=(partition_tuple(31, 6, unsorted.entries),))
    canonical.validate()
    assert (bad.multiplicity(), canonical.multiplicity()) == (120, 60)
    with pytest.raises(ValueError, match="not canonical"):
        bad.validate()
    with pytest.raises(ValueError, match="not canonical"):
        ClassIndex(n=2, q=2, unipotent=(2, 0), spectra=()).validate()


def test_enumeration_is_deterministic():
    first = [as_brute_form(i) for i in enumerate_classes(4, 2)]
    second = [as_brute_form(i) for i in enumerate_classes(4, 2)]
    assert first == second


@pytest.mark.parametrize("q,n", [(2, 10), (3, 5), (5, 4)])
def test_weight_parts_concatenate_to_the_full_stream(q, n):
    parts = [idx for w in range(n + 1) for idx in enumerate_classes(n, q, w)]
    assert parts == list(enumerate_classes(n, q))
    for w in range(n + 1):
        assert all(weight(idx.unipotent) == n - w for idx in enumerate_classes(n, q, w)), w


@pytest.mark.parametrize("w", [-1, 5, 9])
def test_spectra_weight_outside_range_raises(w):
    with pytest.raises(ValueError, match=f"spectra weight w = {w} outside 0..4"):
        list(enumerate_classes(4, 2, w))


def unipotent_outer_classes(n, q):
    # the unipotent-outer order: every unipotent partition, then all spectra
    # tuples of the remaining weight, then the translation-marked copies
    dinfo = conjugacy._d_info(n, q)
    for w in range(n, -1, -1):
        for lam in enumerate_partitions(w):
            for spectra in conjugacy._iter_spectra(dinfo, conjugacy._fitting(n, q), 0, n - w):
                for marker in (None, *support(lam)):
                    yield ClassIndex(n=n, q=q, unipotent=lam, spectra=spectra, marker=marker)


@pytest.mark.parametrize("n,q", [(12, 2), (7, 3), (5, 5), (4, 7)])
def test_spectra_first_order_matches_unipotent_outer(n, q):
    ours = list(enumerate_classes(n, q))
    assert Counter(ours) == Counter(unipotent_outer_classes(n, q))
    # each spectra tuple fills exactly one contiguous run of indices
    runs = [spectra for spectra, _ in itertools.groupby(i.spectra for i in ours)]
    assert len(runs) == len(set(runs))
    # spectra weight ascends, so unipotent weight descends
    weights = [weight(i.unipotent) for i in ours]
    assert weights == sorted(weights, reverse=True)


def test_gl_class_counts_match_known_sequence():
    # conjugacy classes of the general linear group over F_2, n = 1..8
    got = [sum(i.multiplicity() for i in enumerate_omega(n, 2)) for n in range(1, 9)]
    assert got == [1, 3, 6, 14, 27, 60, 117, 246]


def gl_class_counts(q, top):
    """k(GL(n, q)) for n = 0 .. top: the coefficients of the power series
    prod_{i >= 1} (1 - x**i) / (1 - q x**i) (Feit & Fine 1960)."""
    series = [1] + [0] * top
    for i in range(1, top + 1):
        series = [c - (series[n - i] if n >= i else 0) for n, c in enumerate(series)]
        for n in range(i, top + 1):  # divided by 1 - q x**i
            series[n] += q * series[n - i]
    return series


def test_multiplicities_sum_to_the_gl_class_count():
    # the unmarked indices fold the classes of GL(n, q), so their
    # multiplicities add up to k(GL(n, q)), with no centralizer formula
    assert gl_class_counts(2, 12)[1:] == [1, 3, 6, 14, 27, 60, 117, 246, 490, 1002, 1998, 4053]
    for q, top in ((2, 12), (3, 7), (4, 5), (5, 5), (7, 4), (8, 4), (9, 4)):
        want = gl_class_counts(q, top)
        for n in range(1, top + 1):
            assert sum(idx.multiplicity() for idx in enumerate_omega(n, q)) == want[n], (q, n)
