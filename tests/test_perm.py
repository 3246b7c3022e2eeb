"""Permutation plumbing: cycle types, partitions, class sizes."""

import math
import random

import pytest

from bicolored.perm import (Permutation, CycleType, all_permutations, class_size, compose,
                            cycle_type, disjoint, generators, make_cycle, partitions,
                            total_cycles)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])
    with pytest.raises(ValueError):
        Permutation([0, 1])
    assert Permutation([]).n == 0


def test_cycle_type_examples():
    assert cycle_type(Permutation.identity(4)).counts == {1: 4}
    s = Permutation.from_cycles(5, (1, 2), (3, 4))
    assert cycle_type(s).counts == {1: 1, 2: 2}
    assert cycle_type(Permutation.from_cycles(3, (1, 2, 3))).counts == {3: 1}


def test_total_cycles_examples():
    assert total_cycles(CycleType(4, {1: 4})) == 4
    assert total_cycles(CycleType(5, {1: 1, 2: 2})) == 3
    assert total_cycles(CycleType(3, {3: 1})) == 1


def test_cycle_type_rejects_bad_counts():
    with pytest.raises(ValueError):
        CycleType(4, {2: 1})
    with pytest.raises(ValueError):
        CycleType(2, {0: 2})


def test_partitions_counts():
    assert len(list(partitions(0))) == 1
    assert len(list(partitions(4))) == 5
    assert len(list(partitions(10))) == 42


def test_partitions_reverse_lex_order():
    def parts_tuple(t):
        out = []
        for r, c in sorted(t.counts.items(), reverse=True):
            out.extend([r] * c)
        return tuple(out)

    seq = [parts_tuple(t) for t in partitions(6)]
    assert seq[0] == (6,)
    assert seq[-1] == (1,) * 6
    assert seq == sorted(seq, reverse=True)
    assert len(set(seq)) == len(seq)


def partitions_recursive(n):
    """Partitions of n as part tuples, reverse-lexicographic, by nested generators, as
    partitions produced them before it moved to multiplicity form."""
    def gen(m, largest):
        if m == 0:
            yield ()
            return
        for first in range(min(m, largest), 0, -1):
            for rest in gen(m - first, first):
                yield (first,) + rest
    return gen(n, n if n else 1)


def test_partitions_match_recursive_stream():
    for n in range(26):
        want = [CycleType(n, {r: parts.count(r) for r in parts})
                for parts in partitions_recursive(n)]
        got = list(partitions(n))
        assert got == want, n
        # the counts list parts from the largest down, as the recursive stream built them
        assert all(list(t.counts) == sorted(t.counts, reverse=True) for t in got), n


def test_class_sizes():
    assert class_size(CycleType(5, {1: 5})) == 1
    assert class_size(CycleType(3, {2: 1, 1: 1})) == 3
    assert class_size(CycleType(3, {3: 1})) == 2
    for n in range(13):
        assert sum(class_size(t) for t in partitions(n)) == math.factorial(n)


def test_class_size_matches_brute_force():
    for n in range(1, 7):
        census = {}
        for s in all_permutations(n):
            t = cycle_type(s)
            census[t] = census.get(t, 0) + 1
        for t, count in census.items():
            assert class_size(t) == count


def test_make_cycle():
    assert make_cycle(3, 1) == Permutation.identity(3)
    assert make_cycle(4, 2) == Permutation.from_cycles(4, (1, 2))
    assert make_cycle(5, 5) == Permutation.from_cycles(5, (1, 2, 3, 4, 5))
    with pytest.raises(ValueError):
        make_cycle(3, 4)


def test_generators_generate_the_symmetric_group():
    # (1 2) and (1 2 ... n), one permutation at n = 2 and none below; closing them under
    # composition reaches all n! image tuples
    for n in range(8):
        gens = generators(n)
        assert len(gens) == max(0, min(n - 1, 2)), n
        assert all(sorted(g) == list(range(1, n + 1)) for g in gens), n
        identity = tuple(range(1, n + 1))
        group, stack = {identity}, [identity]
        while stack:
            s = stack.pop()
            for g in gens:
                t = tuple(g[i - 1] for i in s)
                if t not in group:
                    group.add(t)
                    stack.append(t)
        assert len(group) == math.factorial(n), n


def test_disjoint_and_compose():
    a = Permutation.from_cycles(4, (1, 2))
    b = Permutation.from_cycles(4, (3, 4))
    assert disjoint(a, b)
    c = Permutation.from_cycles(3, (1, 2))
    d = Permutation.from_cycles(3, (2, 3))
    assert not disjoint(c, d)
    r = Permutation.from_cycles(3, (1, 2, 3))
    assert compose(r, r) == Permutation.from_cycles(3, (1, 3, 2))
    with pytest.raises(ValueError):
        disjoint(a, c)
    with pytest.raises(ValueError):
        compose(a, c)


def test_conjugation_invariance_exhaustive():
    for n in range(1, 6):
        perms = list(all_permutations(n))
        for s in perms:
            t = cycle_type(s)
            for pi in perms:
                assert cycle_type(compose(compose(pi, s), pi.inverse())) == t


def test_disjoint_product_properties():
    rng = random.Random(7)
    hits = 0
    while hits < 100:
        n = rng.randint(2, 8)
        pts = list(range(1, n + 1))
        rng.shuffle(pts)
        cut = rng.randint(1, n - 1)
        left, right = pts[:cut], pts[cut:]
        a_img = list(range(1, n + 1))
        order = left[:]
        rng.shuffle(order)
        for x, y in zip(left, order):
            a_img[x - 1] = y
        b_img = list(range(1, n + 1))
        order = right[:]
        rng.shuffle(order)
        for x, y in zip(right, order):
            b_img[x - 1] = y
        a, b = Permutation(a_img), Permutation(b_img)
        assert disjoint(a, b)
        ab = compose(a, b)
        assert ab == compose(b, a)
        ta, tb, tab = cycle_type(a), cycle_type(b), cycle_type(ab)
        for r in range(2, n + 1):
            assert tab.get(r) == ta.get(r) + tb.get(r)
        hits += 1


def test_sigma_zero():
    e = Permutation([])
    assert cycle_type(e).counts == {}
    assert total_cycles(cycle_type(e)) == 0
    assert class_size(CycleType(0, {})) == 1
