"""The cycle form, its lemmas, and group algebra plumbing."""

import random
from fractions import Fraction

import pytest

from bicolored.cycleform import (GroupAlgebraElement, bound_1a_gap, bound_5_gap,
                                 bracket_prime_cycle, cycle_form, cycle_form_bilinear,
                                 cycle_form_via_decomposition)
from bicolored.perm import (CycleType, Permutation, all_permutations, cycle_type,
                            disjoint, make_cycle, partitions, total_cycles)


def orbit_count(sa, sb):
    """Orbits of the joint action of (sa, sb) on the p x q grid."""
    seen = set()
    orbits = 0
    for i in range(1, sa.n + 1):
        for j in range(1, sb.n + 1):
            if (i, j) not in seen:
                orbits += 1
                a, b = i, j
                while (a, b) not in seen:
                    seen.add((a, b))
                    a, b = sa(a), sb(b)
    return orbits


def test_cycle_form_examples():
    assert cycle_form(Permutation([2, 1, 3]), Permutation([2, 3, 1])) == 2
    assert cycle_form(Permutation([2, 3, 1]), Permutation([2, 1, 4, 3, 5])) == 3
    id4 = Permutation.identity(4)
    for q in range(1, 5):
        for mu in partitions(q):
            assert cycle_form(id4, mu) == 4 * total_cycles(mu)
    assert cycle_form(CycleType(4, {4: 1}), CycleType(6, {6: 1})) == 2


def test_cycle_form_is_symmetric():
    for la in partitions(5):
        for mu in partitions(6):
            assert cycle_form(la, mu) == cycle_form(mu, la)


def test_cycle_form_counts_grid_orbits():
    for p in range(1, 5):
        for q in range(1, 5):
            for sa in all_permutations(p):
                for sb in all_permutations(q):
                    assert cycle_form(sa, sb) == orbit_count(sa, sb)
    rng = random.Random(23)
    for _ in range(40):
        ia = list(range(1, 7))
        ib = list(range(1, 6))
        rng.shuffle(ia)
        rng.shuffle(ib)
        sa, sb = Permutation(ia), Permutation(ib)
        assert cycle_form(sa, sb) == orbit_count(sa, sb)


def test_group_algebra_arithmetic():
    s = Permutation([2, 1, 3])
    t = Permutation([1, 3, 2])
    x = GroupAlgebraElement.of(s) + 2 * GroupAlgebraElement.of(t)
    assert x.terms[s] == 1 and x.terms[t] == 2
    prod = GroupAlgebraElement.of(s) * GroupAlgebraElement.of(t)
    assert prod.terms == {s * t: 1}
    assert (x - x).terms == {}
    one = GroupAlgebraElement.one(3)
    assert (one * x).terms == x.terms
    with pytest.raises(ValueError):
        GroupAlgebraElement(3, {Permutation([2, 1]): 1})


def test_bilinear_extension():
    rng = random.Random(29)
    perms4 = list(all_permutations(4))
    perms3 = list(all_permutations(3))
    for _ in range(50):
        x = GroupAlgebraElement(4, {rng.choice(perms4): rng.randint(-3, 3) for _ in range(3)})
        y = GroupAlgebraElement(4, {rng.choice(perms4): rng.randint(-3, 3) for _ in range(3)})
        b = GroupAlgebraElement(3, {rng.choice(perms3): rng.randint(-3, 3) for _ in range(2)})
        assert cycle_form_bilinear(x + y, b) == \
            cycle_form_bilinear(x, b) + cycle_form_bilinear(y, b)
        direct = sum(cx * cb * cycle_form(g, h)
                     for g, cx in x.terms.items() for h, cb in b.terms.items())
        assert cycle_form_bilinear(x, b) == direct


def test_radical_vanishes_on_disjoint_products():
    # <(1 - alpha)(1 - alpha'), beta> = 0 whenever alpha, alpha' are disjoint
    for p in (3, 4, 5):
        one = GroupAlgebraElement.one(p)
        perms = list(all_permutations(p))
        pairs = [(a, ap) for a in perms for ap in perms if disjoint(a, ap)]
        for a, ap in pairs:
            x = (one - GroupAlgebraElement.of(a)) * (one - GroupAlgebraElement.of(ap))
            for sb in all_permutations(3):
                assert cycle_form_bilinear(x, GroupAlgebraElement.of(sb)) == 0


def test_decomposition_matches_direct_form():
    for p in range(1, 7):
        for q in range(1, 7):
            for la in partitions(p):
                for mu in partitions(q):
                    assert cycle_form_via_decomposition(la, mu) == cycle_form(la, mu)


def test_decomposition_example():
    # alpha = (1 2)(3 4) on 4 points against a 3-cycle on 3 points
    la = CycleType(4, {2: 2})
    mu = CycleType(3, {3: 1})
    assert cycle_form(la, mu) == 2
    assert cycle_form_via_decomposition(la, mu) == 2


def test_bound_1a_gap_nonnegative_and_p_free():
    for q in range(1, 7):
        for mu in partitions(q):
            for length in range(1, 7):
                gaps = {bound_1a_gap(length, p, mu) for p in (length, length + 1, length + 4)}
                assert len(gaps) == 1
                assert gaps.pop() >= 0
    assert bound_1a_gap(1, 5, CycleType(4, {2: 2})) == 0
    with pytest.raises(ValueError):
        bound_1a_gap(5, 4, CycleType(3, {3: 1}))
    with pytest.raises(ValueError):
        bound_1a_gap(0, 4, CycleType(3, {3: 1}))


def test_bound_1a_gap_matches_form_on_a_cycle():
    # <1 - gamma, beta> - (length-1)(c(beta) - q/length), with <gamma, beta> taken by
    # cycle_form on the permutation (1 2 ... length) of S_p
    for q in range(1, 8):
        for mu in partitions(q):
            cb = total_cycles(mu)
            for p in range(1, 8):
                for length in range(1, p + 1):
                    gamma = make_cycle(p, length)
                    want = (Fraction(p * cb - cycle_form(gamma, mu))
                            - (length - 1) * (cb - Fraction(q, length)))
                    assert bound_1a_gap(length, p, mu) == want, (length, p, mu)


def test_bound_1a_gap_tight_cases():
    # equality at length 2 against a fixed-point-free involution
    assert bound_1a_gap(2, 2, CycleType(4, {2: 2})) == 0
    assert bound_1a_gap(2, 6, CycleType(6, {2: 3})) == 0


def test_bound_5_gap_nonnegative():
    for n in range(1, 11):
        for la in partitions(n):
            assert bound_5_gap(la) >= 0
    assert bound_5_gap(CycleType(3, {1: 3})) == 3
    assert bound_5_gap(CycleType(2, {2: 1})) == 1


def test_prime_cycle_bracket():
    for length in (2, 3, 5, 7):
        for p in range(length, 8):
            for q in range(1, 8):
                for mu in partitions(q):
                    la = CycleType(p, {length: 1, 1: p - length} if p > length else {length: 1})
                    assert cycle_form(la, mu) == bracket_prime_cycle(length, p, mu)
    # compositeness matters: length 4 against a 2-cycle breaks the formula
    mu = CycleType(2, {2: 1})
    la = CycleType(4, {4: 1})
    assert cycle_form(la, mu) == 2
    assert bracket_prime_cycle(4, 4, mu) == 1
