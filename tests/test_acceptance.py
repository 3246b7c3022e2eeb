"""Acceptance gate: seven headline properties, one pass/fail line each."""

import random
import time
from fractions import Fraction
from math import factorial

from bicolored.bounds import (ao_bounds, growth_ratio, h_constant, ratio_table, tail_ratio,
                              theorem_bound, verify_H)
from bicolored.characters import (ClassFunctionTable, CyclicCharacter, avg_char,
                                  avg_char_naive, char_eval, twisted_product,
                                  twisted_product_naive, verify_cyclic)
from bicolored.cycleform import (GroupAlgebraElement, bound_1a_gap, bound_5_gap,
                                 bracket_prime_cycle, cycle_form, cycle_form_bilinear,
                                 cycle_form_via_decomposition)
from bicolored.enumeration import (count_exact, count_naive, free_fraction,
                                   free_fraction_lower_bound, orbit_census)
from bicolored.exact import QSqrt2, SQRT2, rising_factorial, stirling_first
from bicolored.perm import (CycleType, Permutation, all_permutations, disjoint,
                            make_cycle, partitions)

# reference six-decimal ratio table, rows p = 3, 6, ..., 48, columns k = 0..4
REFERENCE_TABLE = {
    3: ["0.67853", "0.448352", "0.281421", "0.164794", "0.089167"],
    6: ["0.236554", "0.278629", "0.321008", "0.355492", "0.37623"],
    9: ["0.401765", "0.581412", "0.769003", "0.943255", "1.089729"],
    12: ["0.737444", "0.964918", "1.174011", "1.352241", "1.495579"],
    15: ["1.13395", "1.332052", "1.495158", "1.62365", "1.721639"],
    18: ["1.488057", "1.620956", "1.722684", "1.798768", "1.854731"],
    21: ["1.731173", "1.805571", "1.860243", "1.899968", "1.928601"],
    24: ["1.869913", "1.907043", "1.933771", "1.95291", "1.966564"],
    27: ["1.940359", "1.957629", "1.969938", "1.978691", "1.984905"],
    30: ["1.973633", "1.981317", "1.98677", "1.990635", "1.993373"],
    33: ["1.98864", "1.99196", "1.994311", "1.995976", "1.997154"],
    36: ["1.995199", "1.996604", "1.997598", "1.998301", "1.998799"],
    39: ["1.998002", "1.998587", "1.999001", "1.999293", "1.9995"],
    42: ["1.999179", "1.999419", "1.999589", "1.99971", "1.999795"],
    45: ["1.999666", "1.999764", "1.999833", "1.999882", "1.999917"],
    48: ["1.999866", "1.999905", "1.999933", "1.999952", "1.999966"],
}

FIVE_BASES = [QSqrt2(2), QSqrt2(Fraction(1, 2)), SQRT2, QSqrt2(-1), QSqrt2(Fraction(3, 2))]


def random_perm_on(rng, n, support):
    """Random permutation of {1..n} moving points only inside the support."""
    images = list(range(1, n + 1))
    shuffled = list(support)
    rng.shuffle(shuffled)
    for src, dst in zip(support, shuffled):
        images[src - 1] = dst
    return Permutation(images)


def test_criterion_1_golden_table():
    """All 80 reference ratio entries match within one unit in place six."""
    start = time.monotonic()
    p_values = list(range(3, 49, 3))
    rows = ratio_table(p_values, range(5))
    elapsed = time.monotonic() - start
    mismatches = []
    for i, p in enumerate(p_values):
        for k in range(5):
            got = round(Fraction(rows[i][k]) * 10 ** 6)
            want = round(Fraction(REFERENCE_TABLE[p][k]) * 10 ** 6)
            if abs(got - want) > 1:
                mismatches.append((p, k, rows[i][k], REFERENCE_TABLE[p][k]))
    assert mismatches == []
    assert elapsed < 60.0


def test_criterion_2_oracle_equivalence():
    """Class-sum counts equal the naive and census oracles, exactly."""
    start = time.monotonic()
    for p in range(7):
        for q in range(7):
            assert count_exact(p, q) == count_naive(p, q)
    for p in range(17):
        for q in range(17):
            if p * q <= 16:
                assert count_exact(p, q) == orbit_census(p, q).orbit_count
    assert time.monotonic() - start < 120.0


def test_criterion_3_bound_chain():
    """Lower and theorem bounds hold on every pair up to twenty; the doubled
    bound holds where p >= q and is false at (1,q) for q >= 3.

    Over 1 <= p,q <= 20 the test asserts, exactly:
    (a) lower <= count on all 400 pairs;
    (b) theorem_bound - count >= 0 on all 400 pairs;
    (c) count <= doubled upper on the 210 pairs with p >= q;
    (d) on the q > p side, for 3 <= q <= 20: a 1 x q matrix up to column
        permutations is fixed by its number of ones, so the count at (1,q)
        is q + 1, while the doubled bound is 2 * 2^q / q!, which is smaller.
    The failure message tallies the three bounds over all 400 pairs.
    """
    start = time.monotonic()
    lower_bad, upper_bad, theorem_bad = [], [], []
    for p in range(1, 21):
        for q in range(1, 21):
            value = count_exact(p, q)
            lower, upper = ao_bounds(p, q)
            if not lower <= value:
                lower_bad.append((p, q))
            if not value <= upper:
                upper_bad.append((p, q))
            if (theorem_bound(p, q) - value).sign() < 0:
                theorem_bad.append((p, q))
    assert time.monotonic() - start < 60.0
    detail = (
        "of 400 pairs: lower bound holds on %d, theorem bound holds on %d, "
        "doubled upper bound fails on %d%s; smallest failure (1,3): "
        "count %d > upper %s"
        % (400 - len(lower_bad), 400 - len(theorem_bad), len(upper_bad),
           ", all with q > p" if all(q > p for p, q in upper_bad) else "",
           count_exact(1, 3), ao_bounds(1, 3)[1]))
    assert not lower_bad and not theorem_bad, detail
    assert all(q > p for p, q in upper_bad), detail
    for q in range(3, 21):
        value = count_exact(1, q)
        upper = ao_bounds(1, q)[1]
        assert value == q + 1
        assert upper == Fraction(2 ** (q + 1), factorial(q))
        assert upper < value, detail


def test_criterion_4_lemma_suites():
    """Radical, decomposition, gap, am-gm, and prime-cycle lemmas hold exactly."""
    rng = random.Random(0)
    for _ in range(300):
        p = rng.randint(2, 10)
        q = rng.randint(1, 10)
        pts = list(range(1, p + 1))
        rng.shuffle(pts)
        cut1 = rng.randint(0, p)
        cut2 = rng.randint(cut1, p)
        a = random_perm_on(rng, p, pts[:cut1])
        ap = random_perm_on(rng, p, pts[cut1:cut2])
        assert disjoint(a, ap)
        one = GroupAlgebraElement.one(p)
        x = (one - GroupAlgebraElement.of(a)) * (one - GroupAlgebraElement.of(ap))
        b = GroupAlgebraElement.of(random_perm_on(rng, q, range(1, q + 1)))
        assert cycle_form_bilinear(x, b) == 0
    for p in range(1, 10):
        for q in range(1, 10):
            for la in partitions(p):
                for mu in partitions(q):
                    assert cycle_form_via_decomposition(la, mu) == cycle_form(la, mu)
    for length in range(1, 8):
        for q in range(1, 10):
            for mu in partitions(q):
                assert bound_1a_gap(length, length, mu) >= 0
                assert bound_1a_gap(length, length + 3, mu) >= 0
    for p in range(1, 13):
        for la in partitions(p):
            assert bound_5_gap(la) >= 0
    for a in range(1, 21):
        for b in range(1, 21):
            assert rising_factorial(Fraction(a), b) <= (Fraction(a) + Fraction(b - 1, 2)) ** b
    for length in (2, 3, 5, 7):
        for p in (length, length + 2):
            la = CycleType(p, {length: 1, 1: p - length} if p > length else {length: 1})
            for q in range(1, 9):
                for mu in partitions(q):
                    assert cycle_form(la, mu) == bracket_prime_cycle(length, p, mu)


def test_criterion_5_character_suite():
    """Character axioms, averages, and twisted products agree exactly."""
    for p in range(1, 7):
        perms = list(all_permutations(p))
        supports = [(s, frozenset(s.moved())) for s in perms]
        pairs = [(s, t) for s, sa in supports for t, tb in supports if not sa & tb]
        for z in FIVE_BASES:
            chi = CyclicCharacter(p, z)
            assert char_eval(chi, Permutation.identity(p)) == 1
            for s, t in pairs:
                assert char_eval(chi, s * t) == char_eval(chi, s) * char_eval(chi, t)
            assert verify_cyclic(ClassFunctionTable([z ** (i - 1) for i in range(1, p + 1)]))
            for i in range(1, p + 1):
                assert char_eval(chi, make_cycle(p, i)) == z ** (i - 1)
    for p in range(0, 8):
        for z in FIVE_BASES:
            chi = CyclicCharacter(p, z)
            assert avg_char(chi) == avg_char_naive(chi)
    for p in range(1, 6):
        for q in range(1, 6):
            for z, zprime in zip(FIVE_BASES, FIVE_BASES[1:] + FIVE_BASES[:1]):
                assert twisted_product(p, z, q, zprime) == \
                    twisted_product_naive(p, z, q, zprime)
    points = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-3), Fraction(7, 5)]
    for n in range(31):
        for x in points:
            assert sum(stirling_first(n, k) * x ** k for k in range(n + 1)) == \
                rising_factorial(x, n)


def test_criterion_6_asymptotic_cutoffs():
    """Beyond each cutoff the argmax sits at p = h+1; tail ratios decrease."""
    start = time.monotonic()
    for k, cutoff in [(0, 12), (1, 10), (2, 7), (3, 1)]:
        assert h_constant(k) == cutoff
        for row in verify_H(k, h_max=64, p_max=512):
            if row.h >= cutoff:
                assert row.at_first, (k, row)
    values = [tail_ratio(h, 0) for h in range(5, 61)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert time.monotonic() - start < 30.0


def test_criterion_7_free_orbits_and_growth():
    """Free-orbit fractions, their lower bound, and the growth-ratio trend."""
    assert free_fraction(2, 2) == Fraction(1, 2)
    assert free_fraction(1, 1) == 1
    for p in range(3, 7):
        assert free_fraction(p, 1) == 0
    for p in range(17):
        for q in range(17):
            if p * q <= 16:
                assert free_fraction(p, q) >= free_fraction_lower_bound(p, q)
    ratios = [growth_ratio(p, 0) for p in (10, 14, 18, 22, 26)]
    assert all(r >= 1 for r in ratios)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < Fraction(11, 10)
