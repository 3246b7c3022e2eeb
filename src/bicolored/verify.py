"""Property suites behind the verify subcommand: every check prints pass or fail."""

import itertools
import math
import operator
import random
from fractions import Fraction

from . import exact
from .bounds import (_a, _bound_run, _tail, ao_bounds, growth_ratio, h_constant, ratio_table,
                     theorem_bound, verify_H)
from .characters import (ClassFunctionTable, CyclicCharacter, avg_char, avg_char_naive,
                         char_eval, twisted_product, twisted_product_naive, verify_cyclic)
from .cycleform import (GroupAlgebraElement, bound_1a_gap, bound_5_gap, bracket_prime_cycle,
                        cycle_form, cycle_form_bilinear, cycle_form_via_decomposition)
from .enumeration import (_count_by_classes, count_exact, count_naive, free_fraction,
                          free_fraction_lower_bound, orbit_census)
from .exact import QSqrt2, SQRT2, pow2, rising_factorial
from .perm import (Permutation, all_permutations, class_size, compose, cycle_type,
                   disjoint, generators, make_cycle, partitions, total_cycles, type_tally)

FIVE_BASES = [QSqrt2(2), QSqrt2(Fraction(1, 2)), SQRT2, QSqrt2(-1), QSqrt2(Fraction(3, 2))]

# spot cells of the published six-decimal ratio table
GOLDEN_CELLS = {
    (3, 0): "0.678530",
    (12, 2): "1.174011",
    (30, 2): "1.986770",
    (48, 0): "1.999866",
    (48, 4): "1.999966",
}

# where the maximum of a_{h,.} sits away from p = h+1 (h <= 64, p <= 512)
EXPECTED_FLAGGED_H = {0: {1, 2, 3, 4}, 1: {1, 2}, 2: {1}, 3: set()}


def _fixed_subsets(a, b):
    """Count subsets of the p x q grid fixed by the pair (a, b), by brute force.

    image[mask] is built for all 2^(pq) masks by doubling over the cells: the cell
    k = r q + c (counted from 0) goes to bit_k = 2^((a(r+1) - 1) q + b(c+1) - 1), so
    image[m + 2^k] = image[m] | bit_k for m < 2^k. The masks with image[m] == m count.
    """
    p, q = a.n, b.n
    image = [0]
    for r in range(p):
        for c in range(q):
            bit = 1 << ((a(r + 1) - 1) * q + (b(c + 1) - 1))
            image += [x | bit for x in image]
    return sum(map(operator.eq, image, range(len(image))))


def _conjugation_invariant(n, f):
    """Whether f(pi s pi^-1) = f(s) for all pi, s in S_n, with f taken once per permutation.

    Only pi in `generators(n)` are tried: they generate S_n and conjugation is an action,
    so f is invariant under every pi when it is under each. As image tuples,
    (g s g^-1)(i) = g(s(g^-1(i))).
    """
    perms = list(itertools.permutations(range(1, n + 1)))
    value = {s: f(Permutation(s)) for s in perms}
    for g in generators(n):
        g_inv = sorted(range(1, n + 1), key=lambda j: g[j - 1])
        look_g = ((0,) + g).__getitem__
        for s in perms:
            conj = tuple(map(look_g, map(((0,) + s).__getitem__, g_inv)))
            if value[conj] != value[s]:
                return False
    return True


def _random_perm_on(rng, n, support):
    """A random permutation of {1..n} moving points only inside the support."""
    support = list(support)
    images = list(range(1, n + 1))
    shuffled = support[:]
    rng.shuffle(shuffled)
    for a, b in zip(support, shuffled):
        images[a - 1] = b
    return Permutation(images)


def suite_characters(rng):
    checks = []

    ok = all(exact.stirling_first(n, n) == 1 for n in range(31))
    ok = ok and exact.stirling_first(3, 2) == 3 and exact.stirling_first(4, 2) == 11
    for n in range(7):
        row = {}
        for lengths, count in type_tally(n).items():
            row[len(lengths)] = row.get(len(lengths), 0) + count
        ok = ok and all(exact.stirling_first(n, k) == row.get(k, 0) for k in range(n + 1))
    checks.append(("stirling numbers vs brute-force cycle census (n <= 6)", ok, ""))

    # at x = a/b, both sides times b^n: sum c(n,k) a^k b^(n-k) = prod_{i<n} (a + i b)
    points = [(1, 1), (2, 1), (1, 2), (-3, 1), (7, 5)]
    ok = True
    for n in range(31):
        for a, b in points:
            lhs = sum(exact.stirling_first(n, k) * a ** k * b ** (n - k) for k in range(n + 1))
            ok = ok and lhs == math.prod(a + i * b for i in range(n))
    checks.append(("sum c(n,k) x^k = x rising, n <= 30, five rational points", ok, ""))

    ok = True
    for _ in range(1000):
        xs = []
        for _ in range(3):   # n1/d1 + (n2/d2) sqrt2, drawn in that order
            n1, d1, n2, d2 = (rng.randint(-9, 9), rng.randint(1, 9),
                              rng.randint(-9, 9), rng.randint(1, 9))
            xs.append(QSqrt2(n1 * d2, n2 * d1, d1 * d2))
        x, y, z = xs
        ok = ok and (x * y) * z == x * (y * z) and x * (y + z) == x * y + x * z
        ok = ok and (x * x.conjugate()).is_rational()
    checks.append(("Q(sqrt 2) ring axioms on 1000 random triples", ok, ""))

    # both sides times 2^b: 2^b a(a+1)...(a+b-1) <= (2a + b - 1)^b
    ok = all(2 ** b * math.prod(range(a, a + b)) <= (2 * a + b - 1) ** b
             for a in range(1, 21) for b in range(1, 21))
    checks.append(("arithmetic-geometric bound a rising b <= (a+(b-1)/2)^b, a,b <= 20", ok, ""))

    ok = True
    for _ in range(200):
        e = rng.randint(-40, 40)
        f = rng.randint(-40, 40)
        ok = ok and pow2(Fraction(e, 2)) * pow2(Fraction(f, 2)) == pow2(Fraction(e + f, 2))
    checks.append(("pow2(e) pow2(f) = pow2(e+f), 200 random half-integer pairs", ok, ""))

    ok = True
    detail = ""
    for n in range(2, 7):
        perms = list(itertools.permutations(range(1, n + 1)))
        ncyc = {s: total_cycles(cycle_type(Permutation(s))) for s in perms}
        moved = [sum(1 << i for i in range(n) if s[i] != i + 1) for s in perms]
        # the disjoint partners of s1: the permutations moving only points s1 fixes
        partners = {m: [s for s, m2 in zip(perms, moved) if not m & m2] for m in set(moved)}
        tables = [[z ** e for e in range(2 * n + 1)] for z in FIVE_BASES]
        verdicts = {}
        for s1, m in zip(perms, moved):
            look = ((0,) + s1).__getitem__
            e1 = n - ncyc[s1]
            for s2 in partners[m]:
                e2, e12 = n - ncyc[s2], n - ncyc[tuple(map(look, s2))]
                good = verdicts.get((e1, e2, e12))
                if good is None:
                    good = verdicts[e1, e2, e12] = all(table[e12] == table[e1] * table[e2]
                                                       for table in tables)
                if not good:
                    ok = False
                    detail = "at n=%d, %r, %r" % (n, Permutation(s1), Permutation(s2))
    checks.append(("disjoint multiplicativity, exhaustive p <= 6, five bases", ok, detail))

    ok = all(_conjugation_invariant(n, lambda s: total_cycles(cycle_type(s)))
             for n in range(1, 7))
    checks.append(("class function: c(pi s pi^-1) = c(s), exhaustive p <= 6", ok, ""))

    ok = all(char_eval(CyclicCharacter(n, z), Permutation.identity(n)) == 1
             for n in range(7) for z in FIVE_BASES)
    checks.append(("chi(identity) = 1 for p <= 6, five bases", ok, ""))

    ok = True
    for n in range(1, 7):
        for z in FIVE_BASES:
            chi = CyclicCharacter(n, z)
            ok = ok and all(char_eval(chi, make_cycle(n, i)) == z ** (i - 1)
                            for i in range(1, n + 1))
            ok = ok and verify_cyclic(ClassFunctionTable([z ** (i - 1) for i in range(1, n + 1)]))
    ok = ok and not verify_cyclic(ClassFunctionTable([1, 2, 5]))
    checks.append(("cyclicity: chi(gamma_i) = z^(i-1) and table check, p <= 6", ok, ""))

    ok = True
    for n in range(1, 8):
        for z in [QSqrt2(2), QSqrt2(Fraction(1, 2)), SQRT2, QSqrt2(-1)]:
            chi = CyclicCharacter(n, z)
            ok = ok and avg_char(chi) == avg_char_naive(chi)
    checks.append(("averaging formula vs literal average, p <= 7", ok, ""))

    ok = True
    for p in range(1, 6):
        for q in range(1, 6):
            for z, zp in [(QSqrt2(Fraction(1, 2)), QSqrt2(2)), (QSqrt2(Fraction(1, 2)), SQRT2)]:
                ok = ok and twisted_product(p, z, q, zp) == twisted_product_naive(p, z, q, zp)
    checks.append(("twisted product: Stirling form vs permutation form, p,q <= 5", ok, ""))

    one = QSqrt2(1)
    ok = all(twisted_product(p, one, q, one) == 1
             for p in range(1, 7) for q in range(1, 7))
    checks.append(("twisted product at z = z' = 1 equals 1, p,q <= 6", ok, ""))

    return checks


def suite_cycleform(rng):
    checks = []

    types = [list(partitions(n)) for n in range(13)]   # read by every class-pair check
    ok = len(types[4]) == 5 and len(types[10]) == 42
    for n in range(13):
        ok = ok and sum(class_size(t) for t in types[n]) == math.factorial(n)
    checks.append(("partition stream and class sizes sum to n!, n <= 12", ok, ""))

    ok = all(_conjugation_invariant(n, cycle_type) for n in range(1, 6))
    checks.append(("cycle type is conjugation invariant, exhaustive n <= 5", ok, ""))

    ok = True
    for _ in range(200):
        n = rng.randint(2, 8)
        pts = list(range(1, n + 1))
        rng.shuffle(pts)
        cut = rng.randint(1, n - 1)
        s1 = _random_perm_on(rng, n, pts[:cut])
        s2 = _random_perm_on(rng, n, pts[cut:])
        ok = ok and disjoint(s1, s2) and compose(s1, s2) == compose(s2, s1)
        t1, t2, t12 = cycle_type(s1), cycle_type(s2), cycle_type(compose(s1, s2))
        ok = ok and all(t12.get(r) == t1.get(r) + t2.get(r) for r in range(2, n + 1))
    checks.append(("disjoint permutations commute and cycle counts add (r >= 2)", ok, ""))

    ok = True
    for p in range(1, 7):
        for q in range(1, 7):
            for ta in types[p]:
                for tb in types[q]:
                    ok = ok and cycle_form(ta, tb) == cycle_form(tb, ta)
    checks.append(("cycle form symmetry under swapping slots, p,q <= 6", ok, ""))

    ok = True
    pairs = [(a, b) for p in range(1, 4) for q in range(1, 4)
             for a in all_permutations(p) for b in all_permutations(q)]
    rng_pairs = [(_random_perm_on(rng, 4, range(1, 5)), _random_perm_on(rng, 3, range(1, 4)))
                 for _ in range(25)]
    for a, b in pairs + rng_pairs:
        if _fixed_subsets(a, b) != 1 << cycle_form(a, b):
            ok = False
    checks.append(("2^<a,b> counts the subsets fixed by (a,b), exhaustive p,q <= 3", ok, ""))

    ok = True
    detail = ""
    count = 0
    while count < 300:
        p = rng.randint(2, 10)
        q = rng.randint(1, 10)
        pts = list(range(1, p + 1))
        rng.shuffle(pts)
        cut = rng.randint(1, p - 1)
        alpha = _random_perm_on(rng, p, pts[:cut])
        alpha2 = _random_perm_on(rng, p, pts[cut:])
        one = GroupAlgebraElement.one(p)
        x = (one - GroupAlgebraElement.of(alpha)) * (one - GroupAlgebraElement.of(alpha2))
        beta = GroupAlgebraElement.of(_random_perm_on(rng, q, range(1, q + 1)))
        value = cycle_form_bilinear(x, beta)
        if value != 0:
            ok = False
            detail = "nonzero at p=%d q=%d" % (p, q)
        count += 1
    checks.append(("radical identity <(1-a)(1-a'),b> = 0, 300 random disjoint triples", ok, detail))

    ok = True
    for p in range(1, 10):
        for q in range(1, 10):
            for ta in types[p]:
                for tb in types[q]:
                    if cycle_form_via_decomposition(ta, tb) != cycle_form(ta, tb):
                        ok = False
    checks.append(("decomposition evaluator equals the form, all class pairs p,q <= 9", ok, ""))

    ok = True
    for ell in (2, 3, 5, 7):
        for p in range(ell, 10):
            gamma = cycle_type(make_cycle(p, ell))
            for q in range(1, 9):
                for tb in types[q]:
                    if cycle_form(gamma, tb) != bracket_prime_cycle(ell, p, tb):
                        ok = False
    checks.append(("prime-cycle bracket identity, ell in {2,3,5,7}, q <= 8", ok, ""))

    ok = True
    for ell in range(1, 8):
        for p in (ell, ell + 2):
            for q in range(1, 10):
                for tb in types[q]:
                    if bound_1a_gap(ell, p, tb) < 0:
                        ok = False
    checks.append(("cycle-removal gap nonnegative, ell <= 7, q <= 9", ok, ""))

    ok = True
    for p in range(1, 13):
        for ta in types[p]:
            if bound_5_gap(ta) < 0:
                ok = False
    checks.append(("harmonic cycle-count gap nonnegative, all types p <= 12", ok, ""))

    return checks


def suite_bounds(rng):
    checks = []

    ok = count_exact(1, 1) == 2 and count_exact(2, 2) == 7 and count_exact(3, 3) == 36
    ok = ok and count_exact(1, 3) == 4 and count_exact(0, 5) == 1
    checks.append(("known counts (1,1)=2 (2,2)=7 (3,3)=36 (1,3)=4", ok, ""))

    ok = all(count_exact(p, q) == count_naive(p, q)
             for p in range(6) for q in range(6))
    checks.append(("class-sum count equals naive permutation sum, p,q <= 5", ok, ""))

    ok = True
    for p in range(13):
        for q in range(13):
            if 1 <= p * q <= 12:
                ok = ok and orbit_census(p, q).orbit_count == count_exact(p, q)
    checks.append(("class-sum count equals orbit census, p*q <= 12", ok, ""))

    # count_exact sorts the pair, so compare the kernel walking either side
    ok = all(_count_by_classes(p, q) == _count_by_classes(q, p)
             for p in range(13) for q in range(13))
    checks.append(("count symmetry in (p,q), p,q <= 12", ok, ""))

    ok = theorem_bound(1, 1) == 2 and theorem_bound(2, 2) == 8
    checks.append(("character bound values at (1,1) and (2,2)", ok, ""))

    ok = True  # T(p, q) = (A + B sqrt2) / (p! q!) >= count iff A - count p! q! + B sqrt2 >= 0
    for p in range(1, 13):
        for q, (a, b) in zip(range(1, 13), _bound_run(p, 1)):
            if exact._sign(a - count_exact(p, q) * math.factorial(p) * math.factorial(q), b) < 0:
                ok = False
    checks.append(("character bound dominates the count, p,q <= 12, exact sign", ok, ""))

    ok = ao_bounds(2, 2) == (Fraction(5), Fraction(10))
    ok = ok and ao_bounds(1, 1) == (Fraction(2), Fraction(4))
    ok = ok and ao_bounds(3, 3)[0] <= 36 <= ao_bounds(3, 3)[1]
    checks.append(("multiset-bound values at (2,2), (1,1), (3,3)", ok, ""))

    ok = True
    for p in range(1, 13):
        for q in range(1, p + 1):
            lower, upper = ao_bounds(p, q)
            value = count_exact(p, q)
            ok = ok and lower <= value <= upper
    checks.append(("multiset sandwich holds on p >= q, p <= 12", ok, ""))

    lower, upper = ao_bounds(1, 3)
    ok = count_exact(1, 3) > upper
    checks.append(("multiset upper bound fails at (1,3): 4 > 8/3 (known defect)", ok, ""))

    ok = True
    for p in range(1, 13):
        for q in range(1, 13):
            lower, _ = ao_bounds(p, q)
            ok = ok and lower <= count_exact(p, q)
    checks.append(("multiset lower bound holds everywhere, p,q <= 12", ok, ""))

    rows = ratio_table(range(3, 49, 3), range(5))
    table = {(p, k): rows[i][k] for i, p in enumerate(range(3, 49, 3)) for k in range(5)}
    ok = all(table[cell] == want for cell, want in GOLDEN_CELLS.items())
    checks.append(("ratio table spot cells match the published values", ok, ""))

    ok = True
    for k in range(5):
        col = [Fraction(table[(p, k)]) for p in range(9, 49, 3)]
        ok = ok and col == sorted(col) and col[-1] < 2
    checks.append(("ratio table columns increase toward 2 for p >= 9", ok, ""))

    ok = growth_ratio(2, 0) == Fraction(7, 4) and growth_ratio(1, 0) == 1
    seq = [growth_ratio(p, 0) for p in (10, 14, 18, 22, 26)]
    ok = ok and all(r >= 1 for r in seq)
    ok = ok and all(seq[i] > seq[i + 1] for i in range(len(seq) - 1))
    checks.append(("growth ratio >= 1 and decreasing along p = 10..26", ok, ""))

    ok = free_fraction(1, 1) == 1 and free_fraction(2, 2) == Fraction(1, 2)
    ok = ok and free_fraction(3, 1) == 0 and free_fraction(4, 1) == 0
    ok = ok and free_fraction_lower_bound(2, 2) == Fraction(1, 4)
    ok = ok and free_fraction_lower_bound(3, 1) == 0
    checks.append(("free fractions at the small reference points", ok, ""))

    ok = True
    for p in range(1, 13):
        for q in range(1, 13):
            if p * q <= 12:
                ok = ok and free_fraction(p, q) >= free_fraction_lower_bound(p, q)
    checks.append(("free fraction dominates its lower bound, p*q <= 12", ok, ""))

    ok = True
    for k in range(5):
        prev = None
        for p in range(4, 21):
            ratio = Fraction(math.prod(range(1 << p, (1 << p) + p + k)), 1 << p * (p + k))
            ok = ok and ratio >= 1 and (prev is None or ratio < prev)
            prev = ratio
    checks.append(("(2^p) rising over 2^(p(p+k)) is >= 1 and decreasing, p = 4..20", ok, ""))

    return checks


def _a_exact(h, p, k):
    """a_{h,p} assembled exactly in Q(sqrt 2), for small sizes (independent oracle)."""
    m = p + k
    value = QSqrt2(Fraction(math.comb(p, h)))
    value = value * QSqrt2(Fraction(p - 1, 2)) ** (p - h)
    value = value * pow2(Fraction(m * (p - h), 2))
    value = value * rising_factorial(QSqrt2(1 << h), m)
    return value * QSqrt2(Fraction(1, 1 << (p * m)))


def suite_asymptotics(rng):
    checks = []

    ok = _a(5, 3, 0) == _a(-1, 3, 0) == _a(3, 3, 0) == (0, 0)
    ok = ok and _a(1, 2, 0) == (12, 8)   # 12 / sqrt2^8 = 3/4
    checks.append(("a_{h,p} piecewise zeros and a_{1,2} = 3/4", ok, ""))

    def matches(h, p, k):
        n, s = _a(h, p, k)
        return _a_exact(h, p, k) * SQRT2 ** s == n

    ok = all(matches(h, p, k) for k in range(5) for h in range(7) for p in range(max(2, h + 1), 8))
    checks.append(("a_{h,p} in integers equals its Q(sqrt 2) product, p <= 7", ok, ""))

    ok = all(matches(h, h + 1, k) for k in range(5) for h in (20, 40, 60))
    checks.append(("a_{h,h+1} in integers equals its Q(sqrt 2) product, h = 20, 40, 60, k <= 4",
                   ok, ""))

    ok = True
    detail = ""
    for k in range(4):
        rows = verify_H(k, 64, 512)
        flagged = {row.h for row in rows if not row.at_first}
        cutoff = h_constant(k)
        if any(h >= cutoff for h in flagged):
            ok = False
            detail = "H_%d violated at %s" % (k, sorted(flagged))
        if flagged != EXPECTED_FLAGGED_H[k]:
            ok = False
            detail = "flag set for k=%d is %s" % (k, sorted(flagged))
    checks.append(("maximum sits at p = h+1 for h >= H_k, h <= 64, p <= 512", ok, detail))

    ok = True
    ratios = [_tail(h, 0) for h in range(5, 61)]
    ok = ok and all(ratios[i] > ratios[i + 1] for i in range(len(ratios) - 1))
    ok = ok and Fraction(7, 10) < ratios[-1] < Fraction(19, 25)
    checks.append(("tail ratio strictly decreasing over h = 5..60 at k = 0", ok, ""))

    ok = True
    for k in range(1, 5):
        ratios = [_tail(h, k) for h in range(12, 61)]
        ok = ok and all(ratios[i] > ratios[i + 1] for i in range(len(ratios) - 1))
        ok = ok and Fraction(7, 10) < ratios[-1] < Fraction(19, 25)
    checks.append(("tail ratio decreasing for large h at every k <= 4", ok, ""))

    return checks


SUITES = {
    "characters": suite_characters,
    "cycleform": suite_cycleform,
    "bounds": suite_bounds,
    "asymptotics": suite_asymptotics,
}


def run_suites(names, seed=0, out=print):
    """Run the selected suites; report one line per check; True when all pass."""
    all_ok = True
    for name in names:
        rng = random.Random(seed)
        for label, ok, detail in SUITES[name](rng):
            line = "%s  %s: %s" % ("pass" if ok else "FAIL", name, label)
            if detail and not ok:
                line += "  [%s]" % detail
            out(line)
            all_ok = all_ok and ok
    return all_ok
