"""Exact |B_u(p,q)| by Polya's cycle-index form, brute-force oracles, and the orbit census."""

import math
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, filterfalse
from operator import add, lshift

from .perm import generators, type_tally

DEGREE_CAP = 64   # count_exact refuses degrees beyond this without an override
CENSUS_CAP = 20   # orbit_census covers 2^(p q) subsets; cap on p*q
# count_exact's work model, P(min(p,q)) max(p,q)^2, twice the kernel's shift-adds:
# (36,36) is accepted and takes about 2.2 s on a 2-vCPU Xeon, (30,64) about 2.0 s,
# (37,37) is refused
COUNT_BUDGET = 25_000_000


class CapExceeded(Exception):
    """A requested computation is beyond the configured resource cap."""


OrbitCensus = namedtuple("OrbitCensus", "p q orbit_count free_element_count total")


def _partition_count(n):
    """P(n) by Euler's pentagonal recurrence, without enumerating partitions."""
    counts = [1] + [0] * n
    for m in range(1, n + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= m:
            sign = 1 if k % 2 else -1
            total += sign * counts[m - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= m:
                total += sign * counts[m - k * (3 * k + 1) // 2]
            k += 1
        counts[m] = total
    return counts[n]


def _cycle_types(p, q):
    """(e, z_mu) per cycle type mu of S_p: e_r = sum_s gcd(r, s) c_s(mu) for r <= q and
    z_mu = prod_s s^c_s c_s!, on its own walk of `perm.partitions`' tree shape. A node is a
    type whose n points left are fixed; a child adds c copies of a part s below the last,
    each one row add (gcd(r, s) - s on e_r, from e = [p] * q) and one multiply."""
    rows = [[math.gcd(r, s) - s for r in range(1, q + 1)] for s in range(p + 1)]
    stack = [(p, p + 1, [p] * q, 1)]
    while stack:
        n, top, e, z = stack.pop()
        for s in range(2, min(top, n + 1)):
            e_s, z_s = e, z
            for c in range(1, n // s + 1):
                e_s = list(map(add, e_s, rows[s]))
                z_s *= s * c
                stack.append((n - c * s, s, e_s, z_s))
        yield e, z * math.factorial(n)


def _h_row(e):
    """h_0 .. h_len(e) by the shift-only recurrence n h_n = sum_{r<=n} h_(n-r) << e_r."""
    h = [1]
    for m in range(1, len(e) + 1):
        h.append(sum(map(lshift, reversed(h), e)) // m)
    return h


@lru_cache(maxsize=None)
def _count_by_classes(p, q):
    # Burnside over S_p x S_q, the sum over S_q by its cycle index (Harary & Palmer, ch. 2):
    # h_n = _h_row(e)[n] = sum_{lam |- n} 2^<lam,mu> / z_lam counts the n-column multisets
    # fixed by a type-mu row permutation; sum_mu (p!/z_mu) h_q / p! = |B_u(p,q)|, also for
    # p > q, but p <= q costs least: P(p) q^2/2 shift-adds.
    order = math.factorial(p)
    total = sum(order // z * _h_row(e)[q] for e, z in _cycle_types(p, q))
    assert total % order == 0
    return total // order


def count_refusal(p, q, max_degree=DEGREE_CAP):
    """Why count_exact(p, q, max_degree) is refused as over a cap, or None if it runs.

    The caps are max(p, q) <= max_degree and the work model
    P(min(p,q)) max(p,q)^2 <= COUNT_BUDGET, twice the P(min) max^2/2 shift-adds of
    the count kernel. max_degree only lowers DEGREE_CAP, as the work model does not
    price the longer integers of larger degrees.
    """
    cap = min(max_degree, DEGREE_CAP)
    if max(p, q) > cap:
        return "count_exact needs p, q <= %d" % cap
    small, large = min(p, q), max(p, q)
    work = _partition_count(small) * large * large
    if work > COUNT_BUDGET:
        return ("count_exact(%d, %d) needs P(%d)*%d^2 = %d steps, over the budget of %d"
                % (p, q, small, large, work, COUNT_BUDGET))
    return None


def count_exact(p, q, max_degree=DEGREE_CAP):
    """|B_u(p,q)| by Burnside's lemma over S_p x S_q in Polya's cycle-index form.

    Enumerates the cycle types of the smaller side only and caches one value per
    unordered pair. Raises CapExceeded when count_refusal names a cap.
    """
    if p < 0 or q < 0:
        raise ValueError("p, q must be nonnegative")
    refusal = count_refusal(p, q, max_degree)
    if refusal:
        raise CapExceeded(refusal)
    return _count_by_classes(min(p, q), max(p, q))


def count_naive(p, q):
    """Burnside's sum over S_p x S_q tallied by cycle type: sum k_a k_b 2^<a,b> / (p! q!)
    over the type_tally keys a, b, <a,b> = sum gcd(r, s) (test oracle, p, q <= 7)."""
    if p < 0 or q < 0:
        raise ValueError("p, q must be nonnegative")
    if max(p, q) > 7:
        raise CapExceeded("count_naive needs p, q <= 7")
    tally_q = type_tally(q)
    total = 0
    for a, ka in type_tally(p).items():
        for b, kb in tally_q.items():
            total += ka * kb << sum(math.gcd(r, s) for r in a for s in b)
    order = math.factorial(p) * math.factorial(q)
    assert total % order == 0
    return total // order


def _row_images(r):
    """Images of every r-bit column value under `generators(r)`, point i on bit i-1."""
    return [[sum(1 << (g[i] - 1) for i in range(r) if x >> i & 1) for x in range(1 << r)]
            for g in generators(r)]


def orbit_census(p, q, max_pq=CENSUS_CAP):
    """Orbit and free-element counts over all 2^(p q) subsets; max_pq only lowers CENSUS_CAP.

    A subset is an r x c 0/1 matrix, (r, c) = (p, q) or its transpose (q, p), which
    preserves all three counts. Its S_c-orbit is the multiset of its c columns, each an
    r-bit value (Harary & Palmer, ch. 4), so the S_p x S_q-orbits are the S_r-orbits on
    column multisets. The walk takes its seeds from the sorted column tuples in
    increasing order, in the orientation with fewer of them, C(2^r + c - 1, c).
    """
    if p < 0 or q < 0:
        raise ValueError("p, q must be nonnegative")
    cap = min(max_pq, CENSUS_CAP)
    if p * q > cap:
        raise CapExceeded("orbit_census needs p*q <= %d" % cap)
    if p * q == 0:
        # a single empty graph; free by the p=0 / q=0 convention
        return OrbitCensus(p, q, 1, 1, 1)
    r, c = min((p, q), (q, p), key=lambda rc: math.comb((1 << rc[0]) + rc[1] - 1, rc[1]))
    images = _row_images(r)
    r_order = math.factorial(r)
    c_order = math.factorial(c)
    seen = set()
    orbit_count = 0
    free_orbits = 0
    weight = 0   # matrices covered: size * c!/prod(mult!) per orbit
    for seed in filterfalse(seen.__contains__,
                            combinations_with_replacement(range(1 << r), c)):
        orbit_count += 1
        stack = [seed]
        seen.add(seed)
        size = 0
        while stack:
            cols = stack.pop()
            size += 1
            for image in images:
                im = tuple(sorted(map(image.__getitem__, cols)))
                if im not in seen:
                    seen.add(im)
                    stack.append(im)
        mults = math.prod(map(math.factorial, Counter(seed).values()))
        # free: no column swap fixes the seed (distinct columns) and no row permutation does
        if mults == 1 and size == r_order:
            free_orbits += 1
        weight += size * (c_order // mults)
    n = 1 << (p * q)
    assert weight == n, (p, q, weight)
    return OrbitCensus(p, q, orbit_count, free_orbits * math.factorial(p) * math.factorial(q), n)


def free_fraction(p, q):
    """f(p,q): the fraction of subsets lying in a free orbit."""
    census = orbit_census(p, q)
    return Fraction(census.free_element_count, census.total)


def free_fraction_lower_bound(p, q, max_degree=DEGREE_CAP):
    """max(0, 2 - p! q! |B_u(p,q)| / 2^(p q))."""
    count = count_exact(p, q, max_degree)  # first: it refuses a negative p or q
    raw = 2 - Fraction(math.factorial(p) * math.factorial(q) * count, 1 << (p * q))
    return max(Fraction(0), raw)
