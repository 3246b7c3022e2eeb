"""Exact |B_u(p,q)| by Polya's cycle-index form, brute-force oracles, and the orbit census."""

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .perm import all_permutations, class_size, cycle_type, partitions

DEGREE_CAP = 64   # count_exact refuses degrees beyond this without an override
CENSUS_CAP = 20   # orbit_census walks 2^(p q) subsets; cap on p*q
# count_exact's work model, P(min(p,q)) max(p,q)^2 multiply-adds: (36,36) is accepted
# and takes a few seconds, (37,37) is refused
COUNT_BUDGET = 25_000_000


class CapExceeded(Exception):
    """A requested computation is beyond the configured resource cap."""


@dataclass(frozen=True)
class OrbitCensus:
    p: int
    q: int
    orbit_count: int
    free_element_count: int
    total: int


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


@lru_cache(maxsize=None)
def _count_by_classes(p, q):
    # Burnside over S_p x S_q, with the sum over the cycle types lam of S_q done by
    # the cycle index (Harary & Palmer, ch. 4): for each cycle type mu of S_p,
    #   sum_lam |C_lam| 2^<lam,mu> = H_q,  x_r = 2^(sum_s gcd(r,s) c_s(mu)),
    #   H_n = sum_{r=1..n} (n-1)!/(n-r)! x_r H_(n-r),  H_0 = 1.
    # Any order is exact; p <= q costs least, P(p) q^2 multiply-adds in O(q) memory.
    total = 0
    for mu in partitions(p):
        items = mu.counts.items()
        x = [0] + [1 << sum(math.gcd(r, s) * c for s, c in items) for r in range(1, q + 1)]
        h = [1]
        for n in range(1, q + 1):
            acc, falling = 0, 1   # falling = (n-1)!/(n-r)!
            for r in range(1, n + 1):
                acc += falling * x[r] * h[n - r]
                falling *= n - r
            h.append(acc)
        total += class_size(mu) * h[q]
    order = math.factorial(p) * math.factorial(q)
    assert total % order == 0
    return total // order


def count_refusal(p, q, max_degree=DEGREE_CAP):
    """Why count_exact(p, q, max_degree) is refused as over a cap, or None if it runs.

    The caps are max(p, q) <= max_degree and the work model
    P(min(p,q)) max(p,q)^2 <= COUNT_BUDGET. max_degree only lowers DEGREE_CAP, as the
    work model does not price the longer integers of larger degrees.
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
    """Literal double sum over permutation pairs (test oracle, p, q <= 7)."""
    if p < 0 or q < 0:
        raise ValueError("p, q must be nonnegative")
    if max(p, q) > 7:
        raise CapExceeded("count_naive needs p, q <= 7")
    types_p = [sorted(cycle_type(s).counts.items()) for s in all_permutations(p)]
    types_q = [sorted(cycle_type(s).counts.items()) for s in all_permutations(q)]
    total = 0
    for ta in types_p:
        for tb in types_q:
            e = sum(math.gcd(r, s) * ca * cb for r, ca in ta for s, cb in tb)
            total += 1 << e
    order = math.factorial(p) * math.factorial(q)
    assert total % order == 0
    return total // order


def _cell_maps(p, q):
    """Cell index maps for generators of the row and column symmetric groups."""
    maps = []
    if p >= 2:
        swaps = list(range(p))
        swaps[0], swaps[1] = 1, 0
        cyc = [(i + 1) % p for i in range(p)]
        for rows in (swaps, cyc):
            maps.append([rows[r] * q + c for r in range(p) for c in range(q)])
    if q >= 2:
        swaps = list(range(q))
        swaps[0], swaps[1] = 1, 0
        cyc = [(i + 1) % q for i in range(q)]
        for cols in (swaps, cyc):
            maps.append([r * q + cols[c] for r in range(p) for c in range(q)])
    return maps


def _mask_table(cell_map, nbits):
    """Image of every subset mask under a cell permutation, as an array('I') of 2^nbits.

    Built by doubling: for m < 2^k, table[m + 2^k] = table[m] + 2^cell_map[k], as the
    image of bit k is never set in table[m]. Each step is one C-level extend.
    """
    table = array("I", [0])
    for k in range(nbits):
        table.extend(map((1 << cell_map[k]).__add__, table[:]))
    return table


def orbit_census(p, q, max_pq=CENSUS_CAP):
    """Orbit and free-element counts over all 2^(p q) subsets; max_pq only lowers CENSUS_CAP."""
    if p < 0 or q < 0:
        raise ValueError("p, q must be nonnegative")
    cap = min(max_pq, CENSUS_CAP)
    if p * q > cap:
        raise CapExceeded("orbit_census needs p*q <= %d" % cap)
    if p * q == 0:
        # a single empty graph; free by the p=0 / q=0 convention
        return OrbitCensus(p, q, 1, 1, 1)
    nbits = p * q
    n = 1 << nbits
    order = math.factorial(p) * math.factorial(q)
    tables = [_mask_table(cm, nbits) for cm in _cell_maps(p, q)]
    seen = bytearray(n)
    orbit_count = 0
    free_elements = 0
    seed = 0   # the smallest mask not yet seen; the loop runs once per orbit
    while seed >= 0:
        orbit_count += 1
        stack = [seed]
        seen[seed] = 1
        size = 0
        while stack:
            m = stack.pop()
            size += 1
            for table in tables:
                im = table[m]
                if not seen[im]:
                    seen[im] = 1
                    stack.append(im)
        if size == order:
            free_elements += size
        seed = seen.find(0, seed + 1)
    return OrbitCensus(p, q, orbit_count, free_elements, n)


def free_fraction(p, q, max_pq=CENSUS_CAP):
    """f(p,q): the fraction of subsets lying in a free orbit."""
    census = orbit_census(p, q, max_pq)
    return Fraction(census.free_element_count, census.total)


def free_fraction_lower_bound(p, q, max_degree=DEGREE_CAP):
    """max(0, 2 - p! q! |B_u(p,q)| / 2^(p q))."""
    raw = 2 - Fraction(math.factorial(p) * math.factorial(q) * count_exact(p, q, max_degree),
                       1 << (p * q))
    return max(Fraction(0), raw)
