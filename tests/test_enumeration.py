"""Counting bicolored graphs and the orbit census."""

import math
import time
import tracemalloc
from fractions import Fraction

import pytest

from bicolored import enumeration, perm
from bicolored.enumeration import (CENSUS_CAP, COUNT_BUDGET, CapExceeded, _count_by_classes,
                                   _cycle_types, _h_row, _partition_count, _row_images,
                                   count_exact, count_naive, count_refusal, free_fraction,
                                   free_fraction_lower_bound, orbit_census)
from bicolored.perm import all_permutations, class_size, cycle_type, partitions, type_tally

# row p = 1..8 of |B_u(p, q)| for q = 1..4, checked against direct subset orbits
KNOWN_COUNTS = {
    (1, 1): 2, (1, 2): 3, (1, 3): 4, (1, 4): 5,
    (2, 2): 7, (2, 3): 13, (2, 4): 22,
    (3, 3): 36, (3, 4): 87,
    (4, 4): 317,
}


def test_count_small_values():
    for (p, q), v in KNOWN_COUNTS.items():
        assert count_exact(p, q) == v
        assert count_exact(q, p) == v


def test_count_edge_cases():
    assert count_exact(0, 0) == 1
    assert count_exact(0, 5) == 1
    assert count_exact(7, 0) == 1
    assert count_exact(1, 1) == 2
    with pytest.raises(ValueError):
        count_exact(-1, 2)
    with pytest.raises(ValueError):
        count_naive(-1, 0)
    with pytest.raises(ValueError):
        orbit_census(0, -1)


def test_count_matches_naive():
    for p in range(0, 8):
        for q in range(0, 8):
            assert count_exact(p, q) == count_naive(p, q), (p, q)


def count_per_pair(p, q):
    """Burnside's sum one permutation pair at a time, as count_naive summed it before it
    tallied both sides by cycle type."""
    types_p = [sorted(cycle_type(s).counts.items()) for s in all_permutations(p)]
    types_q = [sorted(cycle_type(s).counts.items()) for s in all_permutations(q)]
    total = 0
    for ta in types_p:
        for tb in types_q:
            total += 1 << sum(math.gcd(r, s) * ca * cb for r, ca in ta for s, cb in tb)
    order = math.factorial(p) * math.factorial(q)
    assert total % order == 0
    return total // order


def test_count_naive_matches_per_pair_sum():
    for p in range(0, 6):
        for q in range(0, 6):
            assert count_naive(p, q) == count_per_pair(p, q), (p, q)


def test_type_tally_is_the_class_census():
    for n in range(0, 8):
        tally = type_tally(n)
        assert sum(tally.values()) == math.factorial(n)
        sizes = {tuple(sorted(r for r, c in t.counts.items() for _ in range(c))): class_size(t)
                 for t in partitions(n)}
        assert dict(tally) == sizes, n


def test_type_tally_walks_each_degree_once():
    # the tally depends only on n, so every naive oracle shares one walk of S_n
    assert type_tally(7) is type_tally(7)


def test_count_matches_census():
    for p in range(0, 6):
        for q in range(0, 6):
            if p * q <= 16:
                assert count_exact(p, q) == orbit_census(p, q).orbit_count


def _cell_maps(p, q):
    """Cell index maps of the row and column transpositions and cycles of S_p x S_q."""
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


def _list_mask_table(cell_map, nbits):
    """The census tables as lists of Python ints, built by lowest-bit recursion."""
    bit_img = [1 << cell_map[i] for i in range(nbits)]
    table = [0] * (1 << nbits)
    for m in range(1, 1 << nbits):
        low = m & -m
        table[m] = table[m ^ low] | bit_img[low.bit_length() - 1]
    return table


def _list_census(p, q):
    """(orbit_count, free_element_count, total) by a DFS over all 2^(p q) subset masks
    under S_p x S_q, from every unseen mask in increasing order, over list tables."""
    if p * q == 0:
        return 1, 1, 1
    nbits = p * q
    n = 1 << nbits
    order = math.factorial(p) * math.factorial(q)
    tables = [_list_mask_table(cm, nbits) for cm in _cell_maps(p, q)]
    seen = bytearray(n)
    orbit_count = free_elements = 0
    for seed in range(n):
        if seen[seed]:
            continue
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
    return orbit_count, free_elements, n


def test_census_matches_list_census():
    for p in range(17):
        for q in range(17):
            if p * q <= 16:
                c = orbit_census(p, q)
                assert (c.orbit_count, c.free_element_count, c.total) == _list_census(p, q), (p, q)


def test_census_matches_count_up_to_the_cap():
    # every shape the census accepts, in both orientations: about 0.3 s on a 2-vCPU Xeon
    start = time.perf_counter()
    for p in range(1, CENSUS_CAP + 1):
        for q in range(1, CENSUS_CAP // p + 1):
            c, t = orbit_census(p, q), orbit_census(q, p)
            assert c.orbit_count == count_exact(p, q), (p, q)
            assert (c.orbit_count, c.free_element_count, c.total) == \
                (t.orbit_count, t.free_element_count, t.total), (p, q)
    assert time.perf_counter() - start < 5.0


def test_row_images():
    # none for S_1; at r = 2 the transposition and the cycle are one permutation, built once
    for r in range(1, 7):
        images = _row_images(r)
        assert len(images) == min(r - 1, 2)
        assert all(sorted(image) == list(range(1 << r)) for image in images)


def test_census_memory():
    # the walk holds a seen set of the C(2^3 + 4, 5) = 792 sorted column tuples of (3, 5),
    # about 3 bytes per mask; the bound admits per-mask tables of 4-byte entries, not
    # tables of Python ints (about 160 bytes per mask)
    tracemalloc.start()
    try:
        census = orbit_census(3, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert census.total == 1 << 15
    assert peak < 32 * census.total, peak


def _class_sum(p, q):
    """Burnside as a double sum over cycle-type pairs (lam, mu): P(p) P(q) terms.

    It treats the two sides alike, so unlike the production kernel it owes nothing
    to enumerating one side only.
    """
    types_q = [(class_size(mu), mu.counts.items()) for mu in partitions(q)]
    total = 0
    for lam in partitions(p):
        size_lam = class_size(lam)
        for size_mu, items_mu in types_q:
            e = sum(math.gcd(r, s) * a * b for r, a in lam.counts.items() for s, b in items_mu)
            total += size_lam * size_mu << e
    order = math.factorial(p) * math.factorial(q)
    assert total % order == 0
    return total // order


def _falling_factorial_kernel(p, q):
    """The count kernel before its shift-only form: for each mu, H_n = sum_{r=1..n}
    (n-1)!/(n-r)! x_r H_(n-r) with x_r = 2^e_r, and the sum over mu divided by p! q!."""
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


def test_count_matches_falling_factorial_kernel():
    # both argument orders, as the verify "count symmetry" check calls the kernel on
    # the larger side, and the longest integers the tier-1 time allows
    pairs = [(p, q) for p in range(21) for q in range(21)]
    pairs += [(6, 40), (3, 64), (12, 30), (26, 26)]
    for p, q in pairs:
        assert _count_by_classes(p, q) == _falling_factorial_kernel(p, q), (p, q)


def test_count_kernel_reads_no_partition_stream(monkeypatch):
    # the kernel walks its own tree of cycle types, so it runs with the partition
    # stream, class sizes and CycleType all raising; the oracle walks them before that
    pairs = [(0, 5), (7, 7), (12, 20), (20, 12)]
    want = [_falling_factorial_kernel(p, q) for p, q in pairs]
    types = list(_cycle_types(12, 20))

    def refuse(*args, **kwargs):
        raise AssertionError("the count kernel reads the partition stream")

    for name in ("partitions", "class_size", "CycleType"):
        monkeypatch.setattr(perm, name, refuse)
        if hasattr(enumeration, name):
            monkeypatch.setattr(enumeration, name, refuse)
    assert [_count_by_classes.__wrapped__(p, q) for p, q in pairs] == want
    assert list(_cycle_types(12, 20)) == types


def _types_from_partitions(p, q):
    """Sorted (e, z_mu) over perm.partitions(p), e_r = sum_s gcd(r, s) c_s for r <= q."""
    return sorted((tuple(sum(math.gcd(r, s) * c for s, c in mu.counts.items())
                         for r in range(1, q + 1)), math.factorial(p) // class_size(mu))
                  for mu in partitions(p))


def test_cycle_types_match_partitions():
    for p in range(15):
        order = math.factorial(p)
        for q in (0, 1, 6, 20):
            stream = []
            for e, z in _cycle_types(p, q):
                stream.append((e[:], z))
                e[:] = [-1] * q   # the walk reads no yielded e again
            assert len(stream) == _partition_count(p), (p, q)
            assert all(order % z == 0 for _, z in stream)
            assert sum(order // z for _, z in stream) == order   # the class equation
            assert sorted((tuple(e), z) for e, z in stream) == _types_from_partitions(p, q)
    # one node per type: the walk yields P(p) items and nothing between them
    for p in range(31):
        assert sum(1 for _ in _cycle_types(p, 0)) == _partition_count(p), p


def _column_orbit_sizes(mu):
    """Orbit sizes of one permutation of type mu on the 2^n columns {0,1}^n, point i on bit i."""
    images, start = [], 0
    for s, c in mu.counts.items():
        for _ in range(c):
            images += [start + (i + 1) % s for i in range(s)]
            start += s
    act = [sum(1 << images[i] for i in range(mu.n) if x >> i & 1) for x in range(1 << mu.n)]
    seen, sizes = set(), []
    for x in range(1 << mu.n):
        size = 0
        while x not in seen:
            seen.add(x)
            x = act[x]
            size += 1
        if size:
            sizes.append(size)
    return sizes


def test_h_row_counts_fixed_column_multisets():
    # h_n(mu) = [t^n] prod_i 1/(1 - t^l_i) over the orbits l_i of mu on the columns,
    # expanded by the coin recurrence, for every type of p <= 6 and n <= 20
    types = [mu for p in range(7) for mu in partitions(p)]
    assert len(types) == 30
    for mu in types:
        coeffs = [1] + [0] * 20
        for size in _column_orbit_sizes(mu):
            for n in range(size, 21):
                coeffs[n] += coeffs[n - size]
        e = [sum(math.gcd(r, s) * c for s, c in mu.counts.items()) for r in range(1, 21)]
        assert _h_row(e) == coeffs, mu.counts


def test_h_row_ratio_lemma_on_every_cycle_type():
    # (n+1) h_(n+1) <= (2^p + n) h_n on the kernel's own rows: every type fixes the
    # all-zero column (PROOFS.md), and only the identity, e = [p] * 64, is equal at any n
    for p in range(9):
        for e, _ in _cycle_types(p, 64):
            h = _h_row(e)
            for n in range(64):
                lhs, rhs = (n + 1) * h[n + 1], ((1 << p) + n) * h[n]
                assert lhs <= rhs, (p, e, n)
                assert (lhs == rhs) == (e == [p] * 64), (p, e, n)


def test_multiset_ratio_is_at_least_one_and_never_rises():
    # L(p, q) = p! |B_u(p,q)| / C(2^p + q - 1, q) as the integer pair (num, den)
    for p in range(7):
        last = None
        for q in range(41):
            num = math.factorial(p) * count_exact(p, q)
            den = math.comb((1 << p) + q - 1, q)
            assert num >= den, (p, q)
            if last:
                assert num * last[1] <= last[0] * den, (p, q)
            last = num, den


def test_count_matches_class_sum():
    pairs = [(p, q) for p in range(15) for q in range(15)] + [(6, 26), (26, 7), (10, 20)]
    for p, q in pairs:
        assert count_exact(p, q) == _class_sum(p, q), (p, q)


def test_count_symmetry():
    # count_exact sorts the pair; the kernel called in the other order walks the other side
    for p in range(0, 12):
        for q in range(0, 12):
            assert count_exact(p, q) == count_exact(q, p) == _count_by_classes(max(p, q), min(p, q))


def test_count_large_degree():
    # a spot check deep in the range the table needs; digits grow like 2^(pq)/p!q!
    v = count_exact(20, 20)
    assert v % 10 == 6 and len(str(v)) == 84
    assert v * math.factorial(20) ** 2 > 1 << 400


def test_partition_count():
    for n in range(26):
        assert _partition_count(n) == len(list(partitions(n)))
    assert _partition_count(64) == 1741630


def test_count_budget():
    assert count_refusal(36, 36) is None
    assert count_refusal(20, 64) is None
    assert _partition_count(36) * 36 ** 2 <= COUNT_BUDGET < _partition_count(37) * 37 ** 2
    for p, q in [(37, 37), (64, 64), (40, 64), (64, 40)]:
        assert "budget" in count_refusal(p, q)
        with pytest.raises(CapExceeded):
            count_exact(p, q)
    # the degree cap is checked first and keeps its message
    assert count_refusal(65, 2) == "count_exact needs p, q <= 64"
    # max_degree only lowers the cap: P(1)*5000^2 is under the budget, yet refused
    assert count_refusal(1, 5000, max_degree=5000) == "count_exact needs p, q <= 64"
    assert count_refusal(1, 30, max_degree=20) == "count_exact needs p, q <= 20"


def test_caps():
    with pytest.raises(CapExceeded):
        count_exact(65, 2)
    with pytest.raises(CapExceeded):
        count_naive(8, 2)
    with pytest.raises(CapExceeded):
        orbit_census(5, 5)
    assert orbit_census(3, 3, max_pq=CENSUS_CAP).total == 512
    # max_pq only lowers the cap
    with pytest.raises(CapExceeded):
        orbit_census(5, 6, max_pq=30)
    with pytest.raises(CapExceeded):
        orbit_census(3, 3, max_pq=8)


def test_orbit_census_structure():
    c = orbit_census(2, 2)
    assert (c.orbit_count, c.free_element_count, c.total) == (7, 8, 16)
    c = orbit_census(1, 1)
    assert (c.orbit_count, c.free_element_count, c.total) == (2, 2, 2)
    c = orbit_census(0, 3)
    assert (c.orbit_count, c.free_element_count, c.total) == (1, 1, 1)


def test_orbit_sizes_divide_group_order():
    # Lagrange check by re-walking orbits: census totals must be consistent
    for p, q in [(2, 3), (3, 3), (4, 3), (2, 5)]:
        c = orbit_census(p, q)
        assert c.total == 1 << (p * q)
        assert c.orbit_count == count_exact(p, q)
        assert c.free_element_count % (math.factorial(p) * math.factorial(q)) == 0


def test_free_fraction_values():
    assert free_fraction(2, 2) == Fraction(1, 2)
    assert free_fraction(1, 1) == 1
    for p in range(3, 7):
        assert free_fraction(p, 1) == 0
    assert free_fraction(0, 0) == 1


def test_free_fraction_lower_bound():
    for p in range(1, 6):
        for q in range(1, 6):
            if p * q <= 16:
                lb = free_fraction_lower_bound(p, q)
                assert 0 <= lb <= 1
                assert free_fraction(p, q) >= lb
    # the bound is vacuous for small square grids and sharpens as p q grows
    assert free_fraction_lower_bound(4, 4) == 0
    assert free_fraction_lower_bound(6, 6) == Fraction(13680331, 134217728)
    assert free_fraction_lower_bound(7, 7) > free_fraction_lower_bound(6, 6)
