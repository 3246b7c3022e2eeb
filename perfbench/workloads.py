"""Seeded query lists for the benchmark workloads.

The seed is an argument of the benchmark only: the program under test sees
nothing but the generated argv lists. Each list is drawn from cost strata, so
that a pass does about the same amount of work for every seed while the
concrete pairs, shapes and bases change with it.
"""

import random

from oracles import partition_count

WHY = {
    "count-grid": "count kernel only: enumeration + perm on distinct balanced and skewed pairs,"
                  " no Q(sqrt2) work, so exact-layer changes must not move it",
    "bound-table": "bounds/characters/exact on operands of thousands of bits: the golden table,"
                   " bound at 21..64 with the count skipped, char over four bases",
    "verify-suites": "all four property suites: many small exact calls that share work, warm"
                     " lru_cache hits, brute-force oracles over S_n, one count_exact(26,26)",
    "orbit-census": "the subset census over 2^16..2^20 masks dominates time and memory;"
                    " the only workload that measures that layer",
}

BASES = ("1/2", "2", "sqrt2", "3/2")

# count-grid: the larger side in 14..26, the smaller side at least 6
COUNT_MAX_SIDE = (14, 26)
COUNT_MIN_SIDE = 6
# model cost of one query, in inner-loop terms of the class-sum kernel, in pick order;
# the median query time falls among the five middle-cost pairs, picked last
COUNT_TARGETS = (700_000, 500_000, 300_000, 70_000, 40_000, 25_000,
                 140_000, 140_000, 140_000, 140_000, 140_000)
# bound queries: both sides in 21..64 and --max-degree 20, so the exact count is skipped
BOUND_SIDE = (21, 64)
BOUND_MAX_DEGREE = 20
BOUND_TARGETS = (4000, 3550, 3100, 2650, 2200, 1800, 1450, 1150, 900, 700)  # p*q
# twisted products cost less than the cheapest bound, and one more avg query than bound
# queries puts the median query time among the twisted ones, all of one size
TWISTED_SIDE = (8, 32)
TWISTED_TARGETS = (300,) * 9                                                # p*q
AVG_DEGREE = (8, 64)
AVG_QUERIES = len(BOUND_TARGETS) + 1
# orbit-census: 16 <= p*q <= 20. The census visits 2^(pq) masks through one generator
# table per side of length >= 2, so a stratum holds shapes with the same pq and table count.
ORBIT_PQ = (16, 20)
ORBIT_STRATA = (
    ((4, 5), (5, 4), (2, 10), (10, 2)),
    ((3, 6), (6, 3), (2, 9), (9, 2)),
    ((1, 19), (19, 1)),
    ((4, 4), (2, 8), (8, 2)),
    ((1, 17), (17, 1)),
)


def count_cost(p, q):
    """Model cost of count p q: P(p) P(q) kernel terms plus per-partition set-up."""
    return partition_count(p) * partition_count(q) + 16 * (partition_count(p) + partition_count(q))


def _picks(rng, pool, cost, targets, tolerance):
    """One seeded pair per target, no unordered pair twice, total cost close to sum(targets).

    Each pick's miss is carried into the next target, so the last one settles
    the total within its tolerance.
    """
    used, picks, carry = set(), [], 0
    for target in targets:
        aim = target + carry
        near = [pair for pair in pool if tuple(sorted(pair)) not in used
                and abs(cost(*pair) - aim) <= tolerance * target]
        if not near:
            raise ValueError("no unused pair near cost %s" % aim)
        pair = rng.choice(near)
        used.add(tuple(sorted(pair)))
        picks.append(pair)
        carry = aim - cost(*pair)
    return picks


def _sides(lo, hi):
    return [(p, q) for p in range(lo, hi + 1) for q in range(lo, hi + 1)]


def count_grid(rng, seed):
    pool = [(p, q) for p, q in _sides(COUNT_MIN_SIDE, COUNT_MAX_SIDE[1])
            if max(p, q) >= COUNT_MAX_SIDE[0]]
    queries = [["count", str(p), str(q)]
               for p, q in _picks(rng, pool, count_cost, COUNT_TARGETS, 0.15)]
    rng.shuffle(queries)
    return queries


def _area(p, q):
    return p * q


def bound_table(rng, seed):
    queries = [["bound", str(p), str(q), "--max-degree", str(BOUND_MAX_DEGREE)]
               for p, q in _picks(rng, _sides(*BOUND_SIDE), _area, BOUND_TARGETS, 0.08)]
    queries += [["char", "twisted", str(p), rng.choice(BASES), str(q), rng.choice(BASES)]
                for p, q in _picks(rng, _sides(*TWISTED_SIDE), _area, TWISTED_TARGETS, 0.1)]
    bases = list(BASES) + [rng.choice(BASES) for _ in range(AVG_QUERIES - len(BASES))]
    queries += [["char", "avg", str(rng.randint(*AVG_DEGREE)), base] for base in bases]
    rng.shuffle(queries)
    return [["table"]] + queries


def verify_suites(rng, seed):
    return [["verify", "--seed", str(seed)]]


def orbit_census(rng, seed):
    queries = []
    for stratum in ORBIT_STRATA:
        p, q = rng.choice(stratum)
        if rng.random() < 0.5:
            queries.append(["orbits", str(p), str(q)])
        else:
            queries.append(["count", str(p), str(q), "--oracle", "census"])
    rng.shuffle(queries)
    return queries


GENERATORS = {
    "count-grid": count_grid,
    "bound-table": bound_table,
    "verify-suites": verify_suites,
    "orbit-census": orbit_census,
}


def generate(workload, seed):
    """The workload's argv lists for this seed; raises ValueError if one leaves its range."""
    queries = GENERATORS[workload](random.Random("%s/%d" % (workload, seed)), seed)
    check_ranges(workload, queries)
    return queries


def _ints(argv, *positions):
    return [int(argv[i]) for i in positions]


def _within(value, bounds):
    return bounds[0] <= value <= bounds[1]


def check_ranges(workload, queries):
    """Raise ValueError unless every query stays where the program finishes in seconds."""
    def bad(argv, why):
        raise ValueError("%s query %s: %s" % (workload, " ".join(argv), why))

    if workload == "verify-suites":
        if len(queries) != 1 or queries[0][:2] != ["verify", "--seed"] or len(queries[0]) != 3:
            bad(queries[0], "expected one verify --seed <n>")
        return
    seen = set()
    tables = 0
    for argv in queries:
        kind = tuple(argv[:2]) if argv[0] == "char" else (argv[0],)
        if workload == "count-grid":
            if kind != ("count",) or len(argv) != 3:
                bad(argv, "expected count p q")
            p, q = _ints(argv, 1, 2)
            if not (_within(max(p, q), COUNT_MAX_SIDE) and min(p, q) >= COUNT_MIN_SIDE):
                bad(argv, "outside the count ranges")
            if (min(p, q), max(p, q)) in seen:
                bad(argv, "repeats a pair")
            seen.add((min(p, q), max(p, q)))
        elif workload == "bound-table":
            if argv == ["table"]:
                tables += 1
            elif kind == ("bound",):
                p, q = _ints(argv, 1, 2)
                if not (_within(p, BOUND_SIDE) and _within(q, BOUND_SIDE)):
                    bad(argv, "outside the bound ranges")
                if argv[3:] != ["--max-degree", str(BOUND_MAX_DEGREE)] or max(p, q) <= BOUND_MAX_DEGREE:
                    bad(argv, "the exact count must be capped away")
            elif kind == ("char", "twisted"):
                p, q = _ints(argv, 2, 4)
                if not (_within(p, TWISTED_SIDE) and _within(q, TWISTED_SIDE)):
                    bad(argv, "outside the twisted ranges")
                if argv[3] not in BASES or argv[5] not in BASES:
                    bad(argv, "unknown base")
            elif kind == ("char", "avg"):
                if not _within(int(argv[2]), AVG_DEGREE) or argv[3] not in BASES:
                    bad(argv, "outside the avg ranges")
            else:
                bad(argv, "not a bound-table query")
        elif workload == "orbit-census":
            p, q = _ints(argv, 1, 2)
            if argv not in (["orbits", str(p), str(q)], ["count", str(p), str(q), "--oracle", "census"]):
                bad(argv, "expected orbits p q or count p q --oracle census")
            if not _within(p * q, ORBIT_PQ):
                bad(argv, "p*q outside 16..20")
        else:
            raise ValueError("unknown workload %s" % workload)
    if workload == "bound-table" and tables != 1:
        raise ValueError("bound-table needs the table exactly once")
