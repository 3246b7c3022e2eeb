"""The verify suites themselves: labels, determinism, and failure reporting."""

import re
import time
from collections import Counter
from fractions import Fraction

from bicolored import bounds, characters, enumeration, exact, perm, verify
from bicolored.perm import CycleType, Permutation, all_permutations, cycle_type
from bicolored.verify import (EXPECTED_FLAGGED_H, GOLDEN_CELLS, SUITES, _fixed_subsets,
                              run_suites)

FIXED_SUBSETS = "2^<a,b> counts the subsets fixed by (a,b), exhaustive p,q <= 3"
NAIVE_ORACLES = ["averaging formula vs literal average, p <= 7",
                 "class-sum count equals naive permutation sum, p,q <= 5",
                 "stirling numbers vs brute-force cycle census (n <= 6)"]
H_CUTOFFS = "maximum sits at p = h+1 for h >= H_k, h <= 64, p <= 512"
TAIL = ["tail ratio strictly decreasing over h = 5..60 at k = 0",
        "tail ratio decreasing for large h at every k <= 4"]
A_EXACT = ["a_{h,p} piecewise zeros and a_{1,2} = 3/4",
           "a_{h,p} in integers equals its Q(sqrt 2) product, p <= 7",
           "a_{h,h+1} in integers equals its Q(sqrt 2) product, h = 20, 40, 60, k <= 4"]
BOUND_DOMINATES = "character bound dominates the count, p,q <= 12, exact sign"
RADICAL = "radical identity <(1-a)(1-a'),b> = 0, 300 random disjoint triples"
GAPS = ["cycle-removal gap nonnegative, ell <= 7, q <= 9",
        "harmonic cycle-count gap nonnegative, all types p <= 12"]
CONJUGATION = ["class function: c(pi s pi^-1) = c(s), exhaustive p <= 6",
               "cycle type is conjugation invariant, exhaustive n <= 5"]


def collect(names, seed=0):
    lines = []
    ok = run_suites(names, seed=seed, out=lines.append)
    return ok, lines


def test_suite_registry():
    assert set(SUITES) == {"characters", "cycleform", "bounds", "asymptotics"}
    assert set(GOLDEN_CELLS) == {(3, 0), (12, 2), (30, 2), (48, 0), (48, 4)}
    assert set(EXPECTED_FLAGGED_H) == {0, 1, 2, 3}


def test_bounds_suite_passes():
    ok, lines = collect(["bounds"])
    assert ok
    assert lines and all(line.startswith("pass  bounds: ") for line in lines)
    labels = [line.split(": ", 1)[1] for line in lines]
    assert len(labels) == len(set(labels))


def test_suites_are_deterministic():
    first = collect(["cycleform"], seed=3)
    second = collect(["cycleform"], seed=3)
    assert first == second


def test_failure_reporting(monkeypatch):
    monkeypatch.setitem(exact._stirling_rows, 4, (0, 6, 12, 6, 1))
    ok, lines = collect(["characters"])
    assert not ok
    assert any(line.startswith("FAIL") for line in lines)


def line_for(lines, label):
    [line] = [line for line in lines if line.split(": ", 1)[1].startswith(label)]
    return line


def fixed_subsets_per_bit(a, b):
    """Fixed subsets of the p x q grid, one mask and one cell at a time, as
    _fixed_subsets counted them before it built the image table by doubling."""
    p, q = a.n, b.n
    fixed = 0
    for mask in range(1 << (p * q)):
        image = 0
        for r in range(p):
            for c in range(q):
                if mask >> (r * q + c) & 1:
                    image |= 1 << ((a(r + 1) - 1) * q + (b(c + 1) - 1))
        if image == mask:
            fixed += 1
    return fixed


def test_fixed_subsets_matches_per_bit_count():
    pairs = [(a, b) for p in range(1, 4) for q in range(1, 4)
             for a in all_permutations(p) for b in all_permutations(q)]
    pairs.append((Permutation([2, 3, 4, 1]), Permutation([3, 1, 2])))
    for a, b in pairs:
        assert _fixed_subsets(a, b) == fixed_subsets_per_bit(a, b), (a, b)


def test_fixed_subsets_check_fails_on_a_wrong_form(monkeypatch):
    form = verify.cycle_form
    monkeypatch.setattr(verify, "cycle_form", lambda a, b: form(a, b) + 1)
    ok, lines = collect(["cycleform"])
    assert not ok
    assert line_for(lines, FIXED_SUBSETS).startswith("FAIL")


def test_cycleform_checks_fail_on_wrong_values(monkeypatch):
    # a bilinear form that is never 0 and gaps that are always negative
    monkeypatch.setattr(verify, "cycle_form_bilinear", lambda x, beta: 1)
    monkeypatch.setattr(verify, "bound_1a_gap", lambda ell, p, tb: -1)
    monkeypatch.setattr(verify, "bound_5_gap", lambda ta: -1)
    ok, lines = collect(["cycleform"])
    assert not ok
    assert re.fullmatch(r"FAIL  cycleform: %s  \[nonzero at p=\d+ q=\d+\]" % re.escape(RADICAL),
                        line_for(lines, RADICAL))
    for label in GAPS:
        assert line_for(lines, label) == "FAIL  cycleform: " + label


def test_conjugation_checks_fail_on_a_non_class_function(monkeypatch):
    # the identity's type for every permutation fixing 1: (2 3) and (1 2) then differ
    def skewed(sigma):
        if sigma.n >= 2 and sigma(1) == 1:
            return CycleType(sigma.n, {1: sigma.n})
        return cycle_type(sigma)

    monkeypatch.setattr(verify, "cycle_type", skewed)
    lines = collect(["characters"])[1] + collect(["cycleform"])[1]
    for label in CONJUGATION:
        assert line_for(lines, label).startswith("FAIL")
    # (1 2) and (3 4) are disjoint, but only (1 2) keeps its type
    line = line_for(lines, "disjoint multiplicativity")
    assert line.startswith("FAIL") and "  [at n=" in line


def test_naive_oracle_checks_read_the_one_walker(monkeypatch):
    # doubling every count keeps count_naive's division exact, so each check fails
    # instead of raising; all three read type_tally
    tally = perm.type_tally

    def doubled(n):
        return Counter({key: 2 * k for key, k in tally(n).items()})

    for module in (enumeration, characters, verify):
        monkeypatch.setattr(module, "type_tally", doubled)
    lines = collect(["characters"])[1] + collect(["bounds"])[1]
    for label in NAIVE_ORACLES:
        assert line_for(lines, label).startswith("FAIL"), label


def test_cutoff_check_reads_the_ratio_test(monkeypatch):
    # a ratio that always falls puts every maximum at p = h+1 (k = 2 is the last k that
    # expects a flag); one that never falls puts it at p = 512 for every h
    for falls, detail in [(True, "[flag set for k=2 is []]"),
                          (False, "[flag set for k=3 is %s]" % list(range(1, 65)))]:
        monkeypatch.setattr(bounds, "_falls", lambda h, p, k, falls=falls: falls)
        ok, lines = collect(["asymptotics"])
        assert not ok
        assert line_for(lines, H_CUTOFFS) == "FAIL  asymptotics: %s  %s" % (H_CUTOFFS, detail)


def test_tail_checks_compare_exact_ratios(monkeypatch):
    true_tail = bounds._tail
    tiny = Fraction(1, 10 ** 30)  # far below a float's resolution at t_h ~ 0.7
    # t_40 a hair above t_39 is a rise; a hair below it is a fall that only an exact
    # comparison sees; t_60 at 7/10, the open interval's lower end, lies outside it
    cases = [({40: lambda k: true_tail(39, k) + tiny}, "FAIL"),
             ({40: lambda k: true_tail(39, k) - tiny}, "pass"),
             ({60: lambda k: Fraction(7, 10)}, "FAIL")]
    for patch, verdict in cases:
        monkeypatch.setattr(verify, "_tail", lambda h, k, patch=patch:
                            patch[h](k) if h in patch else true_tail(h, k))
        ok, lines = collect(["asymptotics"])
        assert ok == (verdict == "pass")
        for label in TAIL:
            assert line_for(lines, label) == "%s  asymptotics: %s" % (verdict, label)


def test_a_checks_compare_exact_values(monkeypatch):
    # n one too large, or one factor 2 too many in sqrt2^s, fails the three checks of `_a`;
    # verify_H and `_tail` read bounds._a, so every other check still passes
    true_a = bounds._a
    for patch in (lambda n, s: (n + 1, s), lambda n, s: (n, s + 2)):
        monkeypatch.setattr(verify, "_a", lambda h, p, k, patch=patch: patch(*true_a(h, p, k)))
        ok, lines = collect(["asymptotics"])
        assert not ok
        assert [line for line in lines if line.startswith("FAIL")] == \
            ["FAIL  asymptotics: " + label for label in A_EXACT]


def test_bound_check_compares_exactly(monkeypatch):
    # a bound a hair below the count fails, one equal to it passes
    tiny = Fraction(1, 10 ** 30)
    for shift, verdict in [(tiny, "FAIL"), (0, "pass")]:
        def run(p, q, shift=shift):  # the check reads one theorem_bounds run per p
            while True:
                yield exact.QSqrt2(enumeration.count_exact(p, q)) - shift
                q += 1

        monkeypatch.setattr(verify, "theorem_bounds", run)
        lines = collect(["bounds"])[1]
        assert line_for(lines, BOUND_DOMINATES) == "%s  bounds: %s" % (verdict, BOUND_DOMINATES)


def test_conjugation_invariant_on_small_groups():
    assert verify._conjugation_invariant(4, cycle_type)
    assert not verify._conjugation_invariant(3, lambda s: s(1))
    assert not verify._conjugation_invariant(3, lambda s: s.images)
    # S_2 is abelian, so every function on it is a class function
    assert verify._conjugation_invariant(2, lambda s: s.images)
    assert all(verify._conjugation_invariant(n, lambda s: 0) for n in range(5))
    # each invariant under one of the generators (1 2) and (1 2 ... n) only, so a
    # check that drops either generator passes one of them
    def fixes_n(s):
        return s(s.n) == s.n

    def steps(s):
        return sum(s(i) % s.n == (i + 1) % s.n for i in range(1, s.n + 1))

    for n in range(3, 7):
        swap, rotate = Permutation.from_cycles(n, (1, 2)), perm.make_cycle(n, n)
        for f, g, h in [(fixes_n, swap, rotate), (steps, rotate, swap)]:
            assert all(f(g * s * g.inverse()) == f(s) for s in all_permutations(n))
            assert not all(f(h * s * h.inverse()) == f(s) for s in all_permutations(n))
            assert not verify._conjugation_invariant(n, f)


def test_all_suites_run_in_time():
    # all suites take 0.30 to 0.37 s on a 2-vCPU Xeon (0.35 to 0.55 s in the same
    # sitting while verify_H scanned every p <= 512 in floats, 0.9 to 1.1 s before the
    # count kernel walked cycle types as a tree and the conjugation checks ran on S_n's
    # two generators, 2.3 s before the brute-force checks over S_n moved to C-level
    # loops); the generous limit leaves room for a
    # shared host's swings and fails when the suites' cost grows tenfold, as a brute
    # force widened to the next n would make it
    start = time.monotonic()
    ok, lines = collect(list(SUITES))
    assert ok and len(lines) == 44
    assert time.monotonic() - start < 8.0
