"""Theorem bound, competing bounds, table cells, and asymptotic scans."""

import inspect
import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from bicolored import bounds, characters, cli, exact
from bicolored.bounds import (BoundReport, HRow, _a, _falls, _tail, ao_bounds, bound_report,
                              growth_ratio, h_constant, ratio_table, tail_ratio, theorem_bound,
                              theorem_bounds, verify_H)
from bicolored.characters import twisted_product, twisted_product_naive
from bicolored.enumeration import DEGREE_CAP, CapExceeded, OrbitCensus, count_exact, orbit_census
from bicolored.exact import QSqrt2, SQRT2, decimal_render, parse_qsqrt2, pow2, rising_factorial
from bicolored.verify import _a_exact


def test_theorem_bound_small_values():
    assert theorem_bound(1, 1) == 2  # tight at the smallest case
    assert theorem_bound(1, 2) == 3  # tight again
    with pytest.raises(ValueError):
        theorem_bound(0, 3)


def twisted_k_loop(p, z, q, zprime):
    """((chi_z, chi_z')) = sum_k c(p,k) z'^(-k) (z^(-k))^(q rising) / (p! q!), uncapped.

    The oracle for shapes too large for the naive sum: it walks the Stirling row of p
    whatever the shape, and reduces every term in Q(sqrt 2).
    """
    zi = QSqrt2._coerce(z).inverse()
    zpi = QSqrt2._coerce(zprime).inverse()
    total = QSqrt2(0)
    zik = QSqrt2(1)    # z^(-k)
    zpik = QSqrt2(1)   # z'^(-k)
    for k in range(1, p + 1):
        zik = zik * zi
        zpik = zpik * zpi
        # sum_l c(q,l) z^(-kl) is the rising factorial of z^(-k)
        total = total + exact.stirling_first(p, k) * zpik * rising_factorial(zik, q)
    return total / (math.factorial(p) * math.factorial(q))


def twisted_bound(p, q, product=twisted_k_loop):
    """The bound as the paper states it: 2^(pq/2) ((chi_{1/2}, chi_{2^{q/2}}))."""
    return pow2(Fraction(p * q, 2)) * product(p, Fraction(1, 2), q, pow2(Fraction(q, 2)))


def test_theorem_bound_matches_twisted_product():
    for p in range(1, 25):
        for q in range(1, 25):
            assert theorem_bound(p, q) == twisted_bound(p, q), (p, q)
    # both parities of q at the largest degrees, and the shape of `bound 70 3`
    for p, q in [(3, 64), (64, 3), (70, 3), (64, 64), (64, 63), (64, 33)]:
        assert theorem_bound(p, q) == twisted_bound(p, q), (p, q)


def test_twisted_product_matches_k_loop():
    # the largest shapes, the bound's own bases at 64 x 64, and a negative base; then
    # shapes on both sides of the kernel's p <= q choice: a rising factorial through 0,
    # w^k alternating between rational and surd, a long surd base, the degree 1 edges
    for p, z, q, zp in [(64, "3/2", 64, "sqrt2"), (64, "1/2", 64, str(2 ** 32)),
                        (20, "sqrt2", 14, "3/2"), (7, "-3/2", 9, "1-1*sqrt2"),
                        (5, "-1/2", 9, "3/2"), (9, "-1/2", 5, "sqrt2"),
                        (12, "sqrt2", 12, "-sqrt2"), (8, "%d+1*sqrt2" % 2 ** 60, 64, "3/2"),
                        (64, "-3/2", 3, "1-1*sqrt2"), (1, "2", 64, "sqrt2"),
                        (64, "2", 1, "sqrt2")]:
        z, zp = parse_qsqrt2(z), parse_qsqrt2(zp)
        assert twisted_product(p, z, q, zp) == twisted_k_loop(p, z, q, zp), (p, z, q, zp)


def test_theorem_bound_matches_naive_sum():
    for p in range(1, 6):
        for q in range(1, 6):
            assert theorem_bound(p, q) == twisted_bound(p, q, twisted_product_naive), (p, q)


def test_theorem_bounds_run_matches_twisted_product():
    # each run covers both parities of q; those with p <= 64 also cross from p > q to
    # p <= q, and p = 65, 70 take the branch that cannot read row p
    for p, q0 in [(1, 1), (2, 1), (17, 15), (48, 46), (64, 61), (65, 2), (70, 3)]:
        run = theorem_bounds(p, q0)
        for q in range(q0, q0 + 4):
            assert next(run) == twisted_bound(p, q), (p, q)


def test_theorem_bounds_caps_each_q_as_reached():
    run = theorem_bounds(64, 60)
    assert [next(run) for _ in range(5)] == [theorem_bound(64, q) for q in range(60, 65)]
    with pytest.raises(CapExceeded):
        next(run)  # q = 65
    run = theorem_bounds(65, 62)
    assert [next(run) for _ in range(2)] == [theorem_bound(65, 62), theorem_bound(65, 63)]
    with pytest.raises(CapExceeded):
        next(run)  # p*q = 4160
    with pytest.raises(ValueError):
        next(theorem_bounds(3, 0))


def test_theorem_bound_caps():
    assert theorem_bound(64, 64) > 0
    assert theorem_bound(4096, 1) > 0
    for p, q in [(4097, 1), (65, 64), (1, 65)]:
        with pytest.raises(CapExceeded):
            theorem_bound(p, q)


def test_theorem_bound_builds_stirling_rows_of_q(monkeypatch):
    # p*q <= 4096 keeps the row of min(p, q) within 64, however large p is; the q cap
    # stays only because tests pin its refusals
    monkeypatch.setattr(exact, "_stirling_rows", {0: (1,)})
    theorem_bound(4096, 1)
    assert max(exact._stirling_rows) <= DEGREE_CAP
    # with p <= q the kernel walks row p: none above it is built
    monkeypatch.setattr(exact, "_stirling_rows", {0: (1,)})
    theorem_bound(3, 64)
    assert max(exact._stirling_rows) == 3
    # with p <= 64 the run reads row p, whatever the parity of q
    monkeypatch.setattr(exact, "_stirling_rows", {0: (1,)})
    theorem_bound(64, 63)
    assert max(exact._stirling_rows) == 64


def test_theorem_bound_past_row_p_sums_row_q(monkeypatch):
    # the expected values come first: the k-loop oracle, and at (2048, 1), where the bound
    # is sqrt2^p (sqrt2)^(p rising) / p!, the rising factorial
    shapes = [(65, 2), (65, 63), (70, 3), (100, 40), (128, 32), (200, 20), (512, 8)]
    want = [twisted_bound(p, q) for p, q in shapes]
    shapes.append((2048, 1))
    want.append(SQRT2 ** 2048 * rising_factorial(SQRT2, 2048) / math.factorial(2048))
    run_want = [twisted_bound(65, 62), want[1]]

    def refuse(*args):
        raise AssertionError("the bound past row p reached a ring operation")

    monkeypatch.setattr(characters, "_twisted_sum", refuse)
    for name in ("inverse", "__truediv__", "__mul__", "__pow__"):
        monkeypatch.setattr(QSqrt2, name, refuse)
    monkeypatch.setattr(exact, "pow2", refuse)
    for (p, q), value in zip(shapes, want):
        assert theorem_bound(p, q) == value, (p, q)
    run = theorem_bounds(65, 62)
    assert [next(run), next(run)] == run_want
    assert not [name for name, value in vars(bounds).items()
                if getattr(value, "__module__", None) == characters.__name__]


def test_theorem_bound_not_symmetric():
    # the construction favors the second argument; both orders still dominate
    assert theorem_bound(2, 1) == QSqrt2(2, 1)
    assert theorem_bound(2, 1) != theorem_bound(1, 2)


def test_theorem_bound_dominates_count():
    for p in range(1, 9):
        for q in range(1, 9):
            assert theorem_bound(p, q) >= count_exact(p, q)


def test_ao_bounds_values():
    assert ao_bounds(1, 1) == (2, 4)
    assert ao_bounds(2, 2) == (5, 10)
    assert ao_bounds(3, 2) == (Fraction(10), Fraction(20))
    with pytest.raises(ValueError):
        ao_bounds(0, 1)
    with pytest.raises(CapExceeded):
        ao_bounds(2, 65)


def test_ao_sandwich_on_wide_side():
    # lower <= count <= upper holds whenever p >= q
    for p in range(1, 9):
        for q in range(1, p + 1):
            lower, upper = ao_bounds(p, q)
            assert lower <= count_exact(p, q) <= upper


def test_ao_lower_holds_everywhere():
    for p in range(1, 11):
        for q in range(1, 11):
            lower, _ = ao_bounds(p, q)
            assert lower <= count_exact(p, q)


def test_ao_upper_fails_on_tall_side():
    # the doubled bound is wrong for q > p; (1,3) is the smallest counterexample
    _, upper = ao_bounds(1, 3)
    assert upper == Fraction(8, 3)
    assert count_exact(1, 3) == 4
    assert upper < count_exact(1, 3)


def test_bound_report():
    r = bound_report(4, 3)
    assert r.exact == count_exact(4, 3)
    assert r.ao_lower <= r.exact <= r.ao_upper
    assert r.theorem_bound >= r.exact
    r = bound_report(70, 3)
    assert r.exact is None
    assert r.theorem_bound > 0


def test_ratio_table_golden_cells():
    p_values = [3, 12, 30, 48]
    rows = ratio_table(p_values, range(5))
    cells = {(p, k): rows[i][k] for i, p in enumerate(p_values) for k in range(5)}
    assert cells[(3, 0)] == "0.678530"
    assert cells[(12, 2)] == "1.174011"
    assert cells[(30, 2)] == "1.986770"
    assert cells[(48, 0)] == "1.999866"
    assert cells[(48, 4)] == "1.999966"


def test_ratio_table_shape():
    rows = ratio_table(range(3, 10, 3), range(3))
    assert len(rows) == 3 and all(len(r) == 3 for r in rows)
    for r in rows:
        for cell in r:
            float(cell)  # every cell is a fixed-point decimal


def test_ratio_table_runs_match_cells(capsys):
    def cell(p, k):
        return decimal_render(QSqrt2(ao_bounds(p, p + k)[1]) / theorem_bound(p, p + k), 6)
    # p = 66 is past row p's reach; then k out of order, each jump opening a new run
    assert cli.main(["table", "--format", "csv", "--p-min", "66", "--p-max", "66",
                     "--k-min", "-60", "--k-max", "-58"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",") == (
        ["p=66"] + [cell(66, k) for k in range(-60, -57)])
    k_values = [4, 0, 1, 3, 2]
    assert ratio_table([5, 12], k_values) == [[cell(p, k) for k in k_values] for p in [5, 12]]
    # (64, k=0), where p q reaches 4096, and a row of negative k
    assert ratio_table([64], [0]) == [[cell(64, 0)]]
    assert ratio_table([30], [-4, -3, -1]) == [[cell(30, k) for k in (-4, -3, -1)]]
    assert ratio_table(range(3, 6), range(0)) == [[], [], []]


def test_growth_ratio():
    assert growth_ratio(1, 0) == 1
    assert growth_ratio(2, 0) == Fraction(7, 4)
    assert growth_ratio(2, 1) == Fraction(13 * 2 * 6, 64)
    values = [growth_ratio(p, 0) for p in (4, 6, 8, 10)]
    assert all(v > 1 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_a_matches_exact():
    for h, p, k in [(3, 3, 0), (5, 3, 1), (0, 1, 0), (-1, 3, 0)]:
        assert _a(h, p, k) == (0, 0), (h, p, k)
    assert _a(1, 2, 0) == (12, 8)  # 12 / sqrt2^8 = 3/4
    for k in range(5):
        for h in range(20):
            for p in range(max(2, h + 1), 40):
                n, s = _a(h, p, k)
                assert _a_exact(h, p, k) * SQRT2 ** s == n, (h, p, k)


def test_verify_H_flags():
    expected = {0: {1, 2, 3, 4}, 1: {1, 2}, 2: {1}, 3: set()}
    for k, flagged in expected.items():
        rows = verify_H(k, h_max=16, p_max=128)
        assert {r.h for r in rows if not r.at_first} == flagged
        for r in rows:
            if r.h >= h_constant(k):
                assert r.at_first


def test_verify_H_argmax():
    # where each maximum over p <= 512 sits; every other h has it at p = h+1
    off_first = {(0, 1): 5, (0, 2): 5, (0, 3): 5, (0, 4): 6, (1, 1): 4, (1, 2): 4, (2, 1): 3}
    for k in range(4):
        for r in verify_H(k, 64, 512):
            assert r.argmax_p == off_first.get((k, r.h), r.h + 1), (k, r.h)


def a_log2_terms(h, k):
    """log2 a_{h,p} for p = h+1, h+2, ..., by incremental updates; -inf at p = 1.

    The generator `verify_H` scanned before it stopped at the first falling ratio.
    """
    m0 = h + 1 + k
    base = 1 << h
    s = sum(math.log2(base + i) for i in range(m0))
    log_binom = math.log2(h + 1)  # binom(h+1, h)
    for p in itertools.count(h + 1):
        m = p + k
        if p > h + 1:
            log_binom += math.log2(p) - math.log2(p - h)
            s += math.log2(base + m - 1)
        if p == 1:
            yield float("-inf")
        else:
            yield log_binom + (p - h) * (math.log2(p - 1) - 1 + m / 2) + s - p * m


def float_scan(k, h_max, p_max):
    """The float argmax over every h+1 <= p <= p_max, first maximum kept."""
    rows = []
    for h in range(1, h_max + 1):
        best, best_p = float("-inf"), 0
        for p, value in zip(range(h + 1, p_max + 1), a_log2_terms(h, k)):
            if value > best:
                best, best_p = value, p
        rows.append(HRow(h, best_p, best, best_p == h + 1))
    return rows


GRIDS = [(64, 512), (16, 128), (10, 5), (3, 2), (64, 66)]


def test_verify_H_matches_float_scan():
    for h_max, p_max in GRIDS:
        for k in range(8):
            rows, scan = verify_H(k, h_max, p_max), float_scan(k, h_max, p_max)
            assert len(rows) == h_max
            for row, old in zip(rows, scan):
                assert (row.h, row.argmax_p, row.at_first) == (old.h, old.argmax_p, old.at_first), \
                    (h_max, p_max, k, row, old)
                if old.argmax_p == 0:
                    assert row.max_log2 == float("-inf")
                else:
                    assert math.isclose(row.max_log2, old.max_log2, rel_tol=1e-12, abs_tol=0)


def log2_exact(value):
    """log2 of a positive QSqrt2 value to 60 digits, by decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 80
        x = (Decimal(value.x) + Decimal(value.y) * Decimal(2).sqrt()) / value.d
        return +(x.ln() / Decimal(2).ln())


def test_verify_H_max_log2_matches_exact():
    # max_log2 is the float of log2 a_{h,argmax_p}: the float sum of logs it replaced was
    # up to 4.0e-12 away, one rounded quotient of `_a`'s integers is within 2e-15
    for k in range(8):
        for row in verify_H(k, 64, 512):
            want = log2_exact(_a_exact(row.h, row.argmax_p, k))
            assert abs(Decimal(row.max_log2) - want) < Decimal("1e-14"), (k, row)


def rho(h, p, k):
    """rho_p = a_{h,p+1}/a_{h,p} as (N, D, e), rho_p = N / (D sqrt2^e)."""
    return ((p + 1) * p ** (p + 1 - h) * ((1 << h) + p + k),
            2 * (p + 1 - h) * (p - 1) ** (p - h), 2 * p + k + 1 + h)


def test_a_agrees_with_falls_ratio():
    # a_{h,p+1}/a_{h,p} = N / (D sqrt2^e) on `_a`'s integers, at sizes `_a_exact` is too slow for
    for k in range(8):
        for h in range(1, 65):
            terms = [_a(h, p, k) for p in range(h + 1, 102)]
            for p, (n0, s0), (n1, s1) in zip(range(h + 1, 101), terms, terms[1:]):
                n, d, e = rho(h, p, k)
                assert n1 * d == 2 * n * n0 and s1 - s0 == e + 2, (h, p, k)


def test_falls_matches_exact_ratio():
    for k in range(5):
        for h in range(1, 6):
            for p in range(h + 1, 7):
                ratio = _a_exact(h, p + 1, k) / _a_exact(h, p, k)
                n, d, e = rho(h, p, k)
                assert ratio == QSqrt2(Fraction(n, d)) / pow2(Fraction(e, 2)), (h, p, k)
                assert _falls(h, p, k) == (ratio < 1), (h, p, k)
    # every step verify_H can take at h <= 64 up to p = 100, against the ring comparison
    for k in range(8):
        for h in range(1, 65):
            for p in range(h + 1, 101):
                assert _falls(h, p, k) == falls_in_ring(h, p, k), (h, p, k)


def falls_in_ring(h, p, k):
    """rho_p < 1 as `_falls` decided it before it passed its integers to `exact._sign`:
    N/D and sqrt2^e built as QSqrt2 values, gcd-reduced, then compared."""
    n, d, e = rho(h, p, k)
    return QSqrt2(n, 0, d) < SQRT2 ** e


def test_verify_H_builds_no_qsqrt2(monkeypatch):
    # each ratio test is two integers handed to the one order test: no ring element
    calls = []
    init = QSqrt2.__init__
    monkeypatch.setattr(QSqrt2, "__init__",
                        lambda self, *args: calls.append(args) or init(self, *args))
    rows = [verify_H(k) for k in range(4)]
    assert not calls
    assert [sum(not r.at_first for r in k_rows) for k_rows in rows] == [4, 2, 1, 0]


def lemma_factors(h, p, k):
    """A, B, C of rho_{p+1}/rho_p = A B C / 2, as `verify_H`'s docstring states them."""
    return (Fraction((p + 2) * (p + 1 - h), (p + 1) * (p + 2 - h)),
            (1 - Fraction(1, p * p)) ** (p - h) * (1 + Fraction(1, p)) ** 2,
            1 + Fraction(1, (1 << h) + p + k))


def test_ratio_decreases_in_p():
    # rho_{p+1} < rho_p; e grows by 2 from p to p+1, so it is an integer test
    for k in range(5):
        for h in range(1, 65):
            for p in range(h + 1, 101):
                n0, d0, e0 = rho(h, p, k)
                n1, d1, e1 = rho(h, p + 1, k)
                assert e1 == e0 + 2
                assert n1 * d0 < 2 * n0 * d1, (h, p, k)
    # the lemma's factors and bounds, then its three cases below p = 4, by Fraction
    for k in range(5):
        for h, p in [(1, 2), (1, 3), (2, 3), (1, 4), (3, 9), (7, 8)]:
            n0, d0, _ = rho(h, p, k)
            n1, d1, _ = rho(h, p + 1, k)
            a, b, c = lemma_factors(h, p, k)
            assert a * b * c / 2 == Fraction(n1 * d0, 2 * n0 * d1)
            assert a <= 1 and b <= (1 + Fraction(1, p)) ** 2 and c <= 1 + Fraction(1, p + 2)
    assert (1 + Fraction(1, 4)) ** 2 * (1 + Fraction(1, 6)) / 2 == Fraction(175, 192)
    for h, p, want, cap in [(1, 2, Fraction(15, 16), 0.94), (1, 3, Fraction(64, 81), 0.80),
                            (2, 3, Fraction(1280, 1701), 0.76)]:
        a, b, c = lemma_factors(h, p, 0)
        assert a * b * c / 2 == want <= cap
        assert all(lemma_factors(h, p, k)[2] < c for k in range(1, 5))


def test_h_constant():
    assert [h_constant(k) for k in range(6)] == [12, 10, 7, 1, 1, 1]
    for k in (-1, -10):
        with pytest.raises(ValueError, match="k must be nonnegative"):
            h_constant(k)


def test_tail_ratio_limit():
    for k in range(5):
        assert abs(tail_ratio(60, k) - 2 ** -0.5) < 0.04
    values = [tail_ratio(h, 0) for h in range(5, 61)]
    assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        tail_ratio(0, 0)
    for k in (-1, -10):
        with pytest.raises(ValueError, match="k must be nonnegative"):
            tail_ratio(1, k)
        with pytest.raises(ValueError, match="k must be nonnegative"):
            verify_H(k)


def test_tail_matches_exact_ratio():
    for k in range(5):
        for h in range(1, 6):
            assert _tail(h, k) == _a_exact(h + 1, h + 2, k) / _a_exact(h, h + 1, k), (h, k)


def a_log2(h, p, k):
    """log2 a_{h,p} as a float sum of logs, for 1 <= h < p: the evaluator `_a` replaced."""
    m = p + k
    s = sum(math.log2((1 << h) + i) for i in range(m))
    return math.log2(math.comb(p, h)) + (p - h) * (math.log2(p - 1) - 1 + m / 2) + s - p * m


def tail_ratio_log2(h, k):
    """t_h as 2 to a difference of float log2 sums, as `tail_ratio` computed it before `_tail`."""
    return 2.0 ** (a_log2(h + 1, h + 2, k) - a_log2(h, h + 1, k))


def test_tail_ratio_matches_log_domain():
    for k in range(8):
        old = [tail_ratio_log2(h, k) for h in range(1, 65)]
        new = [tail_ratio(h, k) for h in range(1, 65)]
        for h, a, b in zip(range(1, 65), old, new):
            assert math.isclose(a, b, rel_tol=1e-11, abs_tol=0), (h, k)
        steps = [b < a for a, b in zip(old, old[1:])]
        for t in (new, [_tail(h, k) for h in range(1, 65)]):
            assert [b < a for a, b in zip(t, t[1:])] == steps, k


def test_tail_shape():
    # t_h, h <= 64: at k = 0 it falls from h = 1; at k = 1..4 it falls to a low at
    # h = 6, 4, 4, 3, rises to a peak at h = 9, 10, 11, 11 and falls after it, toward
    # and above its limit 2^(-1/2)
    for k, low, peak in [(0, 1, 1), (1, 6, 9), (2, 4, 10), (3, 4, 11), (4, 3, 11)]:
        t = [None] + [_tail(h, k) for h in range(1, 65)]
        assert all(t[h + 1] < t[h] for h in range(1, 64) if not low <= h < peak), k
        assert all(t[h + 1] > t[h] for h in range(low, peak)), k
        assert QSqrt2(0, 1, 2) < t[64] < Fraction(19, 25), k


RECORDS = [
    (OrbitCensus, ["p", "q", "orbit_count", "free_element_count", "total"], {}),
    (BoundReport, ["p", "q", "theorem_bound", "ao_lower", "ao_upper", "exact"], {"exact": None}),
    (HRow, ["h", "argmax_p", "max_log2", "at_first"], {}),
]


@pytest.mark.parametrize("cls, names, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_fields_and_defaults(cls, names, defaults):
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == names
    assert {n: p.default for n, p in parameters.items()
            if p.default is not inspect.Parameter.empty} == defaults


def test_records_are_frozen_values():
    census = orbit_census(2, 2)
    report = bound_report(2, 2)
    row = HRow(1, 2, 0.5, True)
    assert BoundReport(2, 2, QSqrt2(8), Fraction(5), Fraction(10)).exact is None
    assert census == OrbitCensus(p=2, q=2, orbit_count=7, free_element_count=8, total=16)
    assert census != OrbitCensus(2, 2, 7, 8, 17)
    assert report == BoundReport(2, 2, QSqrt2(8), Fraction(5), Fraction(10), 7)
    assert row == HRow(1, 2, 0.5, True) and row != HRow(1, 2, 0.5, False)
    for record, name in ((census, "total"), (report, "exact"), (row, "at_first")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert repr(census) == "OrbitCensus(p=2, q=2, orbit_count=7, free_element_count=8, total=16)"
    assert repr(report) == ("BoundReport(p=2, q=2, theorem_bound=8+0*sqrt2,"
                            " ao_lower=Fraction(5, 1), ao_upper=Fraction(10, 1), exact=7)")
    assert repr(row) == "HRow(h=1, argmax_p=2, max_log2=0.5, at_first=True)"
