"""Theorem bound, competing bounds, table cells, and asymptotic scans."""

import math
from fractions import Fraction

import pytest

from bicolored import characters
from bicolored.bounds import (a_log2_closed_form, a_term, ao_bounds, bound_report,
                              growth_ratio, h_constant, ratio_table, tail_ratio,
                              theorem_bound, verify_H)
from bicolored.characters import twisted_product, twisted_product_naive
from bicolored.enumeration import CapExceeded, count_exact
from bicolored.exact import QSqrt2, pow2


def test_theorem_bound_small_values():
    assert theorem_bound(1, 1) == 2  # tight at the smallest case
    assert theorem_bound(1, 2) == 3  # tight again
    with pytest.raises(ValueError):
        theorem_bound(0, 3)


def twisted_bound(p, q, product=twisted_product):
    """The bound as the paper states it: 2^(pq/2) ((chi_{1/2}, chi_{2^{q/2}}))."""
    return pow2(Fraction(p * q, 2)) * product(p, Fraction(1, 2), q, pow2(Fraction(q, 2)))


def test_theorem_bound_matches_twisted_product(monkeypatch):
    for p in range(1, 25):
        for q in range(1, 25):
            assert theorem_bound(p, q) == twisted_bound(p, q), (p, q)
    # both parities of q at the largest degrees, and the shape of `bound 70 3`, for
    # which the oracle's degree cap is lifted
    monkeypatch.setattr(characters, "DEGREE_CAP", 70)
    for p, q in [(3, 64), (64, 3), (70, 3), (64, 64)]:
        assert theorem_bound(p, q) == twisted_bound(p, q), (p, q)


def test_theorem_bound_matches_naive_sum():
    for p in range(1, 6):
        for q in range(1, 6):
            assert theorem_bound(p, q) == twisted_bound(p, q, twisted_product_naive), (p, q)


def test_theorem_bound_caps():
    assert theorem_bound(64, 64) > 0
    assert theorem_bound(4096, 1) > 0
    for p, q in [(4097, 1), (65, 64), (1, 65)]:
        with pytest.raises(CapExceeded):
            theorem_bound(p, q)


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


def test_growth_ratio():
    assert growth_ratio(1, 0) == 1
    assert growth_ratio(2, 0) == Fraction(7, 4)
    assert growth_ratio(2, 1) == Fraction(13 * 2 * 6, 64)
    values = [growth_ratio(p, 0) for p in (4, 6, 8, 10)]
    assert all(v > 1 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_a_term_zero_cases():
    assert a_term(3, 3, 0).log2_value == float("-inf")
    assert a_term(5, 3, 1).log2_value == float("-inf")
    assert a_term(0, 1, 0).log2_value == float("-inf")
    assert a_term(2, 6, 1).log2_value > float("-inf")
    with pytest.raises(ValueError):
        a_term(2, 0, 0)
    with pytest.raises(ValueError):
        a_term(2, 6, -1)


def test_a_term_closed_form_at_first_p():
    for k in range(5):
        for h in range(1, 41):
            direct = a_term(h, h + 1, k).log2_value
            closed = a_log2_closed_form(h, k)
            assert abs(direct - closed) < 1e-9 * max(1.0, abs(closed))


def test_verify_H_flags():
    expected = {0: {1, 2, 3, 4}, 1: {1, 2}, 2: {1}, 3: set()}
    for k, flagged in expected.items():
        rows = verify_H(k, h_max=16, p_max=128)
        assert {r.h for r in rows if not r.at_first} == flagged
        for r in rows:
            if r.h >= h_constant(k):
                assert r.at_first


def test_h_constant():
    assert [h_constant(k) for k in range(6)] == [12, 10, 7, 1, 1, 1]


def test_tail_ratio_limit():
    for k in range(5):
        assert abs(tail_ratio(60, k) - 2 ** -0.5) < 0.04
    values = [tail_ratio(h, 0) for h in range(5, 61)]
    assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        tail_ratio(0, 0)
