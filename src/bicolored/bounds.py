"""Upper bounds for |B_u(p,q)|, the comparison table, and asymptotic verification."""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .enumeration import DEGREE_CAP, CapExceeded, count_exact, count_refusal
from .exact import QSqrt2, decimal_render, stirling_first

H_CONSTANTS = {0: 12, 1: 10, 2: 7}  # H_k = 1 for k >= 3


@dataclass(frozen=True)
class BoundReport:
    p: int
    q: int
    theorem_bound: QSqrt2
    ao_lower: Fraction
    ao_upper: Fraction
    exact: Optional[int] = None


@dataclass(frozen=True)
class AsymptoticTerm:
    h: int
    p: int
    k: int
    log2_value: float  # -inf marks an exactly zero term


@dataclass(frozen=True)
class HRow:
    h: int
    argmax_p: int
    max_log2: float
    at_first: bool  # whether the maximum sits at p = h+1


def theorem_bound(p, q):
    """2^(pq/2) ((chi_{1/2}, chi_{2^{q/2}})), exact in Q(sqrt 2).

    Summed over the cycle count l of S_q, the bound is
    sum_l c(q,l) prod_{i<p} (2^l + i sqrt2^q) / (p! q!), an element A + B sqrt2 of
    Z[sqrt2] over p! q!, computed in integers from the Stirling row of q. Raises
    CapExceeded for q > DEGREE_CAP, which bounds the Stirling rows built, or for
    p*q > DEGREE_CAP^2, which bounds the size of A and B.
    """
    if p < 1 or q < 1:
        raise ValueError("p, q must be positive")
    if q > DEGREE_CAP or p * q > DEGREE_CAP * DEGREE_CAP:
        raise CapExceeded("theorem_bound needs q <= %d and p*q <= %d"
                          % (DEGREE_CAP, DEGREE_CAP * DEGREE_CAP))
    h = 1 << (q // 2)  # sqrt2^q is h for even q and h sqrt2 for odd q
    big_a = big_b = 0
    for l in range(1, q + 1):
        x = 1 << l
        a, b = x, 0  # the factor at i = 0
        if q % 2:
            for i in range(1, p):
                # (a + b sqrt2)(x + i h sqrt2)
                ih = i * h
                a, b = a * x + 2 * b * ih, a * ih + b * x
        else:
            for i in range(1, p):
                a *= x + i * h
        c = stirling_first(q, l)
        big_a += c * a
        big_b += c * b
    d = math.factorial(p) * math.factorial(q)
    return QSqrt2(Fraction(big_a, d), Fraction(big_b, d))


def ao_bounds(p, q):
    """The pair (lower, 2*lower) with lower = binom(p + 2^q - 1, p) / q!."""
    if p < 1 or q < 1:
        raise ValueError("p, q must be positive")
    if q > DEGREE_CAP:
        raise CapExceeded("ao_bounds needs q <= %d" % DEGREE_CAP)
    lower = Fraction(math.comb(p + (1 << q) - 1, p), math.factorial(q))
    return lower, 2 * lower


def bound_report(p, q, max_degree=DEGREE_CAP):
    """All bounds for one (p,q), with the exact count unless a count cap refuses it."""
    bound = theorem_bound(p, q)  # first: its cap also keeps ao_bounds' binomial small
    value = None
    if count_refusal(p, q, max_degree) is None:
        value = count_exact(p, q, max_degree)
    lower, upper = ao_bounds(p, q)
    return BoundReport(p, q, bound, lower, upper, value)


def ratio_table(p_values, k_values):
    """Decimal table of ao_upper(p, p+k) / theorem_bound(p, p+k), six places."""
    rows = []
    for p in p_values:
        row = []
        for k in k_values:
            _, upper = ao_bounds(p, p + k)
            ratio = QSqrt2(upper) / theorem_bound(p, p + k)
            row.append(decimal_render(ratio, 6))
        rows.append(row)
    return rows


def growth_ratio(p, k, max_degree=DEGREE_CAP):
    """|B_u(p,p+k)| p! (p+k)! / 2^(p(p+k)), the ratio against the limiting rate."""
    q = p + k
    value = count_exact(p, q, max_degree)
    return Fraction(value * math.factorial(p) * math.factorial(q), 1 << (p * q))


def _log2_big(x):
    """log2 of a positive integer, safe beyond the double range."""
    bl = x.bit_length()
    if bl <= 960:
        return math.log2(x)
    shift = bl - 64
    return shift + math.log2(x >> shift)


def _a_log2(h, p, k):
    """Direct log2 evaluation of the a_{h,p} product; -inf for the zero cases."""
    if h < 0 or h >= p:
        return float("-inf")
    if p == 1:
        return float("-inf")  # the base (p-1)/2 vanishes and p - h > 0
    m = p + k
    base = 1 << h
    s = 0.0
    for i in range(m):
        s += math.log2(base + i)
    return (_log2_big(math.comb(p, h))
            + (p - h) * (math.log2(p - 1) - 1 + m / 2)
            + s - p * m)


def a_term(h, p, k):
    """log2 of a_{h,p} at offset k; exactly zero (log2 = -inf) unless 0 <= h < p."""
    if p < 1 or k < 0:
        raise ValueError("p >= 1 and k >= 0 required")
    return AsymptoticTerm(h, p, k, _a_log2(h, p, k))


def a_log2_closed_form(h, k):
    """log2 of the closed form of a_{h,h+1}: (h(h+1)/2) 2^((h+1+k)(-h-1/2)) (2^h)^rising."""
    m = h + 1 + k
    base = 1 << h
    s = 0.0
    for i in range(m):
        s += math.log2(base + i)
    return math.log2(h * (h + 1) / 2) + m * (-h - 0.5) + s


def _scan_h(h, k, p_max):
    """Maximum of log2 a_{h,p} over h < p <= p_max, by incremental updates."""
    m0 = h + 1 + k
    base = 1 << h
    s = sum(math.log2(base + i) for i in range(m0))
    log_binom = math.log2(h + 1)  # binom(h+1, h)
    best = float("-inf")
    best_p = 0
    for p in range(h + 1, p_max + 1):
        m = p + k
        if p > h + 1:
            log_binom += math.log2(p) - math.log2(p - h)
            s += math.log2(base + m - 1)
        value = log_binom + (p - h) * (math.log2(p - 1) - 1 + m / 2) + s - p * m
        if value > best:
            best = value
            best_p = p
    return best, best_p


def verify_H(k, h_max=64, p_max=512):
    """Per h, where max_p a_{h,p} is attained; the contract is p = h+1 for h >= H_k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    rows = []
    for h in range(1, h_max + 1):
        best, best_p = _scan_h(h, k, p_max)
        rows.append(HRow(h, best_p, best, best_p == h + 1))
    return rows


def h_constant(k):
    """The cutoff H_k: 12, 10, 7, then 1 from k = 3 on."""
    return H_CONSTANTS.get(k, 1)


def tail_ratio(h, k):
    """a_{h+1,h+2} / a_{h,h+1}, evaluated in the log domain."""
    if h < 1:
        raise ValueError("h must be positive")
    return 2.0 ** (_a_log2(h + 1, h + 2, k) - _a_log2(h, h + 1, k))
