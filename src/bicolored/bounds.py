"""Upper bounds for |B_u(p,q)|, the comparison table, and asymptotic verification."""

import math
from collections import namedtuple
from fractions import Fraction

from .enumeration import DEGREE_CAP, CapExceeded, count_exact, count_refusal
from .exact import QSqrt2, _render_quotient, _rising, _sign, stirling_first

H_CONSTANTS = {0: 12, 1: 10, 2: 7}  # H_k = 1 for k >= 3


BoundReport = namedtuple("BoundReport", "p q theorem_bound ao_lower ao_upper exact",
                         defaults=(None,))
# at_first: whether the maximum sits at p = h+1
HRow = namedtuple("HRow", "h argmax_p max_log2 at_first")


def theorem_bound(p, q):
    """2^(pq/2) ((chi_{1/2}, chi_{2^{q/2}})), exact in Q(sqrt 2):
    sum_{k,l} c(p,k) c(q,l) 2^(kl) sqrt2^(q(p-k)) / (p! q!), the first value of the run
    `theorem_bounds(p, q)`.

    Raises CapExceeded for p*q > DEGREE_CAP^2, which bounds its integers and keeps the
    Stirling row it reads within DEGREE_CAP, or for q > DEGREE_CAP, kept because tests pin
    it: (1, 65) is refused, `bound 3 65` exits 2, `bound 65 3` exits 0.
    """
    return next(theorem_bounds(p, q))


def theorem_bounds(p, q):
    """theorem_bound(p, q), theorem_bound(p, q + 1), ... lazily, each q capped as it is
    reached: the run `_bound_run` of integers (A, B) over p! q!, one reduction per value."""
    for q, (a, b) in enumerate(_bound_run(p, q), q):
        yield QSqrt2(a, b, math.factorial(p) * math.factorial(q))


def _bound_run(p, q):
    """The integers (A, B) of T(p, q) = (A + B sqrt2) / (p! q!), then of T(p, q + 1), ...,
    unreduced, each q capped as it is reached.

    Summed over the cycle count l of S_q, the bound is sum_k t_k sqrt2^((p-k)q) / (p! q!)
    with t_k = c(p,k) R_k(q) and R_k(q) = prod_{j<q} (2^k + j), the balanced product
    `math.perm(2^k + q - 1, q)`: A and B sum t_k << floor((p-k)q/2) split by the parity
    of (p-k)q, and the step to q+1 multiplies each t_k by 2^k + q. Row p is out of reach
    for p > DEGREE_CAP: there each q sums out row p instead,
    sum_l c(q,l) prod_{i<p} (2^l + i sqrt2^q), one `_rising` per l with
    sqrt2^q = sx + sy sqrt2. Every term is positive, so A > 0 and B >= 0.
    """
    if p < 1 or q < 1:
        raise ValueError("p, q must be positive")
    terms = None
    while True:
        if q > DEGREE_CAP or p * q > DEGREE_CAP * DEGREE_CAP:
            raise CapExceeded("theorem_bound needs q <= %d and p*q <= %d"
                              % (DEGREE_CAP, DEGREE_CAP * DEGREE_CAP))
        if p > DEGREE_CAP:  # c(q,0) = 0 for q >= 1: l runs over 1..q
            sx, sy = (0, 1 << q // 2) if q % 2 else (1 << q // 2, 0)
            pairs = [_rising(1 << l, 0, sx, sy, p, stirling_first(q, l), 0)
                     for l in range(1, q + 1)]
            yield tuple(map(sum, zip(*pairs)))
        else:
            if terms is None:  # c(p,0) = 0 for p >= 1: k runs over 1..p
                terms = [stirling_first(p, k) * math.perm((1 << k) + q - 1, q)
                         for k in range(1, p + 1)]
            parts = [0, 0]
            for k, t in enumerate(terms, 1):
                shift, odd = divmod((p - k) * q, 2)
                parts[odd] += t << shift
            yield tuple(parts)
            terms = [t * ((1 << k) + q) for k, t in enumerate(terms, 1)]
        q += 1


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
    """Decimal table of ao_upper(p, p+k) / theorem_bound(p, p+k), six places; one
    `_bound_run` per row serves its consecutive k.

    A cell is N p! q! / (D A + D B sqrt2), from ao_upper = N/D and the run's unreduced
    (A, B): rendered by `_render_quotient`, it builds no QSqrt2 and takes no gcd or norm.
    """
    rows = []
    for p in p_values:
        row, last = [], None
        for k in k_values:
            q = p + k
            upper = ao_bounds(p, q)[1]  # first: its refusal of q > DEGREE_CAP is pinned
            if last is None or k != last + 1:  # a row's run serves consecutive k
                run = _bound_run(p, q)
            last = k
            a, b = next(run)
            n, d = upper.numerator, upper.denominator
            row.append(_render_quotient(n * math.factorial(p) * math.factorial(q), 0,
                                        d * a, d * b, 6))
        rows.append(row)
    return rows


def growth_ratio(p, k):
    """|B_u(p,p+k)| p! (p+k)! / 2^(p(p+k)), the ratio against the limiting rate."""
    q = p + k
    value = count_exact(p, q)
    return Fraction(value * math.factorial(p) * math.factorial(q), 1 << (p * q))


def _a(h, p, k):
    """a_{h,p} = n / sqrt2^s exactly, as the integers (n, s); (0, 0) for the zero cases
    h < 0, h >= p and p = 1. With m = p+k and R(h, m) = prod_{i<m} (2^h + i),
    n = C(p,h) (p-1)^(p-h) R(h, m) and s = 2(p-h) + m(p+h).
    """
    if h < 0 or h >= p or p == 1:
        return 0, 0
    m = p + k
    n = math.comb(p, h) * (p - 1) ** (p - h) * math.perm((1 << h) + m - 1, m)
    return n, 2 * (p - h) + m * (p + h)


def _falls(h, p, k):
    """Whether rho_p = a_{h,p+1}/a_{h,p} < 1, decided exactly; needs 1 <= h < p.

    rho_p = N / (D sqrt2^e) with N = (p+1) p^(p+1-h) (2^h+p+k), D = 2 (p+1-h) (p-1)^(p-h)
    and e = 2p+k+1+h = 2x+y, so rho_p < 1 iff D sqrt2^e - N > 0: the sign of
    (D 2^x - N) + 0 sqrt2 for y = 0 and of -N + D 2^x sqrt2 for y = 1.
    """
    n = (p + 1) * p ** (p + 1 - h) * ((1 << h) + p + k)
    d = 2 * (p + 1 - h) * (p - 1) ** (p - h)
    x, y = divmod(2 * p + k + 1 + h, 2)
    return (_sign(-n, d << x) if y else _sign((d << x) - n, 0)) > 0


def _tail(h, k):
    """The tail ratio t_h = a_{h+1,h+2}/a_{h,h+1} exactly, for h >= 1: n1 / (n0 sqrt2^e)
    from `_a`, with e = s1 - s0 = 4h+2k+5 odd, so t_h = sqrt2 n1 / (n0 2^((e+1)/2)).
    """
    n0, s0 = _a(h, h + 1, k)
    n1, s1 = _a(h + 1, h + 2, k)
    return QSqrt2(0, n1, n0 << (s1 - s0 + 1) // 2)


def verify_H(k, h_max=64, p_max=512):
    """Per h, the p in h+1..p_max where a_{h,p} peaks; the contract is p = h+1 for h >= H_k.

    Each row walks p up from h+1 to the first p with rho_p < 1 (`_falls`) or to p_max. That
    p is the maximum by the lemma: rho_{p+1} < rho_p for 1 <= h < p. Proof: from `_falls`,
    rho_{p+1}/rho_p = A B C / 2 with A = (p+2)(p+1-h)/((p+1)(p+2-h)) <= 1,
    B = (1-1/p^2)^(p-h) (1+1/p)^2 <= (1+1/p)^2 and C = 1 + 1/(2^h+p+k) <= 1 + 1/(p+2),
    so for p >= 4 it is at most (25/16)(7/6)/2 = 175/192 < 1. The other cases are
    (h,p) = (1,2), (1,3), (2,3), exactly 15/16, 64/81, 1280/1701 (<= 0.94, 0.80, 0.76) at
    k = 0, and C, the only factor with k, only falls as k grows.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    rows = []
    for h in range(1, h_max + 1):
        p = h + 1
        while p < p_max and not _falls(h, p, k):
            p += 1
        if p > p_max:
            rows.append(HRow(h, 0, float("-inf"), False))
        else:  # n / 2^b, b = bits of n, is one rounded quotient in [1/2, 1] at any size
            n, s = _a(h, p, k)
            b = n.bit_length()
            rows.append(HRow(h, p, math.log2(n / (1 << b)) + (b - s / 2), p == h + 1))
    return rows


def h_constant(k):
    """The cutoff H_k: 12, 10, 7, then 1 from k = 3 on."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return H_CONSTANTS.get(k, 1)


def tail_ratio(h, k):
    """a_{h+1,h+2} / a_{h,h+1} as a float, for display; `_tail` is the exact value."""
    if h < 1:
        raise ValueError("h must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return float(_tail(h, k))
