"""Cyclic Dirichlet characters on symmetric groups and the twisted product."""

import math

from .enumeration import DEGREE_CAP, CapExceeded
from .exact import _ONE, QSqrt2, _rising, stirling_first
from .perm import cycle_type, total_cycles, type_tally

# twisted_refusal's work model: `char twisted 64 3/2 64 sqrt2` is 3.5e11 steps, and
# shapes at the budget take 0.04 to 0.13 s on a 2-vCPU Xeon
TWISTED_BUDGET = 10 ** 13


class CyclicCharacter:
    """The cyclic character chi_z of degree p: chi(sigma) = z^(p - c(sigma))."""

    __slots__ = ("degree", "base")

    def __init__(self, degree, base):
        base = QSqrt2._coerce(base)
        if base is None or base == 0:
            raise ValueError("base must be a nonzero element of Q(sqrt 2)")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.degree = degree
        self.base = base

    def __repr__(self):
        return "CyclicCharacter[p=%d, z=%s]" % (self.degree, self.base)


class ClassFunctionTable:
    """Values z_1,...,z_p of a Dirichlet character on i-cycles; z_1 = 1."""

    __slots__ = ("degree", "values")

    def __init__(self, values):
        values = [QSqrt2._coerce(v) for v in values]
        if not values or values[0] != 1:
            raise ValueError("z_1 must be 1")
        self.degree = len(values)
        self.values = values


def char_eval(chi, sigma):
    """chi_z(sigma) = z^(p - c(sigma))."""
    if sigma.n != chi.degree:
        raise ValueError("degree mismatch")
    return chi.base ** (chi.degree - total_cycles(cycle_type(sigma)))


def verify_cyclic(table):
    """Whether z_i = z_2^(i-1) for all i, the defining relation of a cyclic character."""
    if table.degree <= 1:
        return True
    z = table.values[1]
    return all(table.values[i - 1] == z ** (i - 1) for i in range(2, table.degree + 1))


def avg_char(chi):
    """(1/p!) sum of chi over S_p, sum_k c(p,k) z^(p-k) / p! = prod_{i<p} (1 + i z) / p!: with
    z = (x + y sqrt2)/d, one _rising product of the integers d + i x + i y sqrt2 over d^p p!."""
    p = chi.degree
    if p > DEGREE_CAP:
        raise CapExceeded("avg_char needs p <= %d" % DEGREE_CAP)
    z = chi.base
    return QSqrt2(*_rising(z.d, 0, z.x, z.y, p, 1, 0), z.d ** p * math.factorial(p))


def avg_char_naive(chi):
    """Literal average of chi over all p! permutations, tallied by cycle type (test oracle)."""
    p = chi.degree
    z = chi.base
    total = sum((z ** (p - len(a)) * k for a, k in type_tally(p).items()), QSqrt2(0))
    return total / math.factorial(p)


def _inverse_bits(v):
    """Bits of 1/v's integers, about: (x + y sqrt2)/d inverts to d (x - y sqrt2)/(x^2 - 2y^2)."""
    bits = max(v.x.bit_length(), v.y.bit_length(), v.d.bit_length())
    return 2 * bits if v.y else bits


def twisted_refusal(p, z, q, zprime):
    """Why twisted_product(p, z, q, zprime) is refused as over a cap, or None if it runs.

    The caps are p, q <= DEGREE_CAP and the work model
    p^3 (q^3 a^2 + 16 (q a + b)^2) <= TWISTED_BUDGET, with a and b the bits of 1/z and
    1/z'. The model was fitted, within a factor of 3, to an earlier loop in which every
    ring operation ended in a gcd, quadratic in its operands, and where shapes at the
    budget took 2.4 to 4.5 s. _twisted_sum reduces once and walks the smaller side's
    Stirling row, so the model now over-prices: those shapes take 0.04 to 0.13 s and the
    refused (32, z, 32, z) with a 64-character z 0.1 to 0.15 s. It is kept because tests
    pin its refusals.
    """
    if max(p, q) > DEGREE_CAP:
        return "twisted_product needs p, q <= %d" % DEGREE_CAP
    a, b = _inverse_bits(z), _inverse_bits(zprime)
    work = p ** 3 * (q ** 3 * a * a + 16 * (q * a + b) ** 2)
    if work > TWISTED_BUDGET:
        return ("twisted_product(%d, z, %d, z') with 1/z and 1/z' of %d and %d bits needs"
                " about %.1e steps, over the budget of %.0e" % (p, q, a, b, work, TWISTED_BUDGET))
    return None


def _twisted_sum(p, z, q, zprime):
    """((chi_z, chi_z')) = sum_{k,l} c(p,k) c(q,l) w'^k w^(kl) / (p! q!), uncapped.

    With w = 1/z and w' = 1/z', the identity sum_l c(m,l) X^l = X^(m rising) sums out
    one side: the product is sum_k c(n,k) a^k (w^k b)^(m rising) / (n! m!), read off the
    Stirling row of n, with (n, a, m, b) = (p, w', q, 1) when p <= q, or w rational and w'
    not (row q's bases w^l w' carry sqrt2), else (q, 1, p, w'). With
    w = (u + v sqrt2)/d and w^k b = (x + y sqrt2)/t, the rising factorial is
    prod_{j<m} (x + j t + y sqrt2) / t^m, one math.prod when y = 0. Term k lies over s^k d_b^m
    with s = d^m d_a, so Horner steps A <- A s + c(n,k) N_k, N_k the numerator of a^k times
    that product, keep the sum as (A + B sqrt2)/(s^n d_b^m n! m!) in integers, reduced once.
    """
    w, wp = QSqrt2._coerce(z).inverse(), QSqrt2._coerce(zprime).inverse()
    row_p = p <= q or (not w.y and wp.y)
    n, a, m, b = (p, wp, q, _ONE) if row_p else (q, _ONE, p, wp)
    u, v, d = w.x, w.y, w.d
    ua, va = a.x, a.y
    s = d ** m * a.d
    ax, ay = 1, 0              # a^k d_a^k
    x, y, t = b.x, b.y, b.d    # w^k b = (x + y sqrt2)/t
    big_a = big_b = 0
    for k in range(n + 1):
        # c(n,0) = 0 for n >= 1, met while A = 0, so skipping A s there is exact
        c = stirling_first(n, k)
        if c:
            ra, rb = _rising(x, y, t, 0, m, ax, ay)
            big_a = big_a * s + c * ra
            big_b = big_b * s + c * rb
        ax, ay = ax * ua + 2 * ay * va, ax * va + ay * ua
        x, y, t = x * u + 2 * y * v, x * v + y * u, t * d
    return QSqrt2(big_a, big_b, s ** n * b.d ** m * math.factorial(n) * math.factorial(m))


def twisted_product(p, z, q, zprime):
    """((chi_z, chi_z')) = sum_{k,l} c(p,k) c(q,l) z'^(-k) z^(-kl) / (p! q!), by _twisted_sum.

    Raises CapExceeded when twisted_refusal names a cap.
    """
    if p < 1 or q < 1:
        raise ValueError("degrees must be positive")
    z = QSqrt2._coerce(z)
    zprime = QSqrt2._coerce(zprime)
    if z is None or zprime is None:
        raise ValueError("bases must be elements of Q(sqrt 2)")
    if z == 0 or zprime == 0:
        raise ValueError("bases must be nonzero")
    refusal = twisted_refusal(p, z, q, zprime)
    if refusal:
        raise CapExceeded(refusal)
    return _twisted_sum(p, z, q, zprime)


def twisted_product_naive(p, z, q, zprime):
    """((chi, chi')) summed over all permutation pairs, tallied by cycle types (test oracle)."""
    z = QSqrt2._coerce(z)
    zprime = QSqrt2._coerce(zprime)
    zi = z.inverse()
    zpi = zprime.inverse()
    tally_q = type_tally(q)
    total = QSqrt2(0)
    for a, ka in type_tally(p).items():
        for b, kb in tally_q.items():
            total = total + zi ** (len(a) * len(b)) * zpi ** len(a) * (ka * kb)
    return total / (math.factorial(p) * math.factorial(q))
