"""Cyclic Dirichlet characters on symmetric groups and the twisted product."""

import itertools
import math
from collections import Counter

from .enumeration import DEGREE_CAP, CapExceeded
from .exact import QSqrt2, stirling_first
from .perm import cycle_type, total_cycles

# twisted_refusal's work model: `char twisted 64 3/2 64 sqrt2` is 3.5e11 steps, and
# shapes at the budget take 0.06 to 0.4 s on a 2-vCPU Xeon
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
    """(1/p!) sum of chi over the symmetric group: z^p (1/z)^(p rising) / p!, by _twisted_sum."""
    p = chi.degree
    if p > DEGREE_CAP:
        raise CapExceeded("avg_char needs p <= %d" % DEGREE_CAP)
    z = chi.base
    return z ** p * _twisted_sum(p, z, 1, 1)


def _cycle_tally(n):
    """{c: how many of the n! permutations have c cycles}, by walking every one.

    A test oracle, independent of the Stirling rows: each image tuple of
    itertools.permutations has its cycles counted by following them.
    """
    tally = Counter()
    for images in itertools.permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for start in range(n):
            if not seen[start]:
                cycles += 1
                i = start
                while not seen[i]:
                    seen[i] = True
                    i = images[i]
        tally[cycles] += 1
    return tally


def avg_char_naive(chi):
    """Literal average of chi over all p! permutations, tallied by cycle count (test oracle)."""
    p = chi.degree
    z = chi.base
    total = sum((z ** (p - c) * k for c, k in _cycle_tally(p).items()), QSqrt2(0))
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
    ring operation ended in a gcd, quadratic in its operands. _twisted_sum reduces once,
    so the model now over-prices; it is kept because tests pin its refusals.
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
    """sum_l c(q,l) (w^l w')^(p rising) / (p! q!) with w = 1/z and w' = 1/z', uncapped.

    With w = (u + v sqrt2)/d and w' = (u' + v' sqrt2)/d', every w^l w' is (x + y sqrt2)/m
    over the one denominator m = d^q d', so the sum is (A + B sqrt2)/(m^p p! q!) in plain
    integers, reduced once. It walks the Stirling row of q.
    """
    w, wp = QSqrt2._coerce(z).inverse(), QSqrt2._coerce(zprime).inverse()
    u, v, d = w.x, w.y, w.d
    m = d ** q * wp.d
    x, y = wp.x * d ** q, wp.y * d ** q   # x + y sqrt2 = m w^l w', from l = 0
    big_a = big_b = 0
    for l in range(1, q + 1):
        # exact: x and y are multiples of d^(q-l+1)
        x, y = (x * u + 2 * y * v) // d, (x * v + y * u) // d
        ra, rb = 1, 0   # prod_{i<p} (x + i m + y sqrt2)
        for c in range(x, x + p * m, m):
            ra, rb = ra * c + 2 * rb * y, ra * y + rb * c
        s = stirling_first(q, l)
        big_a += s * ra
        big_b += s * rb
    return QSqrt2(big_a, big_b, m ** p * math.factorial(p) * math.factorial(q))


def twisted_product(p, z, q, zprime):
    """((chi_z, chi_z')) = sum_{k,l} c(p,k) c(q,l) z'^(-k) z^(-kl) / (p! q!), by _twisted_sum.

    Raises CapExceeded when twisted_refusal names a cap.
    """
    if p < 1 or q < 1:
        raise ValueError("degrees must be positive")
    z = QSqrt2._coerce(z)
    zprime = QSqrt2._coerce(zprime)
    if z == 0 or zprime == 0:
        raise ValueError("bases must be nonzero")
    refusal = twisted_refusal(p, z, q, zprime)
    if refusal:
        raise CapExceeded(refusal)
    return _twisted_sum(p, z, q, zprime)


def twisted_product_naive(p, z, q, zprime):
    """((chi, chi')) summed over all permutation pairs, tallied by cycle counts (test oracle)."""
    z = QSqrt2._coerce(z)
    zprime = QSqrt2._coerce(zprime)
    zi = z.inverse()
    zpi = zprime.inverse()
    tally_q = _cycle_tally(q)
    total = QSqrt2(0)
    for ca, ka in _cycle_tally(p).items():
        for cb, kb in tally_q.items():
            total = total + zi ** (ca * cb) * zpi ** ca * (ka * kb)
    return total / (math.factorial(p) * math.factorial(q))
