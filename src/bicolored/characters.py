"""Cyclic Dirichlet characters on symmetric groups and the twisted product."""

import math

from . import exact
from .enumeration import DEGREE_CAP, CapExceeded
from .exact import QSqrt2, rising_factorial
from .perm import all_permutations, cycle_type, total_cycles


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
    """(1/p!) sum of chi over the symmetric group, via the rising-factorial formula."""
    p = chi.degree
    if p > DEGREE_CAP:
        raise CapExceeded("avg_char needs p <= %d" % DEGREE_CAP)
    if p == 0:
        return QSqrt2(1)
    z = chi.base
    return z ** p * rising_factorial(z.inverse(), p) / math.factorial(p)


def avg_char_naive(chi):
    """Literal average of chi over all p! permutations (test oracle)."""
    p = chi.degree
    total = QSqrt2(0)
    for sigma in all_permutations(p):
        total = total + char_eval(chi, sigma)
    return total / math.factorial(p)


def twisted_product(p, z, q, zprime):
    """((chi_z, chi_z')) = sum_k c(p,k) z'^(-k) (z^(-k))^(q rising) / (p! q!), O(pq) ring ops."""
    if p < 1 or q < 1:
        raise ValueError("degrees must be positive")
    if max(p, q) > DEGREE_CAP:
        raise CapExceeded("twisted_product needs p, q <= %d" % DEGREE_CAP)
    z = QSqrt2._coerce(z)
    zprime = QSqrt2._coerce(zprime)
    if z == 0 or zprime == 0:
        raise ValueError("bases must be nonzero")
    zi = z.inverse()
    zpi = zprime.inverse()
    total = QSqrt2(0)
    zik = QSqrt2(1)    # z^(-k)
    zpik = QSqrt2(1)   # z'^(-k)
    for k in range(1, p + 1):
        zik = zik * zi
        zpik = zpik * zpi
        # sum_l c(q,l) z^(-kl) is the rising factorial of z^(-k)
        total = total + exact.stirling_first(p, k) * zpik * rising_factorial(zik, q)
    return total / (math.factorial(p) * math.factorial(q))


def twisted_product_naive(p, z, q, zprime):
    """((chi, chi')) summed over all permutation pairs (small-instance test oracle)."""
    z = QSqrt2._coerce(z)
    zprime = QSqrt2._coerce(zprime)
    zi = z.inverse()
    zpi = zprime.inverse()
    cycles_p = [total_cycles(cycle_type(s)) for s in all_permutations(p)]
    cycles_q = [total_cycles(cycle_type(s)) for s in all_permutations(q)]
    total = QSqrt2(0)
    for ca in cycles_p:
        for cb in cycles_q:
            total = total + zi ** (ca * cb) * zpi ** ca
    return total / (math.factorial(p) * math.factorial(q))
