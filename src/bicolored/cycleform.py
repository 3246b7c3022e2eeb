"""The bilinear cycle form <.,.> and evaluators for its structural lemmas."""

import math
from fractions import Fraction

from .perm import CycleType, Permutation, compose, cycle_type, total_cycles


def _as_type(x):
    return x if isinstance(x, CycleType) else cycle_type(x)


def cycle_form(alpha, beta):
    """<alpha,beta> = sum over r,s of gcd(r,s) c_r(alpha) c_s(beta)."""
    a = _as_type(alpha)
    b = _as_type(beta)
    return sum(math.gcd(r, s) * ca * cb
               for r, ca in a.counts.items()
               for s, cb in b.counts.items())


class GroupAlgebraElement:
    """A finite integer combination of permutations of a fixed degree."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=()):
        terms = dict(terms)
        for sigma in terms:
            if sigma.n != n:
                raise ValueError("degree mismatch in group algebra element")
        self.n = n
        self.terms = {s: c for s, c in terms.items() if c}

    @staticmethod
    def one(n):
        return GroupAlgebraElement(n, {Permutation.identity(n): 1})

    @staticmethod
    def of(sigma, coeff=1):
        return GroupAlgebraElement(sigma.n, {sigma: coeff})

    def __add__(self, other):
        terms = dict(self.terms)
        for s, c in other.terms.items():
            terms[s] = terms.get(s, 0) + c
        return GroupAlgebraElement(self.n, terms)

    def __neg__(self):
        return GroupAlgebraElement(self.n, {s: -c for s, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupAlgebraElement(self.n, {s: c * other for s, c in self.terms.items()})
        terms = {}
        for s, c in self.terms.items():
            for t, d in other.terms.items():
                st = compose(s, t)
                terms[st] = terms.get(st, 0) + c * d
        return GroupAlgebraElement(self.n, terms)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __repr__(self):
        return "GroupAlgebraElement[n=%d, %d terms]" % (self.n, len(self.terms))


def cycle_form_bilinear(x, y):
    """Bilinear extension of the cycle form to group algebra elements."""
    total = 0
    for g, cg in x.terms.items():
        for h, ch in y.terms.items():
            total += cg * ch * cycle_form(g, h)
    return total


def cycle_form_via_decomposition(alpha, beta):
    """<alpha,beta> evaluated through the cycle decomposition of alpha."""
    a = _as_type(alpha)
    b = _as_type(beta)
    p = a.n
    cb = total_cycles(b)
    total = 0
    for j, cj in a.counts.items():
        # <gamma_j, beta> on the type {j: 1, 1: p-j}
        total += cj * (sum(math.gcd(j, s) * c for s, c in b.counts.items()) + (p - j) * cb)
    return total + (1 - total_cycles(a)) * p * cb


def bound_1a_gap(length, p, beta):
    """<1 - gamma_length, beta> minus (length-1)(c(beta) - q/length); nonnegative."""
    if not 1 <= length <= p:
        raise ValueError("need 1 <= length <= p")
    b = _as_type(beta)
    q = b.n
    cb = total_cycles(b)
    # p c(beta) - <gamma_length, beta>, the form read on the type {length: 1, 1: p-length}
    bracket = length * cb - sum(math.gcd(length, s) * c for s, c in b.counts.items())
    return Fraction(length * bracket - (length - 1) * (length * cb - q), length)


def bound_5_gap(alpha):
    """sum c_j(alpha)/j minus (c(alpha) - p)/2; nonnegative."""
    a = _as_type(alpha)
    s = sum(Fraction(c, j) for j, c in a.counts.items())
    return s - Fraction(total_cycles(a) - a.n, 2)


def bracket_prime_cycle(length, p, beta):
    """<1,beta> - (length-1) * sum of c_s(beta) over s not divisible by length."""
    b = _as_type(beta)
    cb = total_cycles(b)
    skipped = sum(c for s, c in b.counts.items() if s % length)
    return p * cb - (length - 1) * skipped
