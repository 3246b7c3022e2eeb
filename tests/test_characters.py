"""Dirichlet characters: averages, cyclic law, twisted products."""

import math
import random
from fractions import Fraction

import pytest

from bicolored.characters import (ClassFunctionTable, CyclicCharacter, avg_char,
                                  avg_char_naive, char_eval, twisted_product,
                                  twisted_product_naive, verify_cyclic)
from bicolored.enumeration import CapExceeded
from bicolored.exact import QSqrt2, SQRT2, pow2, stirling_first
from bicolored.perm import Permutation, all_permutations

BASES = [QSqrt2(Fraction(1, 2)), QSqrt2(2), QSqrt2(Fraction(-1, 3)), SQRT2,
         QSqrt2(1, Fraction(1, 2))]


def count_cycles_by_walking(images):
    seen = [False] * len(images)
    c = 0
    for i in range(len(images)):
        if not seen[i]:
            c += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = images[j] - 1
    return c


def test_char_eval_value_law():
    for p in range(1, 6):
        for z in BASES:
            chi = CyclicCharacter(p, z)
            for s in all_permutations(p):
                c = count_cycles_by_walking(s.images)
                assert char_eval(chi, s) == z ** (p - c)


def test_avg_char_matches_naive():
    for p in range(0, 7):
        for z in BASES:
            chi = CyclicCharacter(p, z)
            assert avg_char(chi) == avg_char_naive(chi)


def test_avg_char_at_one():
    for p in range(1, 9):
        assert avg_char(CyclicCharacter(p, 1)) == 1


def test_avg_char_rejects_zero_base():
    with pytest.raises(ValueError):
        CyclicCharacter(3, 0)
    with pytest.raises(ValueError):
        CyclicCharacter(-1, 2)
    with pytest.raises(CapExceeded):
        avg_char(CyclicCharacter(65, 2))


def test_class_function_table():
    t = ClassFunctionTable([1, 2, 4, 8])
    assert verify_cyclic(t)
    assert not verify_cyclic(ClassFunctionTable([1, 2, 4, 9]))
    assert verify_cyclic(ClassFunctionTable([1]))
    with pytest.raises(ValueError):
        ClassFunctionTable([2, 4])
    with pytest.raises(ValueError):
        ClassFunctionTable([])


def test_twisted_product_matches_naive():
    for p in range(1, 5):
        for q in range(1, 5):
            for z, zp in [(Fraction(1, 2), Fraction(2)), (SQRT2, QSqrt2(3)),
                          (Fraction(2), Fraction(1, 2))]:
                assert twisted_product(p, z, q, zp) == twisted_product_naive(p, z, q, zp)


def stirling_double_sum(p, z, q, zprime):
    """sum_k sum_l c(p,k) c(q,l) z'^(-k) z^(-kl) / (p! q!), term by term."""
    zi, zpi = QSqrt2._coerce(z).inverse(), QSqrt2._coerce(zprime).inverse()
    total = QSqrt2(0)
    zik = QSqrt2(1)    # z^(-k)
    zpik = QSqrt2(1)   # z'^(-k)
    for k in range(1, p + 1):
        zik = zik * zi
        zpik = zpik * zpi
        row = QSqrt2(0)
        w = QSqrt2(1)  # z^(-k l)
        for l in range(1, q + 1):
            w = w * zik
            row = row + stirling_first(q, l) * w
        total = total + stirling_first(p, k) * zpik * row
    return total / (math.factorial(p) * math.factorial(q))


def test_twisted_product_matches_stirling_double_sum():
    for z in [QSqrt2(Fraction(1, 2)), QSqrt2(2), SQRT2, QSqrt2(Fraction(3, 2))]:
        for p in range(1, 11):
            for q in range(1, 11):
                zp = pow2(Fraction(q, 2))
                assert twisted_product(p, z, q, zp) == stirling_double_sum(p, z, q, zp)


def test_twisted_product_trivial_twist():
    # with z = 1 the double sum collapses to the plain average of z'^(-c) over S_p
    for p in range(1, 6):
        for q in range(1, 6):
            zp = QSqrt2(Fraction(3, 2))
            got = twisted_product(p, 1, q, zp)
            assert got == avg_char(CyclicCharacter(p, zp)) * zp ** -p


def test_twisted_product_theorem_values():
    # the specialization used by the upper bound: z = 1/2, z' = 2^(q/2)
    for p in range(1, 5):
        for q in range(1, 5):
            zp = pow2(Fraction(q, 2))
            assert twisted_product(p, Fraction(1, 2), q, zp) == \
                twisted_product_naive(p, Fraction(1, 2), q, zp)
    assert twisted_product(5, Fraction(1, 2), 5, pow2(Fraction(5, 2))) == \
        twisted_product_naive(5, Fraction(1, 2), 5, pow2(Fraction(5, 2)))


def test_twisted_product_rejects_bad_args():
    with pytest.raises(ValueError):
        twisted_product(0, Fraction(1, 2), 3, 2)
    with pytest.raises(ValueError):
        twisted_product(3, 0, 3, 2)
    for p, q in [(65, 2), (2, 65)]:
        with pytest.raises(CapExceeded):
            twisted_product(p, Fraction(1, 2), q, 2)


def test_char_eval_degree_mismatch():
    chi = CyclicCharacter(4, 2)
    with pytest.raises(ValueError):
        char_eval(chi, Permutation([2, 1, 3]))
