"""Dirichlet characters: averages, cyclic law, twisted products."""

import math
import random
from fractions import Fraction

import pytest

from bicolored import characters, exact
from bicolored.characters import (ClassFunctionTable, CyclicCharacter, avg_char,
                                  avg_char_naive, char_eval, twisted_product,
                                  twisted_product_naive, twisted_refusal, verify_cyclic)
from bicolored.enumeration import CapExceeded
from bicolored.exact import QSqrt2, SQRT2, parse_qsqrt2, pow2, rising_factorial, stirling_first
from bicolored.perm import Permutation, all_permutations

BASES = [QSqrt2(Fraction(1, 2)), QSqrt2(2), QSqrt2(Fraction(-1, 3)), SQRT2,
         QSqrt2(1, Fraction(1, 2))]
# a 249-character base literal, near the CLI's 256-character cap
LONG_SURD = ("123456789012345678901234567890123456789012345678901234567891"
             "/987654321098765432109876543210987654321098765432109876543217"
             "-314159265358979323846264338327950288419716939937510582097494"
             "/271828182845904523536028747135266249775724709369995957496697*sqrt2")


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


def avg_char_per_permutation(chi):
    """The literal average one permutation at a time, as avg_char_naive summed it before
    it tallied the permutations by cycle count."""
    total = QSqrt2(0)
    for sigma in all_permutations(chi.degree):
        total = total + char_eval(chi, sigma)
    return total / math.factorial(chi.degree)


def twisted_product_per_pair(p, z, q, zprime):
    """((chi, chi')) one permutation pair at a time, as twisted_product_naive summed it
    before it tallied both sides by cycle count."""
    zi, zpi = QSqrt2._coerce(z).inverse(), QSqrt2._coerce(zprime).inverse()
    cycles_q = [count_cycles_by_walking(s.images) for s in all_permutations(q)]
    total = QSqrt2(0)
    for sa in all_permutations(p):
        ca = count_cycles_by_walking(sa.images)
        for cb in cycles_q:
            total = total + zi ** (ca * cb) * zpi ** ca
    return total / (math.factorial(p) * math.factorial(q))


def test_tallied_oracles_match_per_permutation_sums():
    for p in range(0, 6):
        for z in BASES:
            chi = CyclicCharacter(p, z)
            assert avg_char_naive(chi) == avg_char_per_permutation(chi), (p, z)
    for p in range(1, 6):
        for q in range(1, 6):
            for z, zp in [(Fraction(1, 2), SQRT2), (QSqrt2(Fraction(-1, 3)), Fraction(3, 2))]:
                assert twisted_product_naive(p, z, q, zp) == \
                    twisted_product_per_pair(p, z, q, zp), (p, q)


def test_avg_char_matches_rising_factorial_formula():
    # z^p (1/z)^(p rising) / p!, the formula avg_char used before it became one product
    # prod_{i<p} (1 + i z) / p!, with z^p, the rising factorial and p! each built up one
    # factor per p
    for text in ("2", "-3/2", "sqrt2", "1-1*sqrt2", LONG_SURD):
        z = parse_qsqrt2(text)
        w = z.inverse()
        zp, rising, factorial = QSqrt2(1), QSqrt2(1), 1
        for p in range(65):
            if p:
                zp, rising, factorial = zp * z, rising * (w + p - 1), factorial * p
            assert avg_char(CyclicCharacter(p, z)) == zp * rising / factorial, (text, p)


def test_avg_char_is_one_product(monkeypatch):
    # the expected values come first: the literal average for p <= 7, and the
    # rising-factorial formula at p = 64 with the longest base
    chis = [CyclicCharacter(p, z) for p in range(8) for z in BASES]
    want = [avg_char_naive(chi) for chi in chis]
    z = parse_qsqrt2(LONG_SURD)
    chis.append(CyclicCharacter(64, z))
    want.append(z ** 64 * rising_factorial(z.inverse(), 64) / math.factorial(64))

    def refuse(*args):
        raise AssertionError("avg_char reached a step of the twisted kernel")

    monkeypatch.setattr(characters, "_twisted_sum", refuse)
    monkeypatch.setattr(characters, "stirling_first", refuse)
    monkeypatch.setattr(exact, "stirling_first", refuse)
    monkeypatch.setattr(QSqrt2, "inverse", refuse)
    monkeypatch.setattr(QSqrt2, "__pow__", refuse)
    for chi, value in zip(chis, want):
        assert avg_char(chi) == value, chi


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
    with pytest.raises(ValueError, match="bases must be nonzero"):
        twisted_product(3, 0, 3, 2)
    # a float or a string is no element of Q(sqrt 2), as for CyclicCharacter
    for bad in (0.5, "1/2"):
        for z, zp in [(bad, 2), (2, bad)]:
            with pytest.raises(ValueError, match="elements of Q"):
                twisted_product(2, z, 2, zp)
        with pytest.raises(ValueError):
            CyclicCharacter(2, bad)
    for p, q in [(65, 2), (2, 65)]:
        with pytest.raises(CapExceeded):
            twisted_product(p, Fraction(1, 2), q, 2)


def test_twisted_budget():
    # accepted: the largest shapes of the CLI tests, the golden cases and the benchmark,
    # and the shape of theorem_bound(64, 64) as a twisted product, whose z' = 2^32 is long
    for p, z, q, zp in [(64, "3/2", 64, "sqrt2"), (20, "sqrt2", 14, "3/2"),
                        (6, "2/3-1/2*sqrt2", 5, "3/2"), (32, "sqrt2", 32, "3/2"),
                        (64, "1/2", 64, str(2 ** 32))]:
        assert twisted_refusal(p, parse_qsqrt2(z), q, parse_qsqrt2(zp)) is None, (p, z, q, zp)
    z = parse_qsqrt2("12345678901234567890123456789013/1234567890123456789012345678901")
    for p, q in [(64, 64), (32, 32)]:
        assert "budget" in twisted_refusal(p, z, q, z)
        with pytest.raises(CapExceeded):
            twisted_product(p, z, q, z)
    # a surd base is priced by its inverse, whose integers are twice as long
    rational, surd = parse_qsqrt2("%d/7" % 2 ** 50), parse_qsqrt2("%d+1*sqrt2" % 2 ** 50)
    assert twisted_refusal(32, rational, 32, rational) is None
    assert "budget" in twisted_refusal(32, surd, 32, surd)
    # the degree cap is checked first and keeps its message
    assert twisted_refusal(65, z, 2, z) == "twisted_product needs p, q <= 64"


def test_char_eval_degree_mismatch():
    chi = CyclicCharacter(4, 2)
    with pytest.raises(ValueError):
        char_eval(chi, Permutation([2, 1, 3]))
