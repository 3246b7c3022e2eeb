"""Exact arithmetic: Stirling numbers, Q(sqrt 2), rendering."""

import math
import random
import sys
from fractions import Fraction

import pytest

from bicolored import cli, exact
from bicolored.bounds import theorem_bound
from bicolored.exact import (QSqrt2, SQRT2, _floor_quotient, _render_quotient, _rising,
                             decimal_render, parse_qsqrt2, pow2, rising_factorial,
                             stirling_first)
from bicolored.perm import all_permutations, cycle_type, total_cycles

# R = floor(10^60 sqrt2) / 10^60 lies just below sqrt2: 0 < sqrt2 - R < 10^-60, so
# a - R + sqrt2 sits just above a and a + R - sqrt2 just below it
R = Fraction(math.isqrt(2 * 10 ** 120), 10 ** 60)
HALF = Fraction(1, 2 * 10 ** 6)  # half a unit in the sixth place


def test_stirling_small_values():
    assert stirling_first(3, 2) == 3
    assert stirling_first(4, 2) == 11
    for n in range(10):
        assert stirling_first(n, n) == 1
    assert stirling_first(0, 0) == 1
    assert stirling_first(5, 0) == 0
    assert stirling_first(5, 7) == 0
    with pytest.raises(ValueError):
        stirling_first(-1, 0)


def test_stirling_counts_cycles():
    for n in range(7):
        census = {}
        for s in all_permutations(n):
            c = total_cycles(cycle_type(s))
            census[c] = census.get(c, 0) + 1
        for k in range(n + 1):
            assert stirling_first(n, k) == census.get(k, 0)


def test_stirling_rising_identity():
    for n in range(31):
        for x in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-3), Fraction(7, 5)):
            lhs = sum(stirling_first(n, k) * x ** k for k in range(n + 1))
            assert lhs == rising_factorial(x, n)


def test_rising_factorial():
    assert rising_factorial(Fraction(3), 0) == 1
    assert rising_factorial(Fraction(3), 4) == 360
    assert rising_factorial(SQRT2, 2) == QSqrt2(2, 1)
    with pytest.raises(ValueError):
        rising_factorial(QSqrt2(1), -1)


def test_rising_matches_product_loop():
    # the C path (y = sy = 0) with positive and negative steps, the pair path from a surd
    # start or a surd step alone, and seeds other than 1
    for x, y, sx, sy in [(3, 0, 2, 0), (5, 0, -3, 0), (-2, 0, 1, 0), (3, 1, 2, 0),
                         (4, 0, 0, 1), (2, -1, -1, 3), (1, 2, 0, -2)]:
        for ra, rb in [(1, 0), (-3, 2), (0, 5)]:
            for n in (0, 1, 7):
                want = QSqrt2(ra, rb)
                for j in range(n):
                    want = want * QSqrt2(x + j * sx, y + j * sy)
                assert QSqrt2(*_rising(x, y, sx, sy, n, ra, rb)) == want, (x, y, sx, sy, n)


def test_pow2():
    assert pow2(3) == 8
    assert pow2(Fraction(1, 2)) == SQRT2
    assert pow2(Fraction(-1, 2)) == QSqrt2(0, Fraction(1, 2))
    assert pow2(-2) == QSqrt2(Fraction(1, 4))
    assert pow2(Fraction(-4, 2)) == QSqrt2(Fraction(1, 4))
    with pytest.raises(ValueError):
        pow2(Fraction(1, 3))
    with pytest.raises(ValueError):
        pow2(0.5)
    rng = random.Random(11)
    for _ in range(200):
        e, f = rng.randint(-30, 30), rng.randint(-30, 30)
        assert pow2(Fraction(e, 2)) * pow2(Fraction(f, 2)) == pow2(Fraction(e + f, 2))


def test_qsqrt2_ring():
    rng = random.Random(3)
    for _ in range(1000):
        x, y, z = [QSqrt2(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                          Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                   for _ in range(3)]
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        norm = x * x.conjugate()
        assert norm.is_rational()
        if x != 0:
            assert x * x.inverse() == 1


def test_qsqrt2_sign():
    assert QSqrt2(0, 0).sign() == 0
    assert QSqrt2(1, 1).sign() == 1
    assert QSqrt2(-1, -1).sign() == -1
    # 4 - 3 sqrt2 < 0 < 3 - 2 sqrt2
    assert QSqrt2(4, -3).sign() == -1
    assert QSqrt2(3, -2).sign() == 1
    assert QSqrt2(-4, 3).sign() == 1
    assert QSqrt2(-3, 2).sign() == -1
    assert QSqrt2(Fraction(-10), 7).sign() == -1  # 7 sqrt2 = 9.899...
    assert SQRT2 > 1
    assert QSqrt2(Fraction(3, 2)) > SQRT2


def test_qsqrt2_pow_and_div():
    x = QSqrt2(1, 1)
    assert x ** 0 == 1
    assert x ** 3 == x * x * x
    assert x ** -2 == (x * x).inverse()
    assert (x / x) == 1
    assert QSqrt2(4) / 2 == 2
    with pytest.raises(ZeroDivisionError):
        QSqrt2(0).inverse()


def test_qsqrt2_division_is_product_with_inverse():
    rng = random.Random(32)

    def element():
        return QSqrt2(rng.randint(-10 ** 30, 10 ** 30), rng.choice([0, 1, -7, 10 ** 25]),
                      rng.randint(1, 10 ** 20))
    for _ in range(300):
        a, b = element(), element()
        if b == 0:
            continue
        assert a / b == a * b.inverse(), (a, b)
    # norms of either sign: 3^2 - 2 > 0, 1 - 2 < 0
    for b in (QSqrt2(3, 1, 5), QSqrt2(1, 1), QSqrt2(-1, 1, 3)):
        assert 7 / b == b.inverse() * 7 and Fraction(2, 3) / b == b.inverse() * Fraction(2, 3)
        assert b / b == 1
    for a in (QSqrt2(1, 1), 5):
        with pytest.raises(ZeroDivisionError, match="inverse of zero in Q\\(sqrt 2\\)"):
            a / QSqrt2(0)


def test_am_gm_inequality():
    for a in range(1, 21):
        for b in range(1, 21):
            assert rising_factorial(Fraction(a), b) <= (Fraction(a) + Fraction(b - 1, 2)) ** b


def test_decimal_render():
    assert decimal_render(QSqrt2(7), 6) == "7.000000"
    assert decimal_render(SQRT2, 6) == "1.414214"
    assert decimal_render(Fraction(1, 3), 4) == "0.3333"
    assert decimal_render(SQRT2, 20) == "1.41421356237309504880"
    assert decimal_render(QSqrt2(Fraction(-1, 3)), 4) == "-0.3333"
    assert decimal_render(QSqrt2(0), 3) == "0.000"
    assert decimal_render(-SQRT2, 6) == "-1.414214"
    assert decimal_render(QSqrt2(1, -1), 6) == "-0.414214"
    for outside in (0.5, "1"):
        with pytest.raises(ValueError, match="value %r is not an element" % (outside,)):
            decimal_render(outside, 6)


def test_decimal_render_half_even():
    assert decimal_render(Fraction(25, 1000), 2) == "0.02"
    assert decimal_render(Fraction(35, 1000), 2) == "0.04"
    assert decimal_render(Fraction(-25, 1000), 2) == "-0.02"
    assert decimal_render(3 * HALF, 6) == "0.000002"
    # within 10^-60 of a half-unit, on either side: the sqrt2 term decides
    assert decimal_render(QSqrt2(HALF - R, 1), 6) == "0.000001"
    assert decimal_render(QSqrt2(R - HALF, -1), 6) == "-0.000001"
    assert decimal_render(QSqrt2(HALF + R, -1), 6) == "0.000000"
    assert decimal_render(QSqrt2(-HALF - R, 1), 6) == "0.000000"
    assert decimal_render(QSqrt2(3 * HALF + R, -1), 6) == "0.000001"
    assert decimal_render(QSqrt2(5 * HALF - R, 1), 6) == "0.000003"


def test_decimal_render_large_coefficients():
    # the sqrt2 coefficient dwarfs the guard digits unless the guard widens
    big = 10 ** 60
    got = decimal_render(QSqrt2(0, big), 6)
    scale = big * 10 ** 6
    want = math.isqrt(2 * scale * scale)  # floor(sqrt2 * 10^66)
    want += (2 * want + 1) ** 2 <= 8 * scale * scale
    assert got == "%d.%06d" % (want // 10 ** 6, want % 10 ** 6)
    # b near 10^40, a placed within 10^-60 above a half-unit
    b = 10 ** 40 + 7
    below = Fraction(math.isqrt(2 * b * b * 10 ** 120), 10 ** 60)  # just below b sqrt2
    assert decimal_render(QSqrt2(HALF - below, b), 6) == "0.000001"
    assert decimal_render(QSqrt2(below - HALF, -b), 6) == "-0.000001"
    assert decimal_render(QSqrt2(HALF + below, -b), 6) == "0.000000"


def test_decimal_render_within_half_unit():
    # |x - t| <= 10^-places / 2 for the rendered t, decided by exact signs
    rng = random.Random(17)
    for i in range(2000):
        places = rng.randint(1, 12)
        b = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** rng.randint(0, 4)))
        if i % 2:
            a = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** rng.randint(0, 4)))
        else:
            # a half-unit minus b sqrt2 truncated at a random depth
            digits = rng.randint(places, places + 80)
            root = math.isqrt(2 * b.numerator ** 2 * 10 ** (2 * digits)) // b.denominator
            a = (Fraction(2 * rng.randint(-10 ** 6, 10 ** 6) + 1, 2 * 10 ** places)
                 - (1 if b >= 0 else -1) * Fraction(root, 10 ** digits))
        x = QSqrt2(a, b)
        t = Fraction(decimal_render(x, places))
        half = Fraction(1, 2 * 10 ** places)
        assert (x - t - half).sign() <= 0 and (x - t + half).sign() >= 0, (x, places)


def test_decimal_render_places_cap():
    with pytest.raises(ValueError):
        decimal_render(SQRT2, 0)
    with pytest.raises(ValueError):
        decimal_render(SQRT2, 51)


def test_canonical_string_round_trip():
    rng = random.Random(5)
    for i in range(400):
        hi = 10 ** 40 if i % 2 else 99
        x = QSqrt2(Fraction(rng.randint(-hi, hi), rng.randint(1, hi)),
                   Fraction(rng.randint(-hi, hi), rng.randint(1, hi)))
        # the printer reads x, y, d; the Fraction parts give the same text
        a, b = Fraction(x.x, x.d), Fraction(x.y, x.d)
        assert str(x) == repr(x) == "%s%s%s*sqrt2" % (a, "-" if b < 0 else "+", abs(b))
        assert parse_qsqrt2(str(x)) == x
    assert parse_qsqrt2("sqrt2") == SQRT2
    assert parse_qsqrt2("3/2") == QSqrt2(Fraction(3, 2))
    assert parse_qsqrt2("-5") == QSqrt2(-5)
    assert parse_qsqrt2(" -sqrt2 ") == -SQRT2
    assert parse_qsqrt2("-3/4-1/2*sqrt2") == QSqrt2(Fraction(-3, 4), Fraction(-1, 2))
    # only the forms above: no exponent, decimal point, leading + or digit separator
    for text in ("1e9999", "1.5", ".5", "+3", "1_000", "3+-2*sqrt2", "2*sqrt2", "1/-2",
                 "sqrt2+1", "", "inf", "nan"):
        with pytest.raises(ValueError, match="n/d"):
            parse_qsqrt2(text)
    assert str(QSqrt2(1, Fraction(-3, 2))) == "1-3/2*sqrt2"
    assert str(SQRT2) == "0+1*sqrt2" and str(QSqrt2(Fraction(-3, 2))) == "-3/2+0*sqrt2"


class FractionPair:
    """The former Q(sqrt 2): a + b*sqrt(2) kept as two Fractions; the oracle for QSqrt2."""

    def __init__(self, a=0, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        return FractionPair(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return FractionPair(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return FractionPair(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    def inverse(self):
        d = self.a * self.a - 2 * self.b * self.b
        return FractionPair(self.a / d, -self.b / d)

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, e):
        base = self if e >= 0 else self.inverse()
        e = abs(e)
        out = FractionPair(1)
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def sign(self):
        a, b = self.a, self.b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        if a > 0:
            return 1 if a * a > 2 * b * b else -1
        return 1 if 2 * b * b > a * a else -1

    def __hash__(self):
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))


def _assert_matches(got, want):
    """got is the canonical triple of the Fraction pair want."""
    assert got.d > 0 and math.gcd(got.x, got.y, got.d) == 1, (got.x, got.y, got.d)
    assert (got.a, got.b) == (want.a, want.b)
    assert got == QSqrt2(want.a, want.b) and hash(got) == hash(QSqrt2(want.a, want.b))
    if want.b == 0:
        assert got == want.a and hash(got) == hash(want) == hash(want.a)


def _random_pair(rng):
    hi = 10 ** 40 if rng.random() < 0.3 else 12
    a, b = (Fraction(rng.randint(-hi, hi), rng.randint(1, hi)) for _ in range(2))
    if rng.random() < 0.15:
        b = Fraction(0)
    return FractionPair(a, b)


def _assert_order(x, y, s):
    """x and y compare as s, the sign of x - y, says, with each of <, <=, > and >=."""
    assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0), (x, y, s)


def test_qsqrt2_matches_fraction_pair():
    rng = random.Random(23)
    # units of norm -1 and +1, an element of norm -1/4, and a rational
    fixed = [FractionPair(1, 1), FractionPair(1, -1), FractionPair(-1, 1), FractionPair(3, 2),
             FractionPair(Fraction(1, 2), Fraction(1, 2)), FractionPair(Fraction(-7, 3))]
    pairs = fixed + [_random_pair(rng) for _ in range(300)]
    negative_norms = 0
    for xo in pairs:
        yo = pairs[rng.randrange(len(pairs))]
        x, y = QSqrt2(xo.a, xo.b), QSqrt2(yo.a, yo.b)
        _assert_matches(x, xo)
        _assert_matches(x + y, xo + yo)
        _assert_matches(x - y, xo - yo)
        _assert_matches(x * y, xo * yo)
        assert x.sign() == xo.sign()
        assert (x - y).sign() == (xo - yo).sign()
        _assert_order(x, y, (xo - yo).sign())
        _assert_order(x, QSqrt2(xo.a, xo.b), 0)
        # rational operands on either side
        for r in (yo.a, math.floor(yo.a)):
            _assert_order(x, r, (xo - FractionPair(r)).sign())
            _assert_order(r, x, (FractionPair(r) - xo).sign())
            _assert_matches(r - x, FractionPair(r) - xo)
        assert (x == y) == ((xo.a, xo.b) == (yo.a, yo.b))
        if xo.a != 0 or xo.b != 0:
            negative_norms += xo.a * xo.a < 2 * xo.b * xo.b
            _assert_matches(x.inverse(), xo.inverse())
            _assert_matches(y / x, yo / xo)
            for r in (yo.a, math.floor(yo.a)):
                _assert_matches(r / x, FractionPair(r) / xo)
            for e in (-7, -2, -1, 0, 1, 2, 3, 9):
                _assert_matches(x ** e, xo ** e)
    assert negative_norms > 50
    # two consecutive Pell solutions x^2 - 2 y^2 = +-1 past 10^40: x - y sqrt2 =
    # +-1/(x + y sqrt2) is a near-tie of about 10^-40, one above zero and one below
    x, y = 1, 1
    while x < 10 ** 40:
        x, y = x + 2 * y, x + y
    signs = []
    for x, y in ((x, y), (x + 2 * y, x + y)):
        s = FractionPair(x, -y).sign()
        signs.append(s)
        for a, b in ((x, QSqrt2(0, y)), (Fraction(x, y), SQRT2), (QSqrt2(x, 0, y), SQRT2),
                     (QSqrt2(x, -y), 0)):
            _assert_order(a, b, s)
            _assert_order(b, a, -s)
    assert sorted(signs) == [-1, 1]


def test_qsqrt2_order_builds_nothing(monkeypatch):
    # comparing two elements is one integer sign test: no QSqrt2 is built, no gcd taken
    a, b = QSqrt2(3, -2, 7), QSqrt2(-5, 4, 11)   # about 0.0245 and 0.0597
    calls = []
    init, gcd = QSqrt2.__init__, math.gcd
    monkeypatch.setattr(QSqrt2, "__init__",
                        lambda self, *args: calls.append(args) or init(self, *args))
    monkeypatch.setattr(math, "gcd", lambda *args: calls.append(args) or gcd(*args))
    results = (a < b, a <= b, a > b, a >= b, b < a, a < a, a <= a)
    monkeypatch.undo()
    assert calls == []
    assert results == (True, True, False, False, False, False, True)


def test_qsqrt2_canonical_form():
    assert QSqrt2(2, 4, 6) == QSqrt2(1, 2, 3)
    assert hash(QSqrt2(2, 4, 6)) == hash(QSqrt2(1, 2, 3))
    x = QSqrt2(-2, 4, -6)
    assert (x.x, x.y, x.d) == (1, -2, 3)
    x = QSqrt2(Fraction(3, 4), Fraction(-5, 6), 2)
    assert (x.x, x.y, x.d) == (9, -10, 24)
    assert x.a == Fraction(3, 8) and x.b == Fraction(-5, 12)
    # the inverse of 1 + sqrt2 (norm -1) is sqrt2 - 1, with a positive denominator
    x = QSqrt2(1, 1).inverse()
    assert (x.x, x.y, x.d) == (-1, 1, 1)
    x = QSqrt2(0, 3, 5).inverse()  # 5/(3 sqrt2) = 5 sqrt2 / 6
    assert (x.x, x.y, x.d) == (0, 5, 6)
    assert hash(QSqrt2(7, 0, 4)) == hash(Fraction(7, 4))
    assert hash(QSqrt2(-3)) == hash(-3)
    with pytest.raises(ZeroDivisionError):
        QSqrt2(1, 1, 0)


def _conjugate_route(n, m, a, b):
    """(n + m sqrt2)/(a + b sqrt2) the way a QSqrt2 division takes it: times the
    conjugate, over the norm a^2 - 2 b^2."""
    return QSqrt2(n * a - 2 * m * b, m * a - n * b, a * a - 2 * b * b)


def _quotient_operands(rng):
    """Operands (n, m, a, b) with b > 0: a of 1 to 3000 bits, b and the numerator of
    sizes around it, numerators of both signs and near-cancellation n = -m sqrt2 + e."""
    bits = rng.choice([1, 2, 3, 8, 40, 64, 65, 130, 700, 3000])
    a = rng.getrandbits(bits) | 1 << (bits - 1)
    b = rng.getrandbits(max(1, bits + rng.randint(-bits, 4))) or 1
    width = max(1, bits + rng.randint(-bits, 80))
    m = rng.getrandbits(width) * rng.choice([-1, 0, 1])
    if rng.random() < 0.3:  # n within a few units of -m sqrt2
        root = math.isqrt(2 * m * m)
        n = -root * (1 if m >= 0 else -1) + rng.randint(-3, 3)
    else:
        n = rng.getrandbits(max(1, width + rng.randint(-8, 8))) * rng.choice([-1, 1])
    return n, m, a, b


def test_floor_quotient_matches_conjugate_route(monkeypatch):
    # the oracle divides by the conjugate and floors with one integer square root; the
    # floor of a quotient with b > 0 takes neither, and settles in at most one step
    calls = []

    def counted(x, y):  # two tests, then at most one correction step
        calls.append(1)
        assert len(calls) <= 3, "more than one correction step"
        return sign(x, y)

    def floor(n, m, a, b):
        calls.clear()
        return _floor_quotient(n, m, a, b)
    sign = exact._sign
    monkeypatch.setattr(exact, "_sign", counted)
    monkeypatch.setattr(exact, "_floor_quotient", floor)  # as `_render_quotient` calls it
    rng = random.Random(34)
    for _ in range(3000):
        n, m, a, b = _quotient_operands(rng)
        x = _conjugate_route(n, m, a, b)
        assert floor(n, m, a, b) == floor(x.x, x.y, x.d, 0), (n, m, a, b)
        places = rng.randint(1, 12)
        assert (_render_quotient(n, m, a, b, places)
                == decimal_render(x, places)), (n, m, a, b, places)
    # zero and values just either side of it, and a quotient of thousands of bits
    for n, m, a, b in [(0, 0, 1, 1), (0, 0, 5, 3 ** 900), (-1, 0, 3, 1), (1, -1, 1, 1),
                       (-7, 5, 2, 3), (3 ** 2000, -2 ** 3000, 7, 5)]:
        x = _conjugate_route(n, m, a, b)
        assert floor(n, m, a, b) == floor(x.x, x.y, x.d, 0)
        assert _render_quotient(n, m, a, b, 6) == decimal_render(x, 6)
    assert _render_quotient(0, 0, 5, 3, 6) == "0.000000"
    assert _render_quotient(-1, 0, 10 ** 9, 1, 6) == "0.000000"  # above -1/2 unit
    assert _render_quotient(1, -1, 1, 1, 6) == "-0.171573"  # (1 - sqrt2)/(1 + sqrt2)
    with pytest.raises(ValueError):
        floor(1, 1, 0, 1)
    with pytest.raises(ValueError):
        floor(1, 1, 1, -1)


def test_render_quotient_exact_ties_go_even():
    # with S = 2 10^places and a, b divisible by S, n = o a/S and m = o b/S make the
    # value o/S for an odd o: exactly half a unit past o // 2 units, rounded to even
    rng = random.Random(35)
    for _ in range(400):
        places = rng.randint(1, 8)
        scale = 2 * 10 ** places
        a0 = rng.getrandbits(rng.choice([1, 30, 300])) + 1
        b0 = rng.getrandbits(rng.choice([1, 30, 300])) + 1
        o = (2 * rng.randint(-10 ** 9, 10 ** 9) + 1)
        got = _render_quotient(o * a0, o * b0, scale * a0, scale * b0, places)
        assert got == decimal_render(QSqrt2(o, 0, scale), places)
        assert got == decimal_render(_conjugate_route(o * a0, o * b0, scale * a0, scale * b0),
                                     places)
        units = o // 2 + (o // 2) % 2  # the even one of o // 2 and o // 2 + 1
        assert Fraction(got) == Fraction(units, 10 ** places), (o, places)
        # one unit of m off the tie: above it rounds up, below it down, whatever the parity
        for step, b in [(1, b0), (-1, b0), (1, 0)]:
            n, m, a = o * a0, o * b + step, scale * a0
            got = _render_quotient(n, m, a, scale * b, places)
            assert Fraction(got) == Fraction(o // 2 + (step > 0), 10 ** places), (o, places)
            assert got == decimal_render(_conjugate_route(n, m, a, scale * b), places)


def test_printing_past_the_digit_limit(capsys):
    # str, repr and the decimal print the 7844-digit bound in-process, as `bound 4096 1`
    # does, and leave Python's int -> str digit limit as it was
    limit = sys.get_int_max_str_digits()
    value = theorem_bound(4096, 1)
    assert 0 < limit < value.x.bit_length() // 4
    text, decimal = str(value), decimal_render(value, 6)
    assert repr(value) == text
    assert sys.get_int_max_str_digits() == limit
    assert cli.main(["bound", "4096", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == ["  theorem_bound = " + text, "  theorem_bound_decimal = " + decimal]
    assert sys.get_int_max_str_digits() == limit
