"""Exact arithmetic: the ring Q(sqrt 2), Stirling numbers, rendering."""

import math
import re
from fractions import Fraction

# rows of signless Stirling numbers of the first kind, c(n, k) = _stirling_rows[n][k]
_stirling_rows = {0: (1,)}


def stirling_first(n, k):
    """Signless Stirling number of the first kind: permutations of n with k cycles."""
    if n < 0 or k < 0:
        raise ValueError("n, k must be nonnegative")
    if k > n:
        return 0
    m = len(_stirling_rows)
    while m <= n:
        prev = _stirling_rows[m - 1]
        row = [0] * (m + 1)
        row[m] = 1
        for j in range(1, m):
            row[j] = prev[j - 1] + (m - 1) * prev[j]
        _stirling_rows[m] = tuple(row)
        m += 1
    return _stirling_rows[n][k]


class QSqrt2:
    """Exact element a + b*sqrt(2) with rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @staticmethod
    def _coerce(x):
        if isinstance(x, QSqrt2):
            return x
        if isinstance(x, (int, Fraction)):
            return QSqrt2(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(o.a - self.a, o.b - self.b)

    def __neg__(self):
        return QSqrt2(-self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self):
        d = self.a * self.a - 2 * self.b * self.b
        if d == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt 2)")
        return QSqrt2(self.a / d, -self.b / d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        base = self if e >= 0 else self.inverse()
        e = abs(e)
        out = QSqrt2(1)
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def conjugate(self):
        return QSqrt2(self.a, -self.b)

    def sign(self):
        """Exact sign of a + b*sqrt(2); no floating point."""
        a, b = self.a, self.b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # a and b have opposite signs: compare a^2 with 2 b^2
        if a > 0:
            return 1 if a * a > 2 * b * b else -1
        return 1 if 2 * b * b > a * a else -1

    def is_rational(self):
        return self.b == 0

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(2)

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return "sqrt2" if self.b == 1 else "%s*sqrt2" % self.b
        op = "-" if self.b < 0 else "+"
        return "%s%s%s*sqrt2" % (self.a, op, abs(self.b))

    __repr__ = __str__


SQRT2 = QSqrt2(0, 1)

_QS_RE = re.compile(r"^(-?\d+(?:/\d+)?)([+-]\d+(?:/\d+)?)\*sqrt2$")


def qsqrt2_str(x):
    """Lossless canonical form a+b*sqrt2 (always both components)."""
    x = QSqrt2._coerce(x)
    op = "-" if x.b < 0 else "+"
    return "%s%s%s*sqrt2" % (x.a, op, abs(x.b))


def parse_qsqrt2(s):
    """Parse sqrt2, an integer, n/d, or the canonical a+b*sqrt2 form."""
    s = s.strip()
    if s == "sqrt2":
        return QSqrt2(0, 1)
    if s == "-sqrt2":
        return QSqrt2(0, -1)
    m = _QS_RE.match(s)
    if m:
        return QSqrt2(Fraction(m.group(1)), Fraction(m.group(2)))
    return QSqrt2(Fraction(s))


def pow2(e):
    """2^e exactly, for an int or a half-integral Fraction e of either sign."""
    if not isinstance(e, (int, Fraction)) or Fraction(e).denominator > 2:
        raise ValueError("not a half-integer: %r" % (e,))
    m, r = divmod(int(2 * e), 2)
    scale = Fraction(1 << m) if m >= 0 else Fraction(1, 1 << -m)
    return QSqrt2(0, scale) if r else QSqrt2(scale)


def rising_factorial(x, n):
    """x(x+1)...(x+n-1); the empty product is 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = QSqrt2(1) if isinstance(x, QSqrt2) else Fraction(1)
    for i in range(n):
        out = out * (x + i)
    return out


def decimal_render(x, places):
    """Decimal string of a + b*sqrt2, round-half-even, decided by exact integer comparison."""
    if not 1 <= places <= 50:
        raise ValueError("places must be in 1..50")
    x = QSqrt2._coerce(x)
    # 2 * 10^places * x = (n + m sqrt2) / d with integers n, m and d > 0
    scale = 2 * 10 ** places
    d = x.a.denominator * x.b.denominator
    n = scale * x.a.numerator * x.b.denominator
    m = scale * x.b.numerator * x.a.denominator
    # floor(m sqrt2); m sqrt2 is irrational unless m = 0
    root = math.isqrt(2 * m * m) if m >= 0 else -math.isqrt(2 * m * m) - 1
    twice = (n + root) // d   # floor of twice the scaled value
    units = twice // 2
    # an odd floor is at or above the half-unit; it is an exact tie, which goes to the
    # even neighbour, only when m = 0 and d | n
    if twice % 2 and (m or n % d or units % 2):
        units += 1
    sign = "-" if units < 0 else ""
    units = abs(units)
    return "%s%d.%0*d" % (sign, units // 10 ** places, places, units % 10 ** places)
