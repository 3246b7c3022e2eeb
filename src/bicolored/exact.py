"""Exact arithmetic: the ring Q(sqrt 2), Stirling numbers, rendering."""

import functools
import math
import re
import sys
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


def _sign(x, y):
    """Sign of x + y*sqrt(2) for integers x, y: the one order test of Q(sqrt 2)."""
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sx * sy >= 0:
        return sx or sy
    # opposite signs: the larger of x^2 and 2 y^2 decides (they are never equal)
    return sx if x * x > 2 * y * y else sy


def _rising(x, y, sx, sy, n, ra, rb):
    """(ra + rb sqrt2) prod_{j<n} (x + j sx + (y + j sy) sqrt2), as the integer pair (A, B)."""
    if not (y or sy):
        r = math.prod(range(x, x + n * sx, sx))
        return ra * r, rb * r
    for _ in range(n):
        ra, rb = ra * x + rb * (2 * y), ra * y + rb * x
        x, y = x + sx, y + sy
    return ra, rb


_int_str_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: no limit


def _decimal(n):
    """str(n) for an int of any size: Python's digit limit on int -> str, if set below
    the digit count of n, is raised for this one conversion and then restored."""
    digits = n.bit_length() // 3 + 1  # 2^3 < 10: at least the digits of n
    old = _int_str_limit()
    if not 0 < old < digits:
        return str(n)
    sys.set_int_max_str_digits(digits)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(old)


_GUARD_BITS = 64  # bits of sqrt2 that the guess of `_floor_quotient` keeps past its quotient


def _floor_quotient(n, m, a, b):
    """floor((n + m sqrt2) / (a + b sqrt2)) for integers n, m, a, b with a > 0, b >= 0.

    For b = 0 it is (n + floor(m sqrt2)) // a, one integer square root. For b > 0 it
    takes no norm: it guesses g from the whole integers, with sqrt2 taken to K bits,
    and settles g with `_sign`. The guess is at most one step off (PROOFS.md, section 6).
    """
    if a <= 0 or b < 0:
        raise ValueError("the divisor needs a > 0 and b >= 0")
    if not b:
        # floor(m sqrt2); m sqrt2 is irrational unless m = 0
        root = math.isqrt(2 * m * m) if m >= 0 else -math.isqrt(2 * m * m) - 1
        return (n + root) // a
    excess = max(0, max(abs(n), abs(m)).bit_length() - max(a, b).bit_length())
    k = excess + _GUARD_BITS + 5
    r = math.isqrt(2 << 2 * k)
    g = ((n << k) + m * r) // ((a << k) + b * r)
    while _sign(n - g * a, m - g * b) < 0:
        g -= 1
    while _sign(n - (g + 1) * a, m - (g + 1) * b) >= 0:
        g += 1
    return g


@functools.total_ordering
class QSqrt2:
    """Exact element (x + y*sqrt(2))/d of Q(sqrt 2), with integers d > 0 and gcd(x, y, d) = 1."""

    __slots__ = ("x", "y", "d")

    def __init__(self, a=0, b=0, d=1):
        """The element (a + b*sqrt(2))/d for ints or Fractions a, b and a nonzero integer d."""
        if not (isinstance(a, int) and isinstance(b, int)):
            if not (isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction))):
                raise ValueError("parts %r, %r: each must be an int or a Fraction" % (a, b))
            a, b = Fraction(a), Fraction(b)
            a, b, d = (a.numerator * b.denominator, b.numerator * a.denominator,
                       d * a.denominator * b.denominator)
        if d <= 0:
            if d == 0:
                raise ZeroDivisionError("denominator 0 in Q(sqrt 2)")
            a, b, d = -a, -b, -d
        g = math.gcd(d, a, b)  # d first: math.gcd folds left, and d is the small one
        self.x, self.y, self.d = a // g, b // g, d // g

    a = property(lambda self: Fraction(self.x, self.d), doc="The rational part x/d.")
    b = property(lambda self: Fraction(self.y, self.d), doc="The sqrt(2) coefficient y/d.")

    @staticmethod
    def _coerce(x):
        if isinstance(x, QSqrt2):
            return x
        if isinstance(x, (int, Fraction)):
            return QSqrt2(x.numerator, 0, x.denominator)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(self.x * o.d + o.x * self.d, self.y * o.d + o.y * self.d, self.d * o.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(self.x * o.d - o.x * self.d, self.y * o.d - o.y * self.d, self.d * o.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return QSqrt2(-self.x, -self.y, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        x, y, u, v = self.x, self.y, o.x, o.y
        return QSqrt2(x * u + 2 * y * v, x * v + y * u, self.d * o.d)

    __rmul__ = __mul__

    def inverse(self):
        """1/self, by the ring's one division, `__truediv__`."""
        return _ONE / self

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (x + y sqrt2)/d over (u + v sqrt2)/e is e (x + y sqrt2)(u - v sqrt2)/(d n), with
        # the norm n = u^2 - 2 v^2, in one constructor call, so one reduction; a negative n
        # is flipped into the numerator by the constructor
        x, y, u, v = self.x, self.y, o.x, o.y
        n = u * u - 2 * v * v
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt 2)")
        return QSqrt2(o.d * (x * u - 2 * y * v), o.d * (y * u - x * v), self.d * n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        base = self if e >= 0 else self.inverse()
        # square and multiply on the numerator x + y sqrt2; the denominator is d^|e|
        x, y, u, v, e = 1, 0, base.x, base.y, abs(e)
        d = base.d ** e
        while e:
            if e & 1:
                x, y = x * u + 2 * y * v, x * v + y * u
            u, v = u * u + 2 * v * v, 2 * u * v
            e >>= 1
        return QSqrt2(x, y, d)

    def conjugate(self):
        return QSqrt2(self.x, -self.y, self.d)

    def sign(self):
        """Exact sign of x + y*sqrt(2); no floating point."""
        return _sign(self.x, self.y)

    def is_rational(self):
        return self.y == 0

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.x == o.x and self.y == o.y and self.d == o.d

    def __hash__(self):
        return hash(Fraction(self.x, self.d)) if self.y == 0 else hash((self.x, self.y, self.d))

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # self < o iff (x d' - x' d) + (y d' - y' d) sqrt2 < 0: no difference is built or reduced
        return _sign(self.x * o.d - o.x * self.d, self.y * o.d - o.y * self.d) < 0

    def __float__(self):
        return self.x / self.d + self.y / self.d * math.sqrt(2)

    def __str__(self):
        """The canonical form a+b*sqrt2, both parts always, each in lowest terms."""
        d = self.d

        def part(n):
            g = math.gcd(n, d)
            return _decimal(n // g) if g == d else _decimal(n // g) + "/" + _decimal(d // g)
        return part(self.x) + ("-" if self.y < 0 else "+") + part(abs(self.y)) + "*sqrt2"

    __repr__ = __str__


SQRT2 = QSqrt2(0, 1)
_ONE = QSqrt2(1)

# an optional sign, n or n/d, then optionally a sign, n or n/d and *sqrt2
_QS_RE = re.compile(r"(-?\d+)(?:/(\d+))?(?:([+-]\d+)(?:/(\d+))?\*sqrt2)?")


def parse_qsqrt2(s):
    """Parse sqrt2, -sqrt2, an integer, n/d, or the canonical a+b*sqrt2 form.

    Nothing else is accepted: an exponent such as 1e9999 would let a short literal
    stand for a huge number.
    """
    s = s.strip()
    if s == "sqrt2":
        return QSqrt2(0, 1)
    if s == "-sqrt2":
        return QSqrt2(0, -1)
    m = _QS_RE.fullmatch(s)
    if not m:
        raise ValueError("base %r is not sqrt2, -sqrt2, an integer, n/d or a+b*sqrt2" % s)
    a, da, b, db = m.groups()
    da, db = int(da or 1), int(db or 1)
    if da == 0 or db == 0:
        raise ValueError("base %r has a zero denominator" % s)
    return QSqrt2(int(a) * db, int(b or 0) * da, da * db)


def pow2(e):
    """2^e exactly, for an int or a half-integral Fraction e of either sign: sqrt2^(2e),
    by the ring's one power routine."""
    if not isinstance(e, (int, Fraction)) or Fraction(e).denominator > 2:
        raise ValueError("not a half-integer: %r" % (e,))
    return SQRT2 ** int(2 * e)


def rising_factorial(x, n):
    """x(x+1)...(x+n-1); the empty product is 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = QSqrt2(1) if isinstance(x, QSqrt2) else Fraction(1)
    for i in range(n):
        out = out * (x + i)
    return out


def decimal_render(x, places):
    """Decimal string of (x + y*sqrt2)/d, round-half-even, decided by exact integer comparison.

    The floor under it is `_floor_quotient` with b = 0: one integer square root.
    """
    if not 1 <= places <= 50:
        raise ValueError("places must be in 1..50")
    v = QSqrt2._coerce(x)
    if v is None:
        raise ValueError("value %r is not an element of Q(sqrt 2)" % (x,))
    return _render_quotient(v.x, v.y, v.d, 0, places)


def _render_quotient(n, m, a, b, places):
    """Decimal string of (n + m sqrt2)/(a + b sqrt2), a > 0 and b >= 0, round-half-even."""
    # 2 * 10^places times the quotient is (n + m sqrt2)/(a + b sqrt2) for the scaled n, m
    scale = 2 * 10 ** places
    n, m = scale * n, scale * m
    twice = _floor_quotient(n, m, a, b)
    units = twice // 2
    # an odd floor is at or above the half-unit; it is an exact tie, which goes to the
    # even neighbour, only when twice (a + b sqrt2) = n + m sqrt2
    if twice % 2 and (twice * b != m or twice * a != n or units % 2):
        units += 1
    whole, frac = divmod(abs(units), 10 ** places)
    return "%s%s.%0*d" % ("-" if units < 0 else "", _decimal(whole), places, frac)
