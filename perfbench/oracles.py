"""Independent exact oracles the benchmark checks the CLI's output against.

None of this imports bicolored: each value is rebuilt from a different formula
than the one the program uses, with plain integers.
"""

import math
from fractions import Fraction


def partition_count(n):
    """P(n) by Euler's pentagonal recurrence, without enumerating partitions."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


def _partitions(n, largest=None):
    """Partitions of n as {part: multiplicity} dicts."""
    if largest is None:
        largest = n
    if n == 0:
        yield {}
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            counts = dict(rest)
            counts[first] = counts.get(first, 0) + 1
            yield counts


def count_cycle_index(p, q):
    """|B_u(p,q)| from the cycle index of the larger symmetric group.

    For each cycle type mu of the smaller side, the sum over lambda of
    |C_lambda| 2^<lambda,mu> is n! Z(S_n; x_1..x_n) at x_r = 2^(sum_s gcd(r,s) c_s(mu)),
    and n! Z(S_n) follows H_n = sum_r (n-1)!/(n-r)! x_r H_(n-r).
    """
    small, large = min(p, q), max(p, q)
    total = 0
    for mu in _partitions(small):
        size_mu = math.factorial(small)
        for s, c in mu.items():
            size_mu //= s ** c * math.factorial(c)
        x = [0] + [1 << sum(math.gcd(r, s) * c for s, c in mu.items())
                   for r in range(1, large + 1)]
        h = [1]
        for n in range(1, large + 1):
            acc, falling = 0, 1   # falling = (n-1)!/(n-r)!
            for r in range(1, n + 1):
                acc += falling * x[r] * h[n - r]
                falling *= n - r
            h.append(acc)
        total += size_mu * h[large]
    order = math.factorial(p) * math.factorial(q)
    if total % order:
        raise ArithmeticError("cycle-index sum not divisible by p! q!")
    return total // order


def stirling_row(n):
    """Signless Stirling numbers c(n, k), k = 0..n, as coefficients of x(x+1)...(x+n-1)."""
    row = [1]
    for i in range(n):
        nxt = [0] * (len(row) + 1)
        for k, c in enumerate(row):
            nxt[k + 1] += c
            nxt[k] += i * c
        row = nxt
    return row


def theorem_bound_parts(p, q):
    """(A, B, D) with the character bound equal to (A + B sqrt2) / D, in integers.

    A + B sqrt2 = sum_k c(p,k) (2^k rising q) sqrt2^((p-k) q) and D = p! q!.
    """
    a = b = 0
    for k, c in enumerate(stirling_row(p)):
        if not c:
            continue
        rising = 1
        for j in range(q):
            rising *= (1 << k) + j
        e = (p - k) * q
        if e % 2:
            b += c * rising << (e // 2)
        else:
            a += c * rising << (e // 2)
    return a, b, math.factorial(p) * math.factorial(q)


def ao_lower(p, q):
    """binom(p + 2^q - 1, p) / q!."""
    return Fraction(math.comb(p + (1 << q) - 1, p), math.factorial(q))


class Q2:
    """a + b sqrt2 with Fraction parts; only what the oracles need."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        return Q2(self.a + o.a, self.b + o.b)

    def __mul__(self, o):
        return Q2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    def inverse(self):
        d = self.a * self.a - 2 * self.b * self.b
        return Q2(self.a / d, -self.b / d)

    def scale(self, r):
        return Q2(self.a * r, self.b * r)


BASES = {"1/2": Q2(Fraction(1, 2)), "2": Q2(2), "sqrt2": Q2(0, 1), "3/2": Q2(Fraction(3, 2))}


def avg_char(p, z):
    """(1/p!) sum over S_p of z^(p - c(sigma)) as the product (1)(1+z)...(1+(p-1)z)/p!."""
    out = Q2(1)
    for i in range(p):
        out = out * (Q2(1) + z.scale(i))
    return out.scale(Fraction(1, math.factorial(p)))


def twisted_product(p, z, q, zprime):
    """sum_k c(p,k) z'^(-k) (z^(-k) rising q) / (p! q!), inner sum as a rising product."""
    zi, zpi = z.inverse(), zprime.inverse()
    total = Q2(0)
    zik = zpik = Q2(1)
    for k, c in enumerate(stirling_row(p)):
        if k:
            zik, zpik = zik * zi, zpik * zpi
        if not c:
            continue
        rising = Q2(1)
        for j in range(q):
            rising = rising * (zik + Q2(j))
        total = total + (zpik * rising).scale(c)
    return total.scale(Fraction(1, math.factorial(p) * math.factorial(q)))


def _floor_scaled(a, b, scale):
    """floor(scale * (a + b sqrt2)) exactly, for Fractions a, b and a positive integer scale."""
    d = a.denominator * b.denominator
    big_a = a.numerator * b.denominator * scale
    big_b = b.numerator * a.denominator * scale
    root = math.isqrt(2 * big_b * big_b)       # floor(|B| sqrt2); never exact for B != 0
    floor_b = root if big_b >= 0 else -root - 1
    # A + B sqrt2 lies in [A + floor_b, A + floor_b + 1), so dividing by d keeps the floor
    return (big_a + floor_b) // d


def render(a, b, places=6):
    """a + b sqrt2 rounded half to even at `places` decimals, decided exactly."""
    a, b = Fraction(a), Fraction(b)
    twice = _floor_scaled(a, b, 2 * 10 ** places)
    units, odd = divmod(twice, 2)
    if odd:
        exact_half = b == 0 and (2 * 10 ** places * a).denominator == 1
        if not exact_half or units % 2:
            units += 1
    sign = "-" if units < 0 else ""
    units = abs(units)
    return "%s%d.%0*d" % (sign, units // 10 ** places, places, units % 10 ** places)
