"""Permutations of {1,...,n}, cycle types, integer partitions, class sizes."""

import functools
import itertools
import math
from collections import Counter


class Permutation:
    """A bijection of {1,...,n} stored as its tuple of images."""

    __slots__ = ("n", "images")

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError("images must be a bijection of {1,...,%d}" % n)
        self.n = n
        self.images = images

    def __call__(self, i):
        return self.images[i - 1]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __mul__(self, other):
        return compose(self, other)

    def inverse(self):
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(inv)

    def moved(self):
        """The set of points not fixed."""
        return frozenset(i for i in range(1, self.n + 1) if self.images[i - 1] != i)

    def cycles(self):
        """Disjoint cycles as tuples, singletons included, smallest point first."""
        seen = [False] * (self.n + 1)
        out = []
        for i in range(1, self.n + 1):
            if seen[i]:
                continue
            cyc = [i]
            seen[i] = True
            j = self(i)
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self(j)
            out.append(tuple(cyc))
        return out

    def __repr__(self):
        body = "".join("(%s)" % " ".join(map(str, c)) for c in self.cycles() if len(c) > 1)
        return "Permutation[n=%d, %s]" % (self.n, body or "id")

    @staticmethod
    def identity(n):
        return Permutation(range(1, n + 1))

    @staticmethod
    def from_cycles(n, *cycles):
        """Build a permutation of {1,...,n} from disjoint cycles like (1,2,3)."""
        images = list(range(1, n + 1))
        for cyc in cycles:
            if not all(1 <= a <= n for a in cyc):
                raise ValueError("cycle %r has a point outside 1..%d" % (tuple(cyc), n))
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b
        return Permutation(images)


class CycleType:
    """The counts c_r of r-cycles of a permutation of n points, singletons included."""

    __slots__ = ("n", "counts")

    def __init__(self, n, counts):
        counts = {r: c for r, c in dict(counts).items() if c}
        if any(r < 1 or c < 0 for r, c in counts.items()):
            raise ValueError("cycle lengths positive, counts nonnegative")
        if sum(r * c for r, c in counts.items()) != n:
            raise ValueError("counts do not partition %d" % n)
        self.n = n
        self.counts = counts

    def get(self, r):
        return self.counts.get(r, 0)

    def __eq__(self, other):
        return isinstance(other, CycleType) and self.n == other.n and self.counts == other.counts

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.counts.items()))))

    def __repr__(self):
        return "CycleType[%d; %s]" % (self.n, self.counts)


def cycle_type(sigma):
    """Extract the cycle type of a permutation, singleton cycles counted."""
    counts = {}
    for cyc in sigma.cycles():
        counts[len(cyc)] = counts.get(len(cyc), 0) + 1
    return CycleType(sigma.n, counts)


def total_cycles(t):
    """c(sigma): the number of cycles, singletons included."""
    return sum(t.counts.values())


def partitions(n):
    """All partitions of n as CycleType values, reverse-lexicographic part order.

    Walked as a tree: parts >= 2 in decreasing order with one branch per multiplicity, most
    copies first, then the m points left as fixed points, so each counts dict lists its
    parts largest first. `enumeration._cycle_types` walks this shape as separate code, so
    the tests' oracle over this stream stays independent of the count kernel.
    """
    def walk(m, top, counts):
        # every way to fill the m points left with parts <= top
        for s in range(min(top, m), 1, -1):
            for c in range(m // s, 0, -1):
                yield from walk(m - c * s, s - 1, {**counts, s: c})
        yield CycleType(n, {**counts, 1: m})
    return walk(n, n, {})


def class_size(t):
    """Number of permutations in the symmetric group with this cycle type."""
    z = 1
    for r, c in t.counts.items():
        z *= r ** c * math.factorial(c)
    return math.factorial(t.n) // z


def make_cycle(n, length):
    """The canonical cycle (1 2 ... length) fixing the remaining points."""
    if not 1 <= length <= n:
        raise ValueError("need 1 <= length <= n")
    images = list(range(2, length + 1)) + [1] + list(range(length + 1, n + 1))
    return Permutation(images)


def generators(n):
    """(1 2) and (1 2 ... n) as image tuples, generating S_n: one at n = 2, none below."""
    gens = [(2, 1) + tuple(range(3, n + 1)), tuple(range(2, n + 1)) + (1,)]
    return gens[:max(0, min(n - 1, 2))]


def disjoint(sigma, tau):
    """True when no point is moved by both permutations."""
    if sigma.n != tau.n:
        raise ValueError("degree mismatch")
    return sigma.moved().isdisjoint(tau.moved())


def compose(sigma, tau):
    """Function composition: (sigma tau)(i) = sigma(tau(i))."""
    if sigma.n != tau.n:
        raise ValueError("degree mismatch")
    return Permutation(sigma.images[j - 1] for j in tau.images)


@functools.cache
def type_tally(n):
    """{sorted cycle lengths, singletons included: how many of the n! permutations have them}.

    The oracle behind every naive sum over S_n: it follows the cycles of each image tuple
    of itertools.permutations and reads no partitions, class sizes or Stirling rows. Each
    S_n is walked once and cached, so callers must not mutate the returned Counter."""
    tally = Counter()
    for images in itertools.permutations(range(n)):
        seen = [False] * n
        lengths = []
        for start in range(n):
            if not seen[start]:  # start is its cycle's least point, so no later start meets it
                i, length = images[start], 1
                while i != start:
                    seen[i] = True
                    i = images[i]
                    length += 1
                lengths.append(length)
        tally[tuple(sorted(lengths))] += 1
    return tally


def all_permutations(n):
    """Iterate the whole symmetric group on {1,...,n}."""
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)
