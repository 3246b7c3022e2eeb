"""Output checks: each query's stdout is compared with an independent exact oracle."""

import math
import re
from fractions import Fraction

import oracles

# the published six-decimal ratio table, rows p = 3, 6, ..., 48, columns k = 0..4
REFERENCE_TABLE = {
    3: ["0.67853", "0.448352", "0.281421", "0.164794", "0.089167"],
    6: ["0.236554", "0.278629", "0.321008", "0.355492", "0.37623"],
    9: ["0.401765", "0.581412", "0.769003", "0.943255", "1.089729"],
    12: ["0.737444", "0.964918", "1.174011", "1.352241", "1.495579"],
    15: ["1.13395", "1.332052", "1.495158", "1.62365", "1.721639"],
    18: ["1.488057", "1.620956", "1.722684", "1.798768", "1.854731"],
    21: ["1.731173", "1.805571", "1.860243", "1.899968", "1.928601"],
    24: ["1.869913", "1.907043", "1.933771", "1.95291", "1.966564"],
    27: ["1.940359", "1.957629", "1.969938", "1.978691", "1.984905"],
    30: ["1.973633", "1.981317", "1.98677", "1.990635", "1.993373"],
    33: ["1.98864", "1.99196", "1.994311", "1.995976", "1.997154"],
    36: ["1.995199", "1.996604", "1.997598", "1.998301", "1.998799"],
    39: ["1.998002", "1.998587", "1.999001", "1.999293", "1.9995"],
    42: ["1.999179", "1.999419", "1.999589", "1.99971", "1.999795"],
    45: ["1.999666", "1.999764", "1.999833", "1.999882", "1.999917"],
    48: ["1.999866", "1.999905", "1.999933", "1.999952", "1.999966"],
}

_QSQRT2 = re.compile(r"^(-?\d+(?:/\d+)?)([+-]\d+(?:/\d+)?)\*sqrt2$")


class Checker:
    """Checks outputs of the plain format; oracle values are cached per run."""

    def __init__(self):
        self._counts = {}

    def count(self, p, q):
        key = (min(p, q), max(p, q))
        if key not in self._counts:
            self._counts[key] = oracles.count_cycle_index(*key)
        return self._counts[key]

    def problems(self, argv, stdout):
        """A list of what is wrong with this query's stdout; empty when it is right."""
        try:
            if argv[0] == "table":
                return _table(stdout)
            if argv[0] == "verify":
                return _verify(stdout)
            fields = _fields(stdout)
            if argv[0] == "count":
                return self._count(argv, fields)
            if argv[0] == "bound":
                return self._bound(argv, fields)
            if argv[0] == "orbits":
                return self._orbits(argv, fields)
            if argv[0] == "char":
                return _char(argv, fields)
        except (KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
            return ["unreadable output (%s: %s)" % (type(exc).__name__, exc)]
        return ["no check for %s" % argv[0]]

    def _count(self, argv, f):
        p, q = int(argv[1]), int(argv[2])
        want = self.count(p, q)
        out = _expect(int(f["value"]), want, "value")
        if "--oracle" in argv:
            out += _expect(int(f["oracle_value"]), want, "oracle_value")
            out += _expect(f["agreement"], "True", "agreement")
        return out

    def _bound(self, argv, f):
        p, q = int(argv[1]), int(argv[2])
        a, b, d = oracles.theorem_bound_parts(p, q)
        got_a, got_b = _parse_qsqrt2(f["theorem_bound"])
        out = _expect((got_a, got_b), (Fraction(a, d), Fraction(b, d)), "theorem_bound")
        out += _expect(f["theorem_bound_decimal"], oracles.render(got_a, got_b), "decimal")
        lower = oracles.ao_lower(p, q)
        out += _expect(Fraction(f["ao_lower"]), lower, "ao_lower")
        out += _expect(Fraction(f["ao_upper"]), 2 * lower, "ao_upper")
        if "exact" in f:
            out += _expect(int(f["exact"]), self.count(p, q), "exact")
            out += _expect(f["theorem_holds"], "True", "theorem_holds")
            out += _expect(f["sandwich_holds"], "True", "sandwich_holds")
        return out

    def _orbits(self, argv, f):
        p, q = int(argv[1]), int(argv[2])
        count, total = self.count(p, q), 1 << (p * q)
        order = math.factorial(p) * math.factorial(q)
        free = int(f["free_elements"])
        out = _expect(int(f["orbit_count"]), count, "orbit_count")
        out += _expect(int(f["total"]), total, "total")
        out += _expect(Fraction(f["free_fraction"]), Fraction(free, total), "free_fraction")
        out += _expect(free % order, 0, "free orbit sizes")
        lower = max(Fraction(0), 2 - Fraction(order * count, total))
        out += _expect(Fraction(f["lower_bound"]), lower, "lower_bound")
        return out + _expect(f["census_skipped"], "False", "census_skipped")


def _char(argv, f):
    if argv[1] == "avg":
        want = oracles.avg_char(int(argv[2]), oracles.BASES[argv[3]])
    else:
        want = oracles.twisted_product(int(argv[2]), oracles.BASES[argv[3]],
                                       int(argv[4]), oracles.BASES[argv[5]])
    got = _parse_qsqrt2(f["value"])
    out = _expect(got, (want.a, want.b), "value")
    return out + _expect(f["value_decimal"], oracles.render(*got), "value_decimal")


def _table(stdout):
    lines = stdout.splitlines()
    if lines[0].split() != ["p", "k=0", "k=1", "k=2", "k=3", "k=4"]:
        return ["table header is %r" % lines[0]]
    got = {}
    for line in lines[1:]:
        cells = line.split()
        got[int(cells[0][2:])] = cells[1:]
    if sorted(got) != sorted(REFERENCE_TABLE):
        return ["table rows are p = %s" % sorted(got)]
    out = []
    for p, row in REFERENCE_TABLE.items():
        if len(got[p]) != len(row):
            out.append("table row p=%d has %d cells" % (p, len(got[p])))
            continue
        out += ["table cell p=%d k=%d is %s, published %s" % (p, k, have, want)
                for k, (have, want) in enumerate(zip(got[p], row))
                if Fraction(have) != Fraction(want)]
    return out


def _verify(stdout):
    lines = stdout.splitlines()
    out = ["verify line does not pass: %s" % line for line in lines[:-1]
           if not line.startswith("pass  ")]
    if len(lines) < 2 or lines[-1] != "verify: all checks passed":
        out.append("verify summary is %r" % (lines[-1] if lines else ""))
    return out


def _fields(stdout):
    """The `  key = value` lines of a plain record."""
    fields = {}
    for line in stdout.splitlines()[1:]:
        key, _, value = line.strip().partition(" = ")
        fields[key] = value
    return fields


def _parse_qsqrt2(text):
    m = _QSQRT2.match(text)
    if not m:
        raise ValueError("not a+b*sqrt2: %r" % text)
    return Fraction(m.group(1)), Fraction(m.group(2))


def _expect(got, want, what):
    return [] if got == want else ["%s is %s, expected %s" % (what, got, want)]
