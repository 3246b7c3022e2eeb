"""Spans and work counters around the public functions of each bicolored layer.

A traced benchmark pass installs these wrappers after `bicolored.cli` is
imported; nothing under src/ changes. A span records its name, the span that
caused it, the query it belongs to, and its start and end instants. Hot ring
operations in Q(sqrt 2) and Stirling look-ups are counted instead, because a
span per call would swamp them. Spans stay in memory and are written out once,
when the pass ends.
"""

import functools
import gzip
import io
import json
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction

from bicolored import cli, enumeration, exact, perm, verify
from bicolored.exact import QSqrt2

from oracles import partition_count

# functions wrapped in a span named "<layer>.<function>"
SPANNED = {
    "perm": ["class_size"],
    "exact": ["decimal_render"],
    "characters": ["twisted_product", "avg_char", "twisted_product_naive", "avg_char_naive"],
    "cycleform": ["cycle_form", "cycle_form_bilinear"],
    "enumeration": ["count_naive"],
    "bounds": ["theorem_bound", "ratio_table", "ao_bounds", "growth_ratio", "verify_H",
               "tail_ratio"],
}


def _rebind(original, replacement):
    """Point every bicolored module attribute bound to `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name == "bicolored" or name.startswith("bicolored."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _bits(x):
    """Largest numerator or denominator, in bits, of a ring operand."""
    if isinstance(x, QSqrt2):
        a, b = x.a, x.b
        return max(a.numerator.bit_length(), a.denominator.bit_length(),
                   b.numerator.bit_length(), b.denominator.bit_length())
    if isinstance(x, int):
        return x.bit_length()
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return 0


class Tracer:
    """In-memory span store plus counters for one worker process."""

    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_query = -1
        self.counts = Counter()
        self.max_bits = 0

    def _opener(self, name):
        """(open, close) functions that record spans under `name`."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_of, parent, query = self.name_of, self.parent, self.query
        start, end, stack, clock = self.start, self.end, self.stack, time.perf_counter

        def open_span():
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            query.append(self.current_query)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            return sid

        def close_span(sid):
            end[sid] = clock()
            stack.pop()
        return open_span, close_span

    def spanned(self, name, fn):
        """Wrap fn so that every call records one span under `name`."""
        open_span, close_span = self._opener(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = open_span()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(sid)
        return wrapper

    def capture(self):
        """Start the next query and return its stdout buffer; its writes are emit spans."""
        self.current_query += 1
        return self._capture_cls()

    def install(self):
        """Wrap every traced function; call once, after bicolored.cli is imported."""
        for layer, names in SPANNED.items():
            module = sys.modules["bicolored." + layer]
            for fname in names:
                original = getattr(module, fname)
                _rebind(original, self.spanned("%s.%s" % (layer, fname), original))
        self._install_enumeration()
        self._install_partitions()
        self._install_ring()
        for suite, fn in list(verify.SUITES.items()):
            verify.SUITES[suite] = self._suite(suite, fn)
        self._install_cli()

    def _install_enumeration(self):
        counts = self.counts
        cache = enumeration._count_by_classes
        count_exact = enumeration.count_exact
        orbit_census = enumeration.orbit_census

        @functools.wraps(count_exact)
        def count_exact_cold(p, q, *args, **kwargs):
            misses = cache.cache_info().misses
            value = count_exact(p, q, *args, **kwargs)
            if cache.cache_info().misses != misses:
                counts["enumeration.class_pairs"] += partition_count(p) * partition_count(q)
            return value

        @functools.wraps(orbit_census)
        def orbit_census_masks(*args, **kwargs):
            census = orbit_census(*args, **kwargs)
            counts["enumeration.census_masks"] += census.total
            return census

        _rebind(count_exact, self.spanned("enumeration.count_exact", count_exact_cold))
        _rebind(orbit_census, self.spanned("enumeration.orbit_census", orbit_census_masks))

    def _install_partitions(self):
        counts = self.counts
        original = perm.partitions
        open_span, close_span = self._opener("perm.partitions")

        # one span per generator step: the time its consumer waits for the next value
        @functools.wraps(original)
        def partitions(n):
            counts["perm.partitions.calls"] += 1
            steps = original(n)
            while True:
                sid = open_span()
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    close_span(sid)
                counts["perm.partitions.yielded"] += 1
                yield item
        _rebind(original, partitions)

    def _install_ring(self):
        counts = self.counts
        mul, inverse, stirling = QSqrt2.__mul__, QSqrt2.inverse, exact.stirling_first

        def counted_mul(x, y):
            counts["exact.qsqrt2_mul.calls"] += 1
            bits = max(_bits(x), _bits(y))
            if bits > self.max_bits:
                self.max_bits = bits
            return mul(x, y)

        def counted_inverse(x):
            counts["exact.qsqrt2_inverse.calls"] += 1
            bits = _bits(x)
            if bits > self.max_bits:
                self.max_bits = bits
            return inverse(x)

        @functools.wraps(stirling)
        def counted_stirling(n, k):
            counts["exact.stirling_first.calls"] += 1
            return stirling(n, k)

        QSqrt2.__mul__ = QSqrt2.__rmul__ = counted_mul
        QSqrt2.inverse = counted_inverse
        _rebind(stirling, counted_stirling)

    def _suite(self, suite, fn):
        counts = self.counts
        spanned = self.spanned("verify.suite." + suite, fn)

        def run(rng):
            checks = spanned(rng)
            counts["verify.checks"] += len(checks)
            counts["verify.checks_failed"] += sum(1 for check in checks if not check[1])
            return checks
        return run

    def _install_cli(self):
        build_parser = self.spanned("cli.parse", cli.build_parser)

        def traced_build_parser():
            parser = build_parser()
            parser.parse_args = self.spanned("cli.parse", parser.parse_args)
            return parser
        cli.build_parser = traced_build_parser
        cli._emit = self.spanned("cli.emit", cli._emit)
        cli._emit_table = self.spanned("cli.emit", cli._emit_table)
        cli.main = self.spanned("cli.main", cli.main)
        self._capture_cls = type("Capture", (io.StringIO,),
                                 {"write": self.spanned("cli.emit", io.StringIO.write)})

    def summary(self):
        """Calls and self time per span name, plus the counters."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for sid in range(n):
            up = self.parent[sid]
            if up >= 0:
                child[up] += duration[sid]
        spans = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for sid in range(n):
            entry = spans[self.names[self.name_of[sid]]]
            entry["calls"] += 1
            entry["self_s"] += duration[sid] - child[sid]
        info = enumeration._count_by_classes.cache_info()
        return {"spans": spans, "span_count": n, "counts": dict(self.counts),
                "max_operand_bits": self.max_bits,
                "stirling_rows_built": len(exact._stirling_rows) - 1,
                "count_cache": {"hits": info.hits, "misses": info.misses}}

    def write_spans(self, path):
        """All spans as columns, times in integer nanoseconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        record = {"names": self.names, "name": self.name_of.tolist(),
                  "parent": self.parent.tolist(), "query": self.query.tolist(),
                  "start_ns": [round((t - t0) * 1e9) for t in self.start],
                  "end_ns": [round((t - t0) * 1e9) for t in self.end]}
        with gzip.open(path, "wt", compresslevel=1) as out:
            json.dump(record, out, separators=(",", ":"))
