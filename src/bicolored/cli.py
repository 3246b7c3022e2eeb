"""Command-line interface: counting, bounds, the ratio table, orbits, verification."""

import argparse
import contextlib
import os
import re
import sys
from fractions import Fraction

from .bounds import bound_report, ratio_table
from .characters import avg_char, twisted_product, CyclicCharacter
from .enumeration import (CapExceeded, CENSUS_CAP, DEGREE_CAP, count_exact, count_naive,
                          free_fraction_lower_bound, orbit_census)
from .exact import decimal_render, parse_qsqrt2

BASE_CAP = 256  # characters in a base literal of `char`


def _parse_base(text):
    """A base literal of `char`, refused before conversion when over BASE_CAP characters."""
    if len(text) > BASE_CAP:
        raise CapExceeded("char needs base literals of at most %d characters" % BASE_CAP)
    return parse_qsqrt2(text)


def _record(command, parameters, results):
    return {"command": command, "parameters": parameters, "results": results}


def _emit_structured(record, rows, fmt, out):
    """Write the record as json or its rows as csv/tsv; False for plain, which loads neither."""
    if fmt == "json":
        import json
        out.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
    elif fmt in ("csv", "tsv"):
        import csv
        csv.writer(out, delimiter="," if fmt == "csv" else "\t",
                   lineterminator="\n").writerows(rows)
    else:
        return False
    return True


def _emit(record, fmt, out):
    results = record["results"]
    if _emit_structured(record, [list(results), list(results.values())], fmt, out):
        return
    params = " ".join("%s=%s" % kv for kv in record["parameters"].items())
    out.write("%s %s\n" % (record["command"], params))
    for kv in results.items():
        out.write("  %s = %s\n" % kv)


def _emit_table(record, fmt, out):
    rows = [record["header"]] + record["rows"]
    if _emit_structured(record, rows, fmt, out):
        return
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for row in rows:
        out.write("  ".join(str(c).rjust(w) for c, w in zip(row, widths)) + "\n")


def cmd_count(args, out):
    value = count_exact(args.p, args.q, args.max_degree)
    results = {"value": str(value)}
    if args.oracle:
        other = (count_naive(args.p, args.q) if args.oracle == "naive"
                 else orbit_census(args.p, args.q, args.max_pq).orbit_count)
        results["oracle"] = args.oracle
        results["oracle_value"] = str(other)
        results["agreement"] = value == other
    record = _record("count", {"p": args.p, "q": args.q}, results)
    _emit(record, args.format, out)
    return 0


def cmd_bound(args, out):
    report = bound_report(args.p, args.q, max_degree=args.max_degree)
    results = {
        "theorem_bound": str(report.theorem_bound),
        "theorem_bound_decimal": decimal_render(report.theorem_bound, 6),
        "places": 6,
        "ao_lower": str(report.ao_lower),
        "ao_upper": str(report.ao_upper),
    }
    if report.exact is not None:
        results["exact"] = str(report.exact)
        results["sandwich_holds"] = bool(report.ao_lower <= report.exact <= report.ao_upper)
        results["theorem_holds"] = report.theorem_bound >= report.exact
    record = _record("bound", {"p": args.p, "q": args.q}, results)
    _emit(record, args.format, out)
    return 0


def cmd_table(args, out):
    if args.p_step < 1:
        raise ValueError("table needs --p-step >= 1")
    if min(args.p_min, args.p_min + args.k_min) < 1:  # each cell is (p, q) = (p, p + k)
        raise ValueError("table needs --p-min >= 1 and --p-min + --k-min >= 1, got %d and %d"
                         % (args.p_min, args.p_min + args.k_min))
    for side, low, high in (("p", args.p_min, args.p_max), ("k", args.k_min, args.k_max)):
        if low > high:
            raise ValueError("table needs --%s-min <= --%s-max, got %d > %d"
                             % (side, side, low, high))
    p_values = range(args.p_min, args.p_max + 1, args.p_step)
    k_values = range(args.k_min, args.k_max + 1)
    rows = ratio_table(p_values, k_values)
    header = ["p"] + ["k=%d" % k for k in k_values]
    body = [["p=%d" % p] + row for p, row in zip(p_values, rows)]
    record = {"command": "table",
              "parameters": {"p_min": args.p_min, "p_max": args.p_max, "p_step": args.p_step,
                             "k_min": args.k_min, "k_max": args.k_max, "places": 6},
              "header": header, "rows": body}
    _emit_table(record, args.format, out)
    return 0


def cmd_orbits(args, out):
    results = {}
    lower = free_fraction_lower_bound(args.p, args.q, args.max_degree)
    try:
        census = orbit_census(args.p, args.q, args.max_pq)
    except CapExceeded:
        results["census_skipped"] = True
    else:
        f = Fraction(census.free_element_count, census.total)
        results["free_fraction"] = str(f)
        results["orbit_count"] = str(census.orbit_count)
        results["free_elements"] = str(census.free_element_count)
        results["total"] = str(census.total)
        results["census_skipped"] = False
    results["lower_bound"] = str(lower)
    record = _record("orbits", {"p": args.p, "q": args.q}, results)
    _emit(record, args.format, out)
    return 0


def cmd_char(args, out):
    if args.char_op == "avg":
        value = avg_char(CyclicCharacter(args.p, _parse_base(args.z)))
        params = {"op": "avg", "p": args.p, "z": args.z}
    else:
        value = twisted_product(args.p, _parse_base(args.z), args.q, _parse_base(args.zprime))
        params = {"op": "twisted", "p": args.p, "z": args.z, "q": args.q, "zprime": args.zprime}
    results = {"value": str(value), "value_decimal": decimal_render(value, 6), "places": 6}
    record = _record("char", params, results)
    _emit(record, args.format, out)
    return 0


def cmd_verify(args, out):
    from . import verify  # loaded by this subcommand alone
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    ok = verify.run_suites(names, seed=args.seed, out=lambda line: out.write(line + "\n"))
    out.write("verify: %s\n" % ("all checks passed" if ok else "FAILURES above"))
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bicolored",
        description="Exact counts and bounds for unlabelled bicolored graphs.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv", "tsv", "plain"], default="plain")
    degree_cap = argparse.ArgumentParser(add_help=False)
    degree_cap.add_argument("--max-degree", type=int, default=DEGREE_CAP,
                            help="count cap on max(p, q), at most %d" % DEGREE_CAP)
    census_cap = argparse.ArgumentParser(add_help=False)
    census_cap.add_argument("--max-pq", type=int, default=CENSUS_CAP,
                            help="orbit census cap on p*q, at most %d" % CENSUS_CAP)
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("count", parents=[common, degree_cap, census_cap], help="exact |B_u(p,q)|")
    s.add_argument("p", type=int)
    s.add_argument("q", type=int)
    s.add_argument("--oracle", choices=["naive", "census"])
    s.set_defaults(func=cmd_count)

    s = sub.add_parser("bound", parents=[common, degree_cap], help="all bounds at one (p,q)")
    s.add_argument("p", type=int)
    s.add_argument("q", type=int)
    s.set_defaults(func=cmd_bound)

    s = sub.add_parser("table", parents=[common], help="ratio table, six decimals")
    s.add_argument("--p-min", type=int, default=3)
    s.add_argument("--p-max", type=int, default=48)
    s.add_argument("--p-step", type=int, default=3)
    s.add_argument("--k-min", type=int, default=0)
    s.add_argument("--k-max", type=int, default=4)
    s.set_defaults(func=cmd_table)

    s = sub.add_parser("orbits", parents=[common, degree_cap, census_cap],
                       help="free-orbit census and bound")
    s.add_argument("p", type=int)
    s.add_argument("q", type=int)
    s.set_defaults(func=cmd_orbits)

    s = sub.add_parser("char", parents=[common], help="character averages and products")
    s.add_argument("char_op", choices=["avg", "twisted"])
    s.add_argument("p", type=int)
    s.add_argument("z", help="base: sqrt2, an integer, n/d, or a+b*sqrt2")
    s.add_argument("q", type=int, nargs="?")
    s.add_argument("zprime", nargs="?")
    # a word starting with a digit or spelling sqrt2 after its "-" is a negative base,
    # not an option: argparse's own matcher takes only -N and -N.N
    s._negative_number_matcher = re.compile(r"^-(?:\d|sqrt2$)")
    s.set_defaults(func=cmd_char, error=s.error)  # arity errors print char's usage

    s = sub.add_parser("verify", help="run the property suites")
    # "all" and the sorted names of verify.SUITES, spelt out so that verify loads only when run
    s.add_argument("--suite", choices=["all", "asymptotics", "bounds", "characters", "cycleform"],
                   default="all")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_verify)

    return parser


_parser = None  # built by the first main call, reused by every later one


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    if args.command == "char":
        if args.char_op == "twisted" and (args.q is None or args.zprime is None):
            args.error("char twisted needs p z q zprime")
        if args.char_op == "avg" and (args.q is not None or args.zprime is not None):
            args.error("char avg takes p z only")
    try:
        status = args.func(args, sys.stdout)
        sys.stdout.flush()
        return status
    except (CapExceeded, ValueError, ZeroDivisionError) as err:
        print("bicolored: %s" % err, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: point it at the null device so the flush at exit
        # cannot fail again, and exit as a process killed by SIGPIPE would
        with contextlib.suppress(OSError, ValueError):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 128 + 13


if __name__ == "__main__":
    sys.exit(main())
