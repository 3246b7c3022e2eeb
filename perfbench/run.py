"""The bicolored benchmark: seeded CLI workloads, checked outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload count-grid --seed 1 --seconds 25 --trace 0

Each pass runs the workload's whole query list through `bicolored.cli.main`
in a fresh interpreter, so caches start cold as they do for a CLI user.
Passes repeat, one after another, for the given seconds (at least one pass).
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 untraced and traced passes alternate and it carries the per-layer
metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7     # extra interpreter starts per run, so setup_s is a median of several
RUN_LIMIT_S = 165    # a run stops starting passes, and kills a stuck one, by this age

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "query_p50_s": "s", "peak_rss_mb": "MB"}

LAYERS = ("perm", "exact", "characters", "cycleform", "enumeration", "bounds", "verify", "cli")
CALLS = ("perm.class_size", "enumeration.count_exact", "enumeration.orbit_census",
         "exact.decimal_render", "characters.twisted_product", "bounds.theorem_bound",
         "cycleform.cycle_form")
SELF = ("perm.partitions", "perm.class_size", "enumeration.count_exact",
        "enumeration.orbit_census", "enumeration.count_naive", "exact.decimal_render",
        "characters.twisted_product", "characters.avg_char", "characters.twisted_product_naive",
        "characters.avg_char_naive", "bounds.theorem_bound", "bounds.ratio_table",
        "bounds.ao_bounds", "bounds.growth_ratio", "bounds.verify_H", "bounds.tail_ratio",
        "cycleform.cycle_form", "cycleform.cycle_form_bilinear", "verify.suite.characters",
        "verify.suite.cycleform", "verify.suite.bounds", "verify.suite.asymptotics")
COUNTERS = ("perm.partitions.calls", "perm.partitions.yielded", "exact.qsqrt2_mul.calls",
            "exact.qsqrt2_inverse.calls", "exact.stirling_first.calls",
            "enumeration.class_pairs", "enumeration.census_masks", "verify.checks",
            "verify.checks_failed")


def per_layer_units():
    """Every per-layer metric with its unit and direction, in report order."""
    units = {}
    for name in CALLS:
        units[name + ".calls"] = ("count", "lower")
    for name in COUNTERS:
        units[name] = ("count", "higher" if name == "verify.checks" else "lower")
    units["exact.qsqrt2.max_operand_bits"] = ("bits", "lower")
    units["exact.stirling_rows.built"] = ("count", "lower")
    units["enumeration.count_cache.hit_ratio"] = ("ratio", "higher")
    units["cli.stdout_bytes"] = ("bytes", "lower")
    units["trace.spans"] = ("count", "lower")
    for name in SELF:
        units[name + ".self_s"] = ("s", "lower")
    units["cli.parse_s"] = ("s", "lower")
    units["cli.emit_s"] = ("s", "lower")
    for layer in LAYERS:
        units[layer + ".self_s"] = ("s", "lower")
    units["trace.wall_s"] = ("s", "lower")
    units["trace.overhead_s"] = ("s", "lower")
    return units


def spawn(request, timeout):
    """One fresh worker process; its report, with setup_s, or None and the reason."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"   # the same set and dict orders in every pass
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps(request), timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "worker killed after %.0f s" % timeout
    lines = out.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[0].startswith("ready "):
        return None, "worker exit %s: %s" % (proc.returncode, err.strip()[-1000:])
    report = json.loads(lines[-1])
    if not Path(report["module"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit("bicolored was imported from %s, not from %s" % (report["module"], SRC))
    report["setup_s"] = float(lines[0].split()[1]) - t0
    return report, None


def run_passes(queries, seconds, trace, spans_path, born):
    """Passes back to back for `seconds`; with trace, untraced and traced alternate."""
    kinds = (False, True) if trace else (False,)
    reports, problems = [], []
    start = time.monotonic()
    while True:
        traced = kinds[len(reports) % len(kinds)]
        began = time.monotonic()
        report, problem = spawn({"queries": queries, "trace": traced,
                                 "spans_path": str(spans_path)},
                                RUN_LIMIT_S - (began - born))
        if report is None:
            problems.append(problem)
            return reports, problems
        report["traced"] = traced
        reports.append(report)
        now = time.monotonic()
        if len(reports) >= len(kinds) and (now - start) + (now - began) > seconds:
            return reports, problems
        if now - born > RUN_LIMIT_S / 2:
            return reports, problems


def check_outputs(queries, reports):
    """Count attempted and failed queries over all passes; list what failed."""
    checker = checks.Checker()
    verdicts, first = {}, {}
    attempted = failed = 0
    failures = []
    for number, report in enumerate(reports):
        for index, (argv, result) in enumerate(zip(queries, report["results"])):
            attempted += 1
            digest = hashlib.sha256(result["stdout"].encode()).hexdigest()
            problems = []
            if result["rc"] != 0:
                problems.append("exit %s: %s" % (result["rc"], result["stderr"].strip()))
            if first.setdefault(index, digest) != digest:
                problems.append("stdout differs from the first pass")
            elif result["rc"] == 0:
                if digest not in verdicts:
                    verdicts[digest] = checker.problems(argv, result["stdout"])
                problems += verdicts[digest]
            if problems:
                failed += 1
                failures.append({"pass": number, "query": " ".join(argv), "problems": problems})
    return attempted, failed, failures, [first[i] for i in sorted(first)]


def end_to_end(untraced, probes):
    walls = [r["wall_s"] for r in untraced]
    times = [res["seconds"] for r in untraced for res in r["results"]]
    metrics = {
        "setup_s": statistics.median(probes + [r["setup_s"] for r in untraced]),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
        "query_p50_s": statistics.median(times),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    # a p90 needs at least ten samples above it
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) >= 100 else None
    return metrics, p90, len(times)


def layer_metrics(traced, untraced):
    """Per-layer metrics from the traced passes; counts must repeat exactly across them."""
    def spans(report, name):
        return report["layers"]["spans"].get(name, {"calls": 0, "self_s": 0.0})

    def counts(report):
        layers = report["layers"]
        info = layers["count_cache"]
        lookups = info["hits"] + info["misses"]
        out = {name + ".calls": spans(report, name)["calls"] for name in CALLS}
        out.update({name: layers["counts"].get(name, 0) for name in COUNTERS})
        out["exact.qsqrt2.max_operand_bits"] = layers["max_operand_bits"]
        out["exact.stirling_rows.built"] = layers["stirling_rows_built"]
        out["enumeration.count_cache.hit_ratio"] = info["hits"] / lookups if lookups else 0.0
        out["cli.stdout_bytes"] = sum(len(r["stdout"].encode()) for r in report["results"])
        out["trace.spans"] = layers["span_count"]
        return out

    def self_time(report, prefix):
        return sum(s["self_s"] for n, s in report["layers"]["spans"].items()
                   if n == prefix or n.startswith(prefix + "."))

    metrics = counts(traced[0])
    problems = ["computed counts differ between traced passes"
                for report in traced[1:] if counts(report) != metrics]
    med = statistics.median
    for name in SELF:
        metrics[name + ".self_s"] = med(spans(r, name)["self_s"] for r in traced)
    metrics["cli.parse_s"] = med(spans(r, "cli.parse")["self_s"] for r in traced)
    metrics["cli.emit_s"] = med(spans(r, "cli.emit")["self_s"] for r in traced)
    for layer in LAYERS:
        metrics[layer + ".self_s"] = med(self_time(r, layer) for r in traced)
    metrics["trace.wall_s"] = med(r["wall_s"] for r in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - med(r["wall_s"] for r in untraced)
    return metrics, problems


def git_commit():
    """The checked-out commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload, seed):
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"commit": git_commit(), "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model or platform.processor(), "platform": platform.platform(),
            "workload": workload, "why": workloads.WHY[workload], "seed": seed}


def main(argv=None):
    born = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bicolored" / "cli.py").is_file():
        print("perfbench: no bicolored sources under %s" % SRC, file=sys.stderr)
        return 2
    try:
        queries = workloads.generate(args.workload, args.seed)
    except ValueError as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    probes = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            report, problem = spawn({"probe": True}, RUN_LIMIT_S - (time.monotonic() - born))
            if report is None:
                print("perfbench: %s" % problem, file=sys.stderr)
                return 2
            probes.append(report["setup_s"])
    spans_path = OUT / ("spans-%s.json.gz" % args.workload)
    reports, run_problems = run_passes(queries, args.seconds, args.trace, spans_path, born)
    attempted, failed, failures, digests = check_outputs(queries, reports)
    attempted += len(queries) * len(run_problems)   # a lost pass fails every query in it
    failed += len(queries) * len(run_problems)
    untraced = [r for r in reports if not r["traced"]]
    traced = [r for r in reports if r["traced"]]
    if not untraced or (args.trace and not traced):
        print("perfbench: no complete pass: %s" % "; ".join(run_problems), file=sys.stderr)
        return 2

    e2e, p90, samples = end_to_end(untraced, probes)
    lines = ["workload %s, seed %d: %d queries, %d untraced and %d traced passes"
             % (args.workload, args.seed, len(queries), len(untraced), len(traced))]
    if args.trace:
        metrics, count_problems = layer_metrics(traced, untraced)
        run_problems += count_problems
        units = per_layer_units()
        for layer in LAYERS:
            lines.append("  share of traced wall_s in %-12s %.3f"
                         % (layer, metrics[layer + ".self_s"] / metrics["trace.wall_s"]))
    else:
        metrics = e2e
        units = {name: (unit, "lower") for name, unit in END_TO_END.items()}
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else "%.6g" % value
        lines.append("  %-40s = %s %s" % (name, shown, units[name][0]))
    if not args.trace:
        lines.append("  %-40s = %s" % ("query_p90_s", "%.6g s" % p90 if p90 is not None else
                                       "undefined: %d samples, fewer than 100" % samples))
    lines.append("  %-40s = %.6g (%d of %d queries)" % ("failed_frac", failed / attempted,
                                                         failed, attempted))
    for failure in failures[:10]:
        lines.append("  FAILED pass %(pass)d: %(query)s: %(problems)s" % failure)
    for problem in run_problems:
        lines.append("  FAILED run: %s" % problem)

    record = {"environment": environment(args.workload, args.seed), "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, "query_p90_s": p90,
              "attempted": attempted, "failed": failed, "failures": failures,
              "run_problems": run_problems,
              "queries": [{"argv": argv, "stdout_sha256": digest}
                          for argv, digest in zip(queries, digests)],
              "passes": [{"traced": r["traced"], "setup_s": r["setup_s"], "wall_s": r["wall_s"],
                          "cpu_s": r["cpu_s"], "peak_rss_mb": r["peak_rss_mb"],
                          "query_s": [res["seconds"] for res in r["results"]]}
                         for r in reports],
              "setup_probes_s": probes}
    result_path = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    lines.append("  results: %s" % result_path.relative_to(ROOT))
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0 and not run_problems, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name][0]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
