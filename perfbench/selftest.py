"""Tests of the benchmark itself: generator ranges, oracles, checks, repeatable counts.

    python3 perfbench/selftest.py

Named so that the repository's pytest run does not collect it.
"""

import json
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks      # noqa: E402
import oracles     # noqa: E402
import run         # noqa: E402
import workloads   # noqa: E402

SEEDS = range(20)

# one small query per layer family, fast enough to trace twice
SMALL_QUERIES = [["count", "9", "14"], ["orbits", "3", "4"], ["count", "2", "5", "--oracle", "census"],
                 ["bound", "21", "23", "--max-degree", "20"],
                 ["char", "twisted", "8", "3/2", "9", "sqrt2"], ["char", "avg", "12", "1/2"],
                 ["verify", "--suite", "asymptotics", "--seed", "1"]]


class GeneratorTest(unittest.TestCase):

    def test_every_seed_stays_in_range_and_repeats(self):
        for workload in workloads.GENERATORS:
            for seed in SEEDS:
                queries = workloads.generate(workload, seed)   # raises if out of range
                self.assertEqual(queries, workloads.generate(workload, seed))
                self.assertTrue(queries)

    def test_seeds_change_the_queries(self):
        for workload in ("count-grid", "bound-table", "orbit-census", "verify-suites"):
            lists = {json.dumps(workloads.generate(workload, seed)) for seed in SEEDS}
            self.assertGreater(len(lists), len(SEEDS) // 2, workload)

    def test_costly_queries_are_refused(self):
        refused = [("count-grid", [["count", "64", "64"]]),
                   ("count-grid", [["count", "20", "20"], ["count", "20", "20"]]),
                   ("count-grid", [["count", "3", "20"]]),
                   ("bound-table", [["table"], ["bound", "40", "40"]]),
                   ("bound-table", [["table"], ["bound", "21", "70", "--max-degree", "20"]]),
                   ("bound-table", [["table"], ["bound", "21", "30", "--max-degree", "64"]]),
                   ("bound-table", [["table"], ["char", "twisted", "40", "2", "9", "2"]]),
                   ("bound-table", [["table"], ["table"]]),
                   ("orbit-census", [["orbits", "5", "5"]]),
                   ("orbit-census", [["count", "4", "5"]]),
                   ("verify-suites", [["verify"]])]
        for workload, queries in refused:
            with self.assertRaises(ValueError, msg=(workload, queries)):
                workloads.check_ranges(workload, queries)

    def test_count_strata_mix_balanced_and_skewed(self):
        shapes = [abs(int(a[1]) - int(a[2])) for seed in SEEDS
                  for a in workloads.generate("count-grid", seed)]
        self.assertTrue(any(d <= 1 for d in shapes) and any(d >= 10 for d in shapes))


class OracleTest(unittest.TestCase):

    def test_partition_count(self):
        from bicolored.perm import partitions
        self.assertEqual([oracles.partition_count(n) for n in range(15)],
                         [len(list(partitions(n))) for n in range(15)])

    def test_oracles_agree_with_the_library(self):
        from bicolored.bounds import theorem_bound
        from bicolored.characters import CyclicCharacter, avg_char, twisted_product
        from bicolored.enumeration import count_exact
        from bicolored.exact import decimal_render, parse_qsqrt2
        for p in range(7):
            for q in range(9):
                self.assertEqual(oracles.count_cycle_index(p, q), count_exact(p, q))
        for p in range(1, 7):
            for q in range(1, 7):
                a, b, d = oracles.theorem_bound_parts(p, q)
                value = theorem_bound(p, q)
                self.assertEqual((value.a * d, value.b * d), (a, b))
                self.assertEqual(oracles.render(value.a, value.b), decimal_render(value, 6))
        for name, base in oracles.BASES.items():
            value = avg_char(CyclicCharacter(6, parse_qsqrt2(name)))
            want = oracles.avg_char(6, base)
            self.assertEqual((value.a, value.b), (want.a, want.b))
            value = twisted_product(4, parse_qsqrt2(name), 5, parse_qsqrt2("3/2"))
            want = oracles.twisted_product(4, base, 5, oracles.BASES["3/2"])
            self.assertEqual((value.a, value.b), (want.a, want.b))

    def test_render_rounds_half_to_even_exactly(self):
        from fractions import Fraction
        self.assertEqual(oracles.render(Fraction(1, 8), 0, 2), "0.12")
        self.assertEqual(oracles.render(Fraction(3, 8), 0, 2), "0.38")
        self.assertEqual(oracles.render(0, 1), "1.414214")
        self.assertEqual(oracles.render(Fraction(-1, 3), Fraction(1, 7)), "-0.131303")


class CheckTest(unittest.TestCase):

    def test_wrong_outputs_are_caught(self):
        checker = checks.Checker()
        self.assertEqual(checker.problems(["count", "3", "3"], "count p=3 q=3\n  value = 36\n"), [])
        self.assertTrue(checker.problems(["count", "3", "3"], "count p=3 q=3\n  value = 37\n"))
        self.assertTrue(checker.problems(["verify"], "FAIL  bounds: x\nverify: FAILURES above\n"))
        self.assertTrue(checker.problems(["bound", "21", "21"], "garbage"))
        rows = ["p=%d  %s" % (p, "  ".join(r)) for p, r in checks.REFERENCE_TABLE.items()]
        table = "p  k=0  k=1  k=2  k=3  k=4\n" + "\n".join(rows) + "\n"
        self.assertEqual(checker.problems(["table"], table), [])
        self.assertTrue(checker.problems(["table"], table.replace("1.999966", "1.999967")))


class TraceTest(unittest.TestCase):

    def test_computed_counts_repeat_exactly(self):
        born = time.monotonic()
        reports = []
        for _ in range(2):
            report, problem = run.spawn({"queries": SMALL_QUERIES, "trace": True,
                                         "spans_path": str(run.OUT / "spans-selftest.json.gz")},
                                        run.RUN_LIMIT_S - (time.monotonic() - born))
            self.assertIsNone(problem)
            report["traced"] = True
            reports.append(report)
        metrics, problems = run.layer_metrics(reports, reports)
        self.assertEqual(problems, [])
        self.assertEqual(set(metrics), set(run.per_layer_units()))
        self.assertGreater(metrics["enumeration.class_pairs"], 0)
        self.assertGreater(metrics["enumeration.census_masks"], 0)
        self.assertGreater(metrics["exact.qsqrt2.max_operand_bits"], 0)
        attempted, failed, failures, _ = run.check_outputs(SMALL_QUERIES, reports)
        self.assertEqual((attempted, failed), (2 * len(SMALL_QUERIES), 0), failures)

    def test_benchmark_json_names_every_metric(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
                         run.per_layer_units())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.GENERATORS))


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    unittest.main()
