"""End-to-end checks of the bicolored command line."""

import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bicolored import bounds, cli, exact, verify
from bicolored.cli import build_parser, main
from test_golden_output import GOLDEN


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_plain(capsys):
    code, out, err = run_cli(capsys, "count", "3", "4")
    assert code == 0 and err == ""
    assert "value = 87" in out


def test_count_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "count", "3", "4", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["command"] == "count"
    assert record["parameters"] == {"p": 3, "q": 4}
    assert record["results"]["value"] == "87"


def test_count_with_oracles(capsys):
    code, out, _ = run_cli(capsys, "count", "4", "4", "--oracle", "naive", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["results"]["agreement"] is True
    assert record["results"]["oracle_value"] == "317"
    code, out, _ = run_cli(capsys, "count", "4", "4", "--oracle", "census", "--format", "json")
    assert json.loads(out)["results"]["agreement"] is True


def test_count_naive_at_its_cap_finishes(capsys):
    # the naive oracle's cap is 7; it added 25.4 million permutation-pair terms there
    # and took about 29 s, and tallied by cycle type it takes about 0.2 s
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "7", "7", "--oracle", "naive")
    assert code == 0 and err == ""
    assert "agreement = True" in out
    assert time.perf_counter() - start < 10.0


def test_bound_json(capsys):
    code, out, _ = run_cli(capsys, "bound", "4", "3", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["results"]["exact"] == "87"
    assert record["results"]["sandwich_holds"] is True
    assert record["results"]["theorem_holds"] is True
    # the reversed shape is the known failing side of the doubled bound
    code, out, _ = run_cli(capsys, "bound", "3", "4", "--format", "json")
    assert json.loads(out)["results"]["sandwich_holds"] is False


def test_bound_json_reports_a_failing_theorem(capsys, monkeypatch):
    # a bound a hair below the exact count 87 is a failure only an exact comparison sees
    monkeypatch.setattr(bounds, "theorem_bound",
                        lambda p, q: exact.QSqrt2(87) - Fraction(1, 10 ** 30))
    code, out, _ = run_cli(capsys, "bound", "4", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["theorem_holds"] is False


def test_bound_beyond_count_cap(capsys):
    code, out, _ = run_cli(capsys, "bound", "70", "3", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert "exact" not in record["results"]
    assert "theorem_bound" in record["results"]


def test_count_over_budget_exits_promptly(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "64", "64")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and err.startswith("bicolored:")
    assert "budget" in err
    # --max-degree can only lower the degree cap
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "1", "1000", "--max-degree", "1000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "p, q <= 64" in err


def test_char_and_bound_caps(capsys):
    # degrees over the caps exit 2 before any ring work
    for argv in (["char", "avg", "65", "1/2"], ["char", "twisted", "65", "1/2", "2", "2"],
                 ["char", "twisted", "2", "1/2", "65", "2"], ["bound", "4097", "1"]):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out == "" and err.startswith("bicolored:"), argv
        assert "needs" in err, argv
    for argv in (["char", "avg", "64", "3/2"], ["char", "twisted", "64", "3/2", "64", "sqrt2"],
                 ["bound", "64", "64"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and "_decimal = " in out, argv


def test_char_twisted_over_budget_exits_promptly(capsys):
    # a 64-character base at degrees 64 once ran for minutes; now refused before any work
    z = "12345678901234567890123456789013/1234567890123456789012345678901"
    assert len(z) == 64
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "char", "twisted", "64", z, "64", z)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and err.startswith("bicolored:")
    assert "budget" in err


def test_bound_over_budget_omits_exact(capsys):
    code, out, _ = run_cli(capsys, "bound", "40", "40", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert "exact" not in record["results"]
    assert "theorem_bound" in record["results"]


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--format", "csv", "--p-max", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,k=0,k=1,k=2,k=3,k=4"
    assert lines[1].startswith("p=3,0.678530,")
    assert len(lines) == 3
    assert "\r" not in out


def test_table_tsv_and_plain(capsys):
    code, out, _ = run_cli(capsys, "table", "--format", "tsv", "--p-max", "3")
    assert out.splitlines()[0] == "p\tk=0\tk=1\tk=2\tk=3\tk=4"
    code, out, _ = run_cli(capsys, "table", "--p-max", "3", "--k-max", "0")
    assert "0.678530" in out


def test_table_determinism(capsys):
    _, first, _ = run_cli(capsys, "table", "--format", "csv", "--p-max", "12")
    _, second, _ = run_cli(capsys, "table", "--format", "csv", "--p-max", "12")
    assert first == second


def test_table_huge_ranges_exit_promptly(capsys):
    # the ranges are not materialised: the first cell over a cap refuses the table
    for flag in ("--p-max", "--k-max"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "table", flag, "100000000000")
        assert time.perf_counter() - start < 1.0, flag
        assert code == 2 and out == "", flag
        assert err == "bicolored: ao_bounds needs q <= 64\n", flag


def test_table_rejects_nonpositive_p_step(capsys):
    for step in ("0", "-3"):
        code, out, err = run_cli(capsys, "table", "--p-step", step)
        assert code == 2 and out == "", step
        assert err.startswith("bicolored:") and "--p-step" in err, step


def test_table_rejects_inverted_ranges(capsys):
    for argv, pair in ((["--p-max", "1"], "3 > 1"), (["--k-max", "-1", "--p-max", "6"], "0 > -1"),
                       (["--p-min", "9", "--p-max", "8"], "9 > 8")):
        code, out, err = run_cli(capsys, "table", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("bicolored:") and pair in err, argv


def test_table_rejects_nonpositive_sides(capsys):
    # p = 0 or q = p + k = 0 is refused by the flags the user typed, not by ao_bounds' p, q
    for argv, got in ((["--p-min", "0"], "got 0 and 0"), (["--p-min", "-2"], "got -2 and -2"),
                      (["--p-min", "2", "--k-min", "-2"], "got 2 and 0")):
        code, out, err = run_cli(capsys, "table", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("bicolored: table needs --p-min >= 1 and --p-min + --k-min >= 1")
        assert got in err, argv


def test_orbits(capsys):
    code, out, _ = run_cli(capsys, "orbits", "2", "2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["results"]["free_fraction"] == "1/2"
    assert record["results"]["census_skipped"] is False
    code, out, _ = run_cli(capsys, "orbits", "7", "7", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["results"]["census_skipped"] is True
    assert "free_fraction" not in record["results"]
    assert "lower_bound" in record["results"]
    # --max-pq can only lower the census cap
    code, out, _ = run_cli(capsys, "orbits", "5", "6", "--max-pq", "30", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["census_skipped"] is True


def test_char_avg(capsys):
    code, out, _ = run_cli(capsys, "char", "avg", "3", "1/2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["results"]["value"] == "1/2+0*sqrt2"
    assert record["results"]["value_decimal"] == "0.500000"
    # avg over S_2 is (1 + z)/2 = 1/(2*10^6) + (sqrt2 - r), just above a half-unit
    r = Fraction(math.isqrt(2 * 10 ** 120), 10 ** 60)
    z = "%s+2*sqrt2" % (Fraction(1, 10 ** 6) - 2 * r - 1)
    code, out, _ = run_cli(capsys, "char", "avg", "2", "--", z)
    assert code == 0
    assert "value_decimal = 0.000001" in out


def test_char_twisted(capsys):
    code, out, _ = run_cli(capsys, "char", "twisted", "2", "1/2", "2", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["value"] == "2+0*sqrt2"
    for argv in (["2", "1/2"], ["1", "2", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(["char", "twisted", *argv])
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "char twisted needs p z q zprime" in err, argv
        assert err.startswith("usage: bicolored char "), err


def test_char_negative_bases_parse_as_bases(capsys):
    # the base literals README lists read the same with or without "--" before them,
    # and --format is still taken before or after them
    for argv in (["avg", "3", "-3/2"], ["avg", "3", "-sqrt2"],
                 ["twisted", "2", "-3/2", "2", "-1+1*sqrt2"]):
        code, out, err = run_cli(capsys, "char", *argv)
        assert code == 0 and err == "", argv
        assert run_cli(capsys, "char", *argv[:2], "--", *argv[2:]) == (0, out, ""), argv
        for fmt in (["--format", "json", *argv], [*argv, "--format", "json"]):
            code, out, _ = run_cli(capsys, "char", *fmt)
            assert code == 0 and json.loads(out)["parameters"]["z"] == argv[2], fmt
    code, out, _ = run_cli(capsys, "char", "avg", "3", "-sqrt2")
    assert "value = 5/6-1/2*sqrt2" in out
    # a word that is neither a number nor sqrt2 is still read as an option
    with pytest.raises(SystemExit) as exc:
        main(["char", "avg", "3", "-x"])
    assert exc.value.code == 2


def test_error_exit_codes(capsys):
    code, out, err = run_cli(capsys, "count", "100", "3")
    assert code == 2 and "bicolored:" in err
    code, _, err = run_cli(capsys, "orbits", "70", "2")
    assert code == 2
    for p, q in (("-1", "2"), ("2", "-1")):
        code, out, err = run_cli(capsys, "orbits", p, q)
        assert (code, out, err) == (2, "", "bicolored: p, q must be nonnegative\n"), (p, q)
    # a zero denominator in either part of a base is named, not reported as Fraction(n, 0)
    for argv in (["avg", "3", "1/0"], ["avg", "3", "1+1/0*sqrt2"],
                 ["twisted", "3", "0/0", "2", "2"], ["twisted", "3", "2", "2", "1-1/0*sqrt2"]):
        code, out, err = run_cli(capsys, "char", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("bicolored: base ") and "zero denominator" in err, argv
    code, _, err = run_cli(capsys, "char", "avg", "3", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "char", "avg", "3", "xyz")
    assert code == 2
    # the cap flags belong to the subcommands that read them; verify prints plain text only
    for argv in (["table", "--max-degree", "3"], ["bound", "3", "3", "--max-pq", "4"],
                 ["verify", "--max-pq", "4"], ["verify", "--format", "json"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_char_avg_rejects_extra_arguments(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["char", "avg", "3", "2", "4", "5"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "char avg takes p z only" in err
    assert err.startswith("usage: bicolored char "), err


def test_repeated_calls_reuse_one_parser_and_leak_nothing(capsys, monkeypatch):
    # every golden invocation twice in one process, each followed by a refusal, a parse
    # error, a help request or a char arity error, prints its golden stdout
    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    monkeypatch.setattr(cli, "_parser", None)
    detours = [(["count", "37", "37"], 2, None), (["verify", "--suite", "nope"], None, 2),
               (["--help"], None, 0), (["char", "avg", "3", "2", "4", "5"], None, 2)]
    for i, (argv, digest) in enumerate(GOLDEN * 2):
        assert main(list(argv)) == 0, argv
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
        detour, status, exit_code = detours[i % len(detours)]
        if exit_code is None:
            assert main(detour) == status, detour
        else:
            with pytest.raises(SystemExit) as exc:
                main(detour)
            assert exc.value.code == exit_code, detour
        capsys.readouterr()
    assert builds == [1]


def test_bound_prints_up_to_the_caps(capsys):
    # values of more than 4300 digits print; Python's conversion limit is restored after
    limit = sys.get_int_max_str_digits()
    start = time.perf_counter()
    for q in range(1, 65):
        p = 4096 // q
        code, out, err = run_cli(capsys, "bound", str(p), str(q), "--format", "json")
        assert code == 0 and err == "", (p, q)
        results = json.loads(out)["results"]
        whole, places = results["theorem_bound_decimal"].split(".")
        assert whole.isdigit() and len(places) == 6 and Fraction(results["ao_lower"]) > 0
        assert sys.get_int_max_str_digits() == limit
    code, out, _ = run_cli(capsys, "bound", "4096", "1", "--format", "json")
    a = json.loads(out)["results"]["theorem_bound"].split("/")[0]
    assert len(a) == 7844
    assert time.perf_counter() - start < 10.0


def test_char_base_literal_cap(capsys):
    # long bases print; a literal over 256 characters is refused before it is converted
    for argv in (["char", "avg", "64", "1/1" + "0" * 70], ["char", "avg", "8", "1/1" + "0" * 253]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "" and "value_decimal = " in out
    for argv in (["char", "avg", "64", "1/1" + "0" * 254],
                 ["char", "twisted", "2", "3/2", "2", "1" * 257]):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == "bicolored: char needs base literals of at most 256 characters\n"


def test_exponent_base_literals_exit_promptly(capsys):
    # a short literal with an exponent would stand for a huge number: refused unconverted
    for argv in (["char", "avg", "64", "1e9999"], ["char", "twisted", "2", "1e9999999", "2", "2"]):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out == "" and err.startswith("bicolored:"), argv
        assert "n/d" in err, argv


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_readme_examples(capsys):
    # every command of README's "Command line" block runs and exits 0
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = [line.split("#")[0] for line in block.splitlines()
                if line.startswith("bicolored ")]
    assert commands
    for command in commands:
        code, out, err = run_cli(capsys, *shlex.split(command)[1:])
        assert code == 0 and out and err == "", command


def test_python_dash_m(capsys):
    # `python -m bicolored` runs the same CLI from a checkout, without installing
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "bicolored", "count", "3", "3"],
                          env=env, capture_output=True, text=True, timeout=60)
    code, out, _ = run_cli(capsys, "count", "3", "3")
    assert (proc.returncode, proc.stdout) == (code, out)
    assert code == 0 and "value = 36" in out


def test_closed_stdout_exits_quietly(monkeypatch):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["count", "3", "4"]) != 0


def test_verify_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "cycleform", "--seed", "1")
    assert code == 0
    assert "all checks passed" in out


def test_verify_determinism(capsys):
    _, first, _ = run_cli(capsys, "verify", "--suite", "asymptotics", "--seed", "7")
    _, second, _ = run_cli(capsys, "verify", "--suite", "asymptotics", "--seed", "7")
    assert first == second


def test_verify_negative_control(capsys, monkeypatch):
    # corrupt one cached Stirling row; the characters suite must notice and fail
    exact.stirling_first(4, 2)  # make sure the row exists
    monkeypatch.setitem(exact._stirling_rows, 4, (0, 6, 12, 6, 1))
    code, out, _ = run_cli(capsys, "verify", "--suite", "characters", "--seed", "0")
    assert code == 1
    assert "FAIL" in out


def test_cli_import_loads_only_what_every_subcommand_needs():
    # modules a site may preload do not count: only those `import bicolored.cli` adds
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; before = set(sys.modules); import bicolored.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert "bicolored.cli" in loaded
    assert not loaded & {"bicolored.verify", "dataclasses", "inspect", "json", "csv"}


def test_verify_suite_choices_follow_the_registry(capsys):
    (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
    (suite,) = [a for a in subparsers.choices["verify"]._actions if a.dest == "suite"]
    assert suite.choices == ["all"] + sorted(verify.SUITES)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


# the SHA-256 of `--help` at 80 columns; argparse's layout differs between Python
# versions, so these were taken on 3.11
HELP = [
    ([], "e022caf00be732c6bcb93e79dee2aff90e6fa4508fab2791aa49660e1816510c"),
    (["count"], "3d45b4dddb88136481d77af2cc89ae38d1b3ef6bef2216ba0f6679a5b891d9f1"),
    (["bound"], "1e5742e3eae703992204640b205d8c3b6c5d507dc41eb4f906cf84528f270eaf"),
    (["table"], "ae4db5d76074ca25032f703d0c4e02baff333814b4e773f55d427604c8e56a96"),
    (["orbits"], "9c729cd41d728e35347bcda0deb57f48abc512623f9fbb0d4d22addcf19dd117"),
    (["char"], "59682c6d37b07c1cd5884af58f8f72ba2dabfed03cba2a6154da39d8025c3877"),
    (["verify"], "9824c132bc23e828ba8ead16a9973bb6b5df7047ec814d5a69d894502beb5753"),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help digests taken on Python 3.11")
@pytest.mark.parametrize("argv, digest", HELP, ids=[" ".join(a) or "top" for a, _ in HELP])
def test_help_text(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out
