"""End-to-end checks of the bicolored command line."""

import io
import json
import math
import sys
import time
from fractions import Fraction

import pytest

from bicolored import exact
from bicolored.cli import main


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
    with pytest.raises(SystemExit):
        main(["char", "twisted", "2", "1/2"])


def test_error_exit_codes(capsys):
    code, out, err = run_cli(capsys, "count", "100", "3")
    assert code == 2 and "bicolored:" in err
    code, _, err = run_cli(capsys, "orbits", "70", "2")
    assert code == 2
    code, _, err = run_cli(capsys, "char", "avg", "3", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "char", "avg", "3", "xyz")
    assert code == 2
    # the cap flags belong to the subcommands that read them
    for argv in (["table", "--max-degree", "3"], ["bound", "3", "3", "--max-pq", "4"],
                 ["verify", "--max-pq", "4"]):
        with pytest.raises(SystemExit):
            main(argv)


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


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