"""CLI behavior: commands, exit codes, output formats, determinism."""

import json
import os
import sys
import time
from pathlib import Path

import pytest

from fibkit import cli
from fibkit.cli import decimal_digits, main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- eval ---------------------------------------------------------------------

@pytest.mark.parametrize("argv,expected", [
    (("eval", "F", "10"), "55"),
    (("eval", "L", "-4"), "7"),
    (("eval", "G", "5", "--seed", "3,7"), "44"),
    (("eval", "F", "-9"), "34"),
])
def test_eval_prints_exact_value(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.strip() == expected


def test_eval_g_requires_seed(capsys):
    code, _, err = run(capsys, "eval", "G", "5")
    assert code == 2
    assert "seed" in err


def test_eval_rejects_malformed_seed(capsys):
    code, _, err = run(capsys, "eval", "G", "5", "--seed", "3;7")
    assert code == 2


def test_eval_over_digit_limit_exits_2(capsys, monkeypatch):
    # a 4,301-digit value against a 4,300-digit limit stands in for F(10^7);
    # 4,300 is also Python's default, so main's conversion limit leaves no trace
    monkeypatch.setattr(cli, "MAX_PRINT_DIGITS", 4300)
    monkeypatch.setattr(cli, "fib", lambda n: 10 ** 4300)
    code, out, err = run(capsys, "eval", "F", "10000000")
    assert code == 2
    assert out == ""
    assert err == ("fibkit: error: F(10000000) has 4,301 decimal digits, "
                   "over the 4,300-digit output limit\n")


@pytest.fixture
def digit_limit():
    """Python's int-to-str limit set to 5,000 digits for one test."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    yield 5000
    sys.set_int_max_str_digits(previous)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
def test_main_restores_the_digit_limit(capsys, digit_limit):
    # F(30000) has 6,270 digits: printing it needs main's raised limit
    code, out, _ = run(capsys, "eval", "F", "30000")
    assert code == 0 and len(out) == 6271
    assert sys.get_int_max_str_digits() == digit_limit
    assert run(capsys, "eval", "F", "10") == (0, "55\n", "")
    assert sys.get_int_max_str_digits() == digit_limit
    with pytest.raises(SystemExit):
        main(["eval", "F"])
    assert sys.get_int_max_str_digits() == digit_limit


def test_eval_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["eval", "X", "5"])
    assert exc_info.value.code == 2


# --- verify -------------------------------------------------------------------

def test_verify_single_identity_json(capsys):
    code, out, _ = run(capsys, "verify", "--id", "Eq1",
                       "--n", "0..3", "--m", "-4..4", "--p", "-4..4", "--q", "-4..4",
                       "--seeds", "0,1", "2,1", "3,7", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["identity"] == "Eq1"
    assert reports[0]["total"] == 4 * 9 ** 3 * 3
    assert reports[0]["failures"] == []


def test_verify_accepts_negative_seed_token(capsys):
    code, out, _ = run(capsys, "verify", "--id", "Eq8",
                       "--m", "-2..2", "--n", "-2..2", "--seeds", "-4,5")
    assert code == 0
    assert "PASS" in out


def test_verify_by_paper_tag(capsys):
    code, out, _ = run(capsys, "verify", "--id", "Eq(11)", "--m", "-3..3",
                       "--n", "-3..3")
    assert code == 0
    assert "Lemma11" in out


def test_verify_failure_exits_1_and_reports(capsys):
    code, out, _ = run(capsys, "verify", "--file", str(DATA / "bad.cat"),
                       "--m", "-3..3")
    assert code == 1
    assert "FAIL" in out
    assert "lhs=" in out


def test_verify_unknown_selector_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--id", "Nope")
    assert code == 2
    assert "Nope" in err


def test_verify_bad_range_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--id", "Eq8", "--m", "5..1")
    assert code == 2


def test_verify_oversized_grid_exits_2_before_sweeping(capsys):
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", "--id", "Eq1", "--m", "-1000000..1000000")
    assert code == 2
    assert out == ""
    assert err.startswith("fibkit: error: grid has 11,560,005,780 checks")
    assert time.perf_counter() - started < 5.0


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_verify_workers_below_one_exits_2(capsys, workers):
    code, out, err = run(capsys, "verify", "--id", "Eq8", "--m", "0..1", "--n", "0..1",
                         "--workers", workers)
    assert code == 2
    assert out == ""
    assert err == f"fibkit: error: --workers must be at least 1, got {workers}\n"


@pytest.mark.parametrize("identity", [
    "(" * 3000 + "F(m)" + ")" * 3000 + " == F(m)",
    " + ".join(["F(m)"] * 5000) + " == 5000*F(m)",
])
def test_verify_deep_or_long_identity_exits_2(capsys, tmp_path, identity):
    deep = tmp_path / "deep.cat"
    deep.write_text(f"name: Deep\nparams: m\npaper: t\nidentity: {identity}\n")
    code, out, err = run(capsys, "verify", "--file", str(deep), "--m", "0..1")
    assert code == 2
    assert "levels" in err and "Traceback" not in err


def test_verify_json_byte_identical_across_workers(capsys):
    argv = ("verify", "--id", "Eq3", "--n", "0..2", "--m", "-3..3",
            "--p", "-3..3", "--q", "-3..3", "--format", "json")
    _, out1, _ = run(capsys, *argv, "--workers", "1")
    _, out2, _ = run(capsys, *argv, "--workers", "3")
    assert out1 == out2


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "--file", str(DATA / "bad.cat"),
                       "--m", "0..2", "--format", "csv")
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == "identity,point,seed,lhs,rhs,status"
    assert lines[1].startswith("OffByOne,,,,,FAIL")
    assert 'OffByOne,m=0,"0,1",0,1,FAIL' in lines[2:]


def test_verify_with_oracle_flag(capsys):
    code, out, _ = run(capsys, "verify", "--id", "Eq14", "--m", "-2..2",
                       "--p", "-2..2", "--q", "-2..2", "--oracle")
    assert code == 0


def test_catalog_env_override(capsys, monkeypatch):
    monkeypatch.setenv("FIBKIT_CATALOG", str(DATA / "bad.cat"))
    code, out, _ = run(capsys, "verify", "--all", "--m", "0..3")
    assert code == 1
    assert "OffByOne" in out
    monkeypatch.delenv("FIBKIT_CATALOG")
    code, _, _ = run(capsys, "verify", "--id", "Eq8", "--m", "0..2", "--n", "0..2")
    assert code == 0


# --- prove --------------------------------------------------------------------

def test_prove_flagship_ranks(capsys):
    code, out, _ = run(capsys, "prove", "--id", "Eq1", "--n", "1", "2", "3", "4")
    assert code == 0
    assert out.count("PASS") == 4
    assert "checks=8" in out


def test_prove_lemma_without_rank(capsys):
    code, out, _ = run(capsys, "prove", "--id", "Lemma11")
    assert code == 0
    assert "checks=4" in out


def test_prove_eq2_rank_one(capsys):
    code, out, _ = run(capsys, "prove", "--id", "Eq2", "--n", "1")
    assert code == 0


def test_prove_failure_exits_1(capsys, tmp_path):
    bad = tmp_path / "wrong.cat"
    bad.write_text("name: Wrong\nparams: m\npaper: t\n"
                   "identity: F(m) == L(m)\n")
    code, out, _ = run(capsys, "prove", "--file", str(bad))
    assert code == 1
    assert "FAIL" in out


def test_prove_non_affine_exits_2(capsys, tmp_path):
    twisted = tmp_path / "twisted.cat"
    twisted.write_text("name: Twisted\nparams: m p\npaper: t\n"
                       "identity: F(m*p) == F(m*p)\n")
    code, _, err = run(capsys, "prove", "--file", str(twisted))
    assert code == 2
    assert "affine" in err


def test_prove_json_deterministic(capsys):
    argv = ("prove", "--id", "Eq4", "--n", "2", "--format", "json")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    report = json.loads(out1)[0]
    assert report["mode"] == "symbolic"
    assert report["total"] == 8


# --- catalog / bench ----------------------------------------------------------

def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert out.count("\n") >= 58  # two lines per entry
    assert "S3.n2.L-forward" in out


def test_catalog_single_entry_json(capsys):
    code, out, _ = run(capsys, "catalog", "--name", "Eq8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["name"] == "Eq8"
    assert doc[0]["identity"] == "F(m + 1)*F(n) + F(m)*F(n - 1) == F(n + m)"


def test_bench_reports_digits_and_law(capsys):
    code, out, _ = run(capsys, "bench", "--n", "0", "1000")
    assert code == 0
    lines = out.strip().splitlines()
    assert "209" in lines[2] and "ok" in lines[2]
    assert code == 0


def test_bench_skips_naive_above_threshold(capsys):
    code, out, _ = run(capsys, "bench", "--n", "2000", "--naive-threshold", "1000")
    assert code == 0
    assert "skipped" in out


def test_bench_rejects_negative_index(capsys):
    code, _, err = run(capsys, "bench", "--n", "-3")
    assert code == 2


def test_decimal_digits_exact():
    assert decimal_digits(0) == 1
    assert decimal_digits(9) == 1
    assert decimal_digits(10) == 2
    assert decimal_digits(-10 ** 50) == 51
    assert decimal_digits(10 ** 50 - 1) == 50
    # the digit count changes at powers of ten; a bit length at powers of two
    edges = [10 ** k + d for k in range(1, 320) for d in (-1, 0, 1)]
    edges += [2 ** b + d for b in range(1, 1100) for d in (-1, 0, 1)]
    for x in edges:
        assert decimal_digits(x) == len(str(x)), x
        assert decimal_digits(-x) == len(str(x)), -x
