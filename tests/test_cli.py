"""CLI behavior: commands, exit codes, output formats, determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import fibkit
from fibkit import Seed, cli, gen, verify
from fibkit.catalog import MAX_CATALOG_BYTES
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
    # a 4,301-digit value against a 4,300-digit limit stands in for a value
    # just over the limit, which only its computed digit count refuses: the
    # proven bound for F(20000) is 4,178 digits; 4,300 is also Python's
    # default, so main's conversion limit leaves no trace
    monkeypatch.setattr(cli, "MAX_PRINT_DIGITS", 4300)
    monkeypatch.setattr(cli, "fib", lambda n: 10 ** 4300)
    code, out, err = run(capsys, "eval", "F", "20000")
    assert code == 2
    assert out == ""
    assert err == ("fibkit: error: F(20000) has 4,301 decimal digits, "
                   "over the 4,300-digit output limit\n")


def test_huge_index_is_refused_before_computing(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("a value was computed")

    for name in ("fib", "lucas", "gen", "fib_pair_doubling"):
        monkeypatch.setattr(cli, name, never)
    for argv, value, limit in [
        (("eval", "F", "1000000000000"), "F(1000000000000)", "2,000,000-digit output"),
        (("eval", "L", "-1000000000000"), "L(-1000000000000)", "2,000,000-digit output"),
        (("eval", "G", "1000000000000", "--seed", "3,7"), "G(1000000000000)",
         "2,000,000-digit output"),
        (("eval", "F", "10000000"), "F(10000000)", "2,000,000-digit output"),
        (("bench", "--n", "10", "1000000000000"), "F(1000000000000)",
         "1,000,000,000-digit bench"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"fibkit: error: {value} has more than ")
        assert err.endswith(f" decimal digits, over the {limit} limit\n")
    # the seed (0, 0) makes G vanish at every index
    assert run(capsys, "eval", "G", "1000000000000", "--seed", "0,0") == (0, "0\n", "")


def test_bench_times_a_value_too_long_to_print(capsys, monkeypatch):
    # bench prints F(n)'s digit count, never F(n), so the output limit does
    # not bound it; stand-ins keep the test from computing F(10^7), which
    # has 2,089,877 digits
    monkeypatch.setattr(cli, "fib_pair_doubling", lambda n: (1, 0))
    monkeypatch.setattr(cli, "decimal_digits", lambda x: 2089877)
    code, out, err = run(capsys, "bench", "--n", "10000000")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split()[:4] == ["10000000", "2089877", "2089877", "ok"]


@pytest.mark.parametrize("seed", [
    Seed(0, 1), Seed(2, 1), Seed(3, 7), Seed(-4, 5), Seed(1, 0), Seed(0, -1),
    Seed(1000, -618), Seed(-987, 610), Seed(10 ** 30, 7),
])
def test_digit_floor_is_below_the_digit_count(seed):
    # whatever the bound refuses could not have been printed
    floors = [cli._digits_floor(seed, n) for n in range(-500, 501)]
    for n, floor in zip(range(-500, 501), floors):
        assert floor < decimal_digits(gen(seed, n)), n
    assert floors[0] > 0 and floors[-1] > 0


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


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help", "verify"], ["eval", "-h"], ["verify", "-h"], ["prove", "--help"],
    ["catalog", "-h"], ["bench", "-h"], ["verify", "--id", "Eq1", "-h"],
    [], ["bogus"], ["bogus", "verify"], ["-x", "verify"], ["eval"], ["eval", "F"],
    ["eval", "X", "5"], ["verify", "--m"], ["verify", "--workers", "two"], ["bench"],
    ["prove", "--n", "x"], ["catalog", "--format", "csv"], ["verify", "--nope"],
    # errors that the top parser reports after a command name: its usage
    # line lists every command, though only the named one is registered
    ["verify", "--all", "extra"], ["prove", "--all", "extra"], ["catalog", "extra"],
])
def test_a_parser_filled_for_its_command_prints_the_full_parsers_bytes(capsys, argv):
    def exit_and_output(parse):
        with pytest.raises(SystemExit) as exc_info:
            parse(argv)
        captured = capsys.readouterr()
        return exc_info.value.code, captured.out, captured.err

    full = exit_and_output(cli.build_parser().parse_args)
    assert exit_and_output(main) == full
    assert exit_and_output(cli.build_parser(argv).parse_args) == full
    assert full[0] in (0, 2) and (full[1] or full[2])


def test_a_parser_for_one_command_fills_only_that_command():
    def filled(parser):
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        return {name: len(p._actions) > 1 for name, p in sub.choices.items()}

    commands = ["eval", "verify", "prove", "catalog", "bench"]
    assert filled(cli.build_parser(["verify", "--all"])) == {"verify": True}
    for argv in (None, ["-h"], ["bogus", "verify"]):
        assert filled(cli.build_parser(argv)) == dict.fromkeys(commands, True), argv


def test_a_parser_for_one_command_builds_two_parsers(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser(["verify", "--all", "--format", "json"])
    assert len(built) == 2
    built.clear()
    cli.build_parser()
    assert len(built) == 6


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


def test_verify_parses_each_grid_flag_once(capsys, monkeypatch):
    parsed = []
    for name in ("_parse_range", "_parse_seeds"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda arg, real=real, name=name:
                            parsed.append(name) or real(arg))
    code, out, _ = run(capsys, "verify", "--all", "--m", "-2..2", "--q", "0..1",
                       "--seeds", "0,1", "3,7", "--format", "json")
    assert code == 0 and len(json.loads(out)) == 29
    assert sorted(parsed) == ["_parse_range", "_parse_range", "_parse_seeds"]
    # a flag is parsed when the first identity that reads it needs it:
    # Eq8 reads no q, and Eq1 reads m before the seeds
    assert run(capsys, "verify", "--id", "Eq8", "--q", "x")[0] == 0
    for argv, message in [
        (["--all", "--seeds", "0,1", "3,x"], "bad seed '3,x', expected 'g0,g1'"),
        (["--all", "--m", "x", "--seeds", "3,x"],
         "bad range 'x', expected 'lo..hi' or a single integer"),
    ]:
        assert run(capsys, "verify", *argv) == (2, "", f"fibkit: error: {message}\n")


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


def test_verify_json_byte_identical_across_workers(capsys, monkeypatch, inline_pool):
    # every format, on six identities that fail; human output shows each
    # report's time, here held at 0
    monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    argv = ("verify", "--file", str(DATA / "eq_variants.cat"), "--n", "0..2",
            "--m", "-2..2", "--p", "-2..2", "--q", "-2..2")
    for fmt in ("json", "csv", "human"):
        serial = run(capsys, *argv, "--format", fmt, "--workers", "1")
        assert serial[0] == 1
        for workers in ("2", "3"):
            assert run(capsys, *argv, "--format", fmt, "--workers", workers) == serial
    assert inline_pool == [2, 3] * 3


def test_import_and_serial_verify_load_no_process_pool():
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(fibkit.__file__).parents[1])!r})\n"
        "import contextlib, io, fibkit\n"
        "def pools():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.split('.')[0] in ('multiprocessing', 'concurrent'))\n"
        "print(pools())\n"
        "from fibkit import cli\n"
        "fibkit.builtin_catalog()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', '--id', 'Eq8', '--m', '0..1', '--n', '0..1',\n"
        "                     '--workers', '2'])\n"
        "print(code, pools())\n"
    )
    done = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[]\n0 []\n"


def _modules_loaded(*argv):
    """The fibkit modules, and whether dataclasses, loaded by a bare interpreter
    after `import fibkit; fibkit.builtin_catalog()`, then after `fibkit *argv`."""
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(fibkit.__file__).parents[1])!r})\n"
        "import contextlib, io, fibkit\n"
        "def loaded():\n"
        "    return ' '.join(sorted(m for m in sys.modules\n"
        "                           if m == 'dataclasses' or m.startswith('fibkit.')))\n"
        "fibkit.builtin_catalog()\n"
        "print(loaded())\n"
        "from fibkit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(code, loaded())\n"
    )
    done = subprocess.run([sys.executable, "-I", "-S", "-c", script, *argv],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    setup, after = done.stdout.splitlines()
    code, *modules = after.split()
    assert code == "0"
    return set(setup.split()), set(modules)


def test_each_command_loads_only_the_modules_it_runs():
    setup, verify = _modules_loaded("verify", "--id", "Eq1")
    assert setup == {"fibkit.catalog", "fibkit.errors", "fibkit.expr", "fibkit.parser",
                     "fibkit.record", "fibkit.seq"}
    assert "fibkit.verify" in verify and not verify & {"fibkit.symbolic", "fibkit.zphi"}
    _, prove = _modules_loaded("prove", "--id", "Eq1", "--n", "1")
    assert "fibkit.symbolic" in prove and not prove & {"fibkit.oracle", "fibkit.verify"}
    assert "dataclasses" not in verify | prove


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


@pytest.mark.parametrize("kind,reason", [
    ("missing", "No such file or directory"),
    ("directory", "Is a directory"),
    ("latin1", "is not UTF-8 text"),
    ("oversized", "is over the 1,048,576-byte limit"),
])
def test_unreadable_catalog_file_exits_2(capsys, monkeypatch, tmp_path, kind, reason):
    path = tmp_path / f"{kind}.cat"
    if kind == "directory":
        path.mkdir()
    elif kind == "latin1":
        path.write_bytes(b"name: Caf\xe9\nparams: m\npaper: t\nidentity: F(m) == F(m)\n")
    elif kind == "oversized":
        path.write_bytes(b"#" * (MAX_CATALOG_BYTES + 1))
    expected = f"{path}{':' if kind in ('missing', 'directory') else ''}"
    for argv in (("verify", "--all", "--file", str(path)),
                 ("prove", "--all", "--file", str(path)),
                 ("catalog", "--file", str(path))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("fibkit: error: ") and err.count("\n") == 1
        assert expected in err and reason in err
    monkeypatch.setenv("FIBKIT_CATALOG", str(path))
    code, out, err = run(capsys, "verify", "--all")
    assert (code, out) == (2, "")
    assert expected in err and reason in err


@pytest.mark.parametrize("identity", [
    # far indices on an axis that binom keeps from being cut
    "F(100000*m) + binom(m, 2) == F(100000*m) + binom(m, 2)",
    "F(m + 300000)*F(m) == F(m)*F(m + 300000)",             # a wide window
], ids=["far", "wide"])
def test_out_of_memory_exits_2_without_a_traceback(tmp_path, run_fibkit, identity):
    # true identities whose tables outgrow the child's 600 MB address space
    path = tmp_path / "big.cat"
    path.write_text(f"name: big\nparams: m\npaper: t\nidentity: {identity}\n")
    code, out, err = run_fibkit("verify", "--file", str(path), "--m", "-8..8")
    assert (code, out, err) == (2, "", "fibkit: error: out of memory\n")


def test_far_indices_pass_on_the_box_nearest_zero(tmp_path, run_fibkit):
    # m's two values nearest 0 decide the grid: F(100000*m) is read at
    # m = -1 and 0 only, within the child's 600 MB address space
    path = tmp_path / "far.cat"
    path.write_text("name: far\nparams: m\npaper: t\nidentity: F(100000*m) == F(100000*m)\n")
    code, out, err = run_fibkit("verify", "--file", str(path), "--m", "-8..8",
                                "--format", "json")
    assert (code, err) == (0, "")
    assert [(r["failures"], r["total"]) for r in json.loads(out)] == [([], 68)]


def test_a_command_drops_a_far_table_before_it_builds_the_next(tmp_path, run_fibkit):
    # the first entry reads F over -100000..0, the second over 0..100000:
    # either table fits the child's 600 MB address space, both together do
    # not, so the second entry drops the command's table before its own
    stanzas = [f"name: {name}\nparams: m\npaper: t\nidentity: {text} == {text}\n"
               for name, text in (("far", "F(100000*m)"),
                                  ("shifted", "F(100000*m + 100000)"))]
    reports = []
    for i, text in enumerate(["\n".join(stanzas), *stanzas]):
        path = tmp_path / f"far{i}.cat"
        path.write_text(text)
        code, out, err = run_fibkit("verify", "--file", str(path), "--m", "-8..8",
                                    "--format", "json", timeout=10.0)
        assert (code, err) == (0, "")
        reports.append(json.loads(out))
    both, first, second = reports
    assert both == first + second
    assert [(r["identity"], r["failures"], r["total"]) for r in both] == [
        ("far", [], 68), ("shifted", [], 68)]


def test_a_serial_command_builds_one_f_table(capsys, monkeypatch, inline_pool):
    # the entries grow one table in place; each pool job makes its own
    built = []
    real = verify.table
    monkeypatch.setattr(verify, "table", lambda seed, lo, hi: built.append(seed)
                        or real(seed, lo, hi))
    code, serial, _ = run(capsys, "verify", "--all", "--format", "json")
    assert code == 0 and built == [Seed(0, 1)]
    built.clear()
    code, pooled, _ = run(capsys, "verify", "--all", "--workers", "2", "--format", "json")
    assert code == 0 and inline_pool == [2] and built == [Seed(0, 1)] * 29
    assert pooled == serial


def test_a_long_shift_line_reads_tables_only_at_its_start_pairs(run_fibkit):
    # p shifts: its lines read F around p = 0 and walk the rest, so the
    # length of p's range costs neither table nor time
    started = time.perf_counter()
    code, out, err = run_fibkit("verify", "--id", "Eq14", "--p", "-200000..200000",
                                "--m", "0..0", "--q", "0..0", "--format", "json")
    assert time.perf_counter() - started < 1.0
    assert (code, err) == (0, "")
    assert [(r["failures"], r["total"]) for r in json.loads(out)] == [([], 1_600_004)]


def test_an_error_far_from_0_on_a_long_axis_is_located_in_bounded_memory(run_fibkit, tmp_path):
    # the shift line's start pairs raise; the point-by-point search reads
    # F only at the points it reaches, not over the whole grid's window
    path = tmp_path / "far.cat"
    path.write_text("name: Far\nparams: m p\npaper: fixture\n"
                    "identity: F(p)*pow5floor(m - 1) == F(p)\n")
    started = time.perf_counter()
    code, out, err = run_fibkit("verify", "--file", str(path), "--m", "0..0",
                                "--p", "-200000..200000")
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (2, "")
    assert err == ("fibkit: error: pow5floor argument -1 is negative at point "
                   "(m=0, p=-200000), seed Seed(g0=0, g1=1)\n")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_endless_catalog_file_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--all", "--file", "/dev/zero")
    assert (code, out) == (2, "")
    assert err == ("fibkit: error: catalog file /dev/zero is over the "
                   "1,048,576-byte limit\n")


# sha256 of stdout. Both were taken from the sweep that evaluated every seed
# on its own table; the sweep's seed plans must print the same bytes.
GOLDEN_VERIFY_ALL = "ed0da41585cded8315344a8655002c422c64ff8e23391fe831895f6282f1e37e"
GOLDEN_EQ_VARIANTS = "e6efb829f2d3a585fb92913a1b93529a6e6ff820f1fd520cf8f8e4cea001c96f"


def test_verify_all_json_bytes_are_golden(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY_ALL


def test_eq_variants_json_bytes_are_golden(capsys):
    # false variants of Eq1..Eq4 (see the file) under a seed list with a
    # duplicate, the basis seed (1, 0) and the seed (0, 0)
    code, out, _ = run(capsys, "verify", "--file", str(DATA / "eq_variants.cat"),
                       "--format", "json", "--n", "0..2", "--m", "-2..2",
                       "--p", "-2..2", "--q", "-2..2",
                       "--seeds", "0,1", "2,1", "3,7", "-4,5", "0,0", "1,0", "3,7")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_EQ_VARIANTS


# sha256 of stdout, taken from the sweep that read each basis seed's G from
# a table of its own. With p fixed, Eq1..Eq4 have no shift parameter and
# take the two-pair basis plan; the catalog's other entries keep theirs.
GOLDEN_P_FIXED = "e81f3727627f9ed73fe13f4093be3db58f8110ee8c16397bd8878a084e3cf53f"


def test_two_pair_basis_json_bytes_are_golden(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--p", "1..1", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_P_FIXED


# sha256 of stdout, taken from the basis sweep that evaluated both basis
# seeds at every point; the shift plan must print the same bytes.
GOLDEN_ORACLE_BOX = "34bc7bbef0d69b6865f49e231d1dffa861f1ed40f3b98dada559197f35282cc5"


def test_oracle_box_json_bytes_are_golden(capsys):
    # the benchmark's oracle_sweep grid, on the default seeds
    code, out, _ = run(capsys, "verify", "--all", "--oracle", "--n", "0..4",
                       "--m", "-2..2", "--p", "-2..2", "--q", "-2..2", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ORACLE_BOX


# sha256 of stdout, taken from the prover that rebuilt each proof once per
# parity case; the one-pass prover with sign symbols must print the same bytes.
GOLDEN_PROVE_RANKS = "3070b287a5b143c9b9206dbaff835e7dc51595be7dd6fffc9a3161ea56fb7954"
GOLDEN_PROVE_EQ_VARIANTS = "df36a85f0bc233a0596b113f8ef683a3bb9ade0863655688cdf992e8d1e44427"
RANKS_0_TO_7 = [str(n) for n in range(8)]


def test_prove_ranks_json_bytes_are_golden(capsys):
    code, out, _ = run(capsys, "prove", "--all", "--n", *RANKS_0_TO_7, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_PROVE_RANKS


def test_prove_rank_ranges_print_the_listed_ranks_bytes(capsys):
    code, out, _ = run(capsys, "prove", "--all", "--n", "0..7", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_PROVE_RANKS
    # ranges and ints mix, in the order given
    listed = run(capsys, "prove", "--id", "Eq1", "--n", "3", "0", "1", "2", "1", "--format", "json")
    assert run(capsys, "prove", "--id", "Eq1", "--n", "3", "0..2", "1..1",
               "--format", "json") == listed


@pytest.mark.parametrize("token,message", [
    ("x", "argument --n: invalid int value: 'x'"),
    ("3..1", "argument --n: bad range '3..1': 3 > 1"),
    ("1..x", "argument --n: bad range '1..x', expected 'lo..hi' or a single integer"),
])
def test_prove_bad_rank_token_is_a_usage_error(capsys, token, message):
    with pytest.raises(SystemExit) as exc_info:
        main(["prove", "--all", "--n", token])
    assert exc_info.value.code == 2
    assert capsys.readouterr().err.endswith(f"fibkit prove: error: {message}\n")


def test_prove_negative_rank_in_a_range_exits_2(capsys):
    for ranks in (["-1"], ["-2..1"]):
        assert run(capsys, "prove", "--id", "Eq1", "--n", *ranks) == (
            2, "", "fibkit: error: rank parameter 'n' must be >= 0\n")


def test_prove_long_rank_range_is_read_as_the_prover_reaches_it(capsys, monkeypatch):
    reached = []

    def prove(identity, fixed=None):
        reached.append(fixed["n"])
        if fixed["n"] == 3:
            raise cli.FibkitError("too costly")
        return real(identity, fixed)

    real = cli.prove_symbolic
    monkeypatch.setattr(cli, "prove_symbolic", prove)
    assert run(capsys, "prove", "--id", "Eq1", "--n", f"0..{10 ** 12}") == (
        2, "", "fibkit: error: too costly\n")
    assert reached == [0, 1, 2, 3]


def test_prove_eq_variants_json_bytes_are_golden(capsys):
    # every variant fails some parity cases, with residual text, at every rank
    code, out, _ = run(capsys, "prove", "--all", "--file", str(DATA / "eq_variants.cat"),
                       "--n", *RANKS_0_TO_7, "--format", "json")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_PROVE_EQ_VARIANTS


# sha256 of stdout, taken from the prover whose terms were keyed by exponent
# tuples with GoldenInt numerators; at rank 32 its polynomials reach
# thousands of terms and exponents past 32.
GOLDEN_PROVE_RANK_32 = "e80da95f0554c9d580540bf3b91be24aefeaa32f2903888ccc104e4f7685d2c1"


def test_prove_rank_32_json_bytes_are_golden(capsys):
    code, out, _ = run(capsys, "prove", "--id", "Eq1", "Eq2", "Eq3", "Eq4", "--n", "32",
                       "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_PROVE_RANK_32


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


def test_prove_exponents_past_any_fixed_width(capsys, tmp_path):
    big = 10 ** 30
    path = tmp_path / "wide.cat"
    path.write_text(f"name: Wide\nparams: m\npaper: t\n"
                    f"identity: F({big}*m)*F(m) == F(m)*F({big}*m)\n")
    code, out, err = run(capsys, "prove", "--all", "--file", str(path))
    assert (code, err) == (0, "")
    assert out.startswith("PASS Wide [t]")
    # a false one fails with its exponents whole in the residual
    path.write_text(f"name: Wrong\nparams: m\npaper: t\n"
                    f"identity: F({big}*m) == F({big}*m + 2)\n")
    code, out, err = run(capsys, "prove", "--all", "--file", str(path))
    assert (code, err) == (1, "")
    assert f"lhs=[(-3+1φ)*X^-{big} + (-2-1φ)*X^{big}]/5 rhs=0" in out


def test_prove_non_affine_exits_2(capsys, tmp_path):
    twisted = tmp_path / "twisted.cat"
    twisted.write_text("name: Twisted\nparams: m p\npaper: t\n"
                       "identity: F(m*p) == F(m*p)\n")
    code, _, err = run(capsys, "prove", "--file", str(twisted))
    assert code == 2
    assert "affine" in err


@pytest.mark.parametrize("command", ["verify", "prove", "catalog"])
def test_parameter_declared_twice_exits_2(capsys, tmp_path, command):
    twice = tmp_path / "twice.cat"
    twice.write_text("# one parameter, declared twice\n"
                     "name: Twice\nparams: m m\npaper: t\n"
                     "identity: F(m + 1) == F(m) + F(m - 1)\n")
    code, out, err = run(capsys, command, "--file", str(twice))
    assert code == 2
    assert out == ""
    assert err == (f"fibkit: error: {twice}:2: in identity 'Twice': "
                   f"parameter 'm' is declared twice\n")


@pytest.mark.parametrize("command", ["verify", "prove"])
@pytest.mark.parametrize("constant,digits", [
    ("3^100000000", "47,712,126"),
    ("binom(100000000, 50000000)", "30,103,000"),
    ("pow5floor(2000000000)", "698,970,005"),
])
def test_huge_constant_exits_2_before_computing(capsys, tmp_path, command, constant,
                                                digits):
    huge = tmp_path / "huge.cat"
    huge.write_text("name: Huge\nparams: m\npaper: h\n"
                    f"identity: F(m)*{constant} == F(m)*{constant}\n")
    started = time.perf_counter()
    code, out, err = run(capsys, command, "--file", str(huge))
    assert time.perf_counter() - started < 5
    assert (code, out) == (2, "")
    assert err == (f"fibkit: error: {huge}:1: in identity 'Huge': constant {constant} "
                   f"has up to {digits} decimal digits, over the 2,000,000-digit limit\n")


@pytest.mark.parametrize("command", ["verify", "prove"])
def test_constants_within_the_digit_limit_still_run(capsys, tmp_path, command):
    fine = tmp_path / "fine.cat"
    # a base of -1 or 0 keeps any power small
    fine.write_text("name: Fine\nparams: m\npaper: f\n"
                    "identity: F(m)*2^1000 + sign(3)^100000000 + (3 - 3)^100000000 == "
                    "F(m)*2^1000 + 1\n")
    code, out, err = run(capsys, command, "--file", str(fine), "--format", "json")
    assert (code, err) == (0, "")
    assert all(report["failures"] == [] for report in json.loads(out))


class _ClosedStdout:
    """A stdout whose reader has gone, as after `| head -c 10`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
def test_closed_stdout_exits_141_quietly(capsys, monkeypatch, fmt):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    code = main(["verify", "--file", str(DATA / "eq_variants.cat"), "--m", "0..1",
                 "--format", fmt])
    assert code == 141
    assert capsys.readouterr().err == ""


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
