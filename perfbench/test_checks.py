"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest perfbench -q

They show that a wrong verdict, a wrong total and a mismatched failure
value are caught, that the model of Eq(1)-(4) holds where the paper says
it does, that the tracer's self times add up and survive a missing name, and
that the pace sampler takes samples only while it is on.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import pace  # noqa: E402
import spans  # noqa: E402

SEEDS = [(0, 1), (3, -2)]
BOX = {"n": (0, 2), "m": (-1, 1), "p": (-1, 1), "q": (-1, 1)}


def cli_json(argv: list[str]) -> list[dict]:
    from fibkit import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(argv)
    return json.loads(buf.getvalue())


def variant_reports(tmp_path: Path, variants, *extra: str) -> list[dict]:
    path = tmp_path / "variants.cat"
    path.write_text(checks.variant_catalog(variants), encoding="utf-8")
    argv = ["verify", "--all", "--file", str(path), "--format", "json", "--seeds",
            *(f"{g0},{g1}" for g0, g1 in SEEDS), *extra]
    for p, (lo, hi) in BOX.items():
        argv += [f"--{p}", f"{lo}..{hi}"]
    return cli_json(argv)


# --- the model ---------------------------------------------------------------

def test_model_holds_for_the_true_equations():
    for eq, (_, _, lhs, rhs) in checks.EQUATIONS.items():
        true = checks.Variant(eq, "", lhs, rhs)
        assert checks.model_failures(true, {"n": (0, 4), **{p: (-3, 3) for p in "mpq"}},
                                     SEEDS) == {}


def test_stepped_matches_known_values():
    fib = checks.stepped(0, 1, -10, 10)
    assert [fib[i] for i in range(-5, 8)] == [5, -3, 2, -1, 1, 0, 1, 1, 2, 3, 5, 8, 13]


# --- reports of the workloads ----------------------------------------------------

ENTRIES = [{"name": "A", "params": ["n", "m"], "rank_params": ["n"]},
           {"name": "B", "params": ["m", "p"], "rank_params": []}]


def good_reports(plan):
    return [{"identity": e.identity, "total": e.total, "failures": [],
             "grid": {"ranges": {p: list(r) for p, r in e.ranges.items()}}}
            for e in plan]


def test_verify_plan_sizes_from_ranges_and_defaults():
    plan = checks.verify_plan(ENTRIES, {"m": (-2, 2)}, SEEDS)
    assert [(e.identity, e.total) for e in plan] == [("A", 5 * 5 * 2), ("B", 5 * 17 * 2)]


def test_correct_reports_pass():
    plan = checks.verify_plan(ENTRIES, {"m": (-2, 2)}, SEEDS)
    assert checks.check_reports(good_reports(plan), plan) == (0, [])


def test_wrong_verdict_is_caught():
    plan = checks.verify_plan(ENTRIES, {"m": (-2, 2)}, SEEDS)
    reports = good_reports(plan)
    reports[1]["failures"] = [{"point": {"m": 0, "p": 0}}]
    failed, problems = checks.check_reports(reports, plan)
    assert failed == 1 and "verdict FAIL" in problems[0]


def test_wrong_total_is_caught():
    plan = checks.prove_plan(ENTRIES, ranks=(0, 1))
    reports = [{"identity": e.identity, "total": e.total, "failures": []} for e in plan]
    assert [e.total for e in plan] == [2, 2, 4]
    reports[0]["total"] = 4
    failed, problems = checks.check_reports(reports, plan)
    assert failed == 1 and "total 4 != 2" in problems[0]


def test_missing_report_is_a_failed_operation():
    plan = checks.verify_plan(ENTRIES, {}, SEEDS)
    assert checks.check_reports(good_reports(plan)[:1], plan)[0] == 1


# --- false variants through fibkit ------------------------------------------------

@pytest.fixture(scope="module")
def variants():
    return checks.make_variants(random.Random(7))


def test_variants_fail_with_the_models_points_and_values(tmp_path, variants):
    reports = variant_reports(tmp_path, variants)
    for v, r in zip(variants, reports):
        assert checks.check_variant_grid(r, v, BOX, SEEDS) == []


def test_oracle_and_workers_print_the_same_variant_json(tmp_path, variants):
    serial = variant_reports(tmp_path, variants)
    assert variant_reports(tmp_path, variants, "--oracle") == serial
    assert variant_reports(tmp_path, variants, "--workers", "2") == serial


def test_mismatched_failure_value_is_caught(tmp_path, variants):
    report = variant_reports(tmp_path, variants)[0]
    report["failures"][-1]["rhs"] = str(int(report["failures"][-1]["rhs"]) + 1)
    problems = checks.check_variant_grid(report, variants[0], BOX, SEEDS)
    assert problems and "the model" in problems[0]


def test_missing_failure_point_is_caught(tmp_path, variants):
    report = variant_reports(tmp_path, variants)[0]
    del report["failures"][0]
    assert checks.check_variant_grid(report, variants[0], BOX, SEEDS)


def test_pass_on_a_variant_is_caught(tmp_path, variants):
    report = variant_reports(tmp_path, variants)[0]
    report["failures"] = []
    assert "verdict PASS" in checks.check_variant_grid(report, variants[0], BOX, SEEDS)[0]


def test_variants_fail_every_proof(tmp_path, variants):
    path = tmp_path / "variants.cat"
    path.write_text(checks.variant_catalog(variants), encoding="utf-8")
    reports = cli_json(["prove", "--all", "--file", str(path), "--n", "0", "3",
                        "--format", "json"])
    assert checks.check_variant_proofs(reports, variants, (0, 3)) == []
    reports[0]["failures"] = []
    assert checks.check_variant_proofs(reports, variants, (0, 3))


# --- the tracer -----------------------------------------------------------------

def test_self_times_add_up_to_the_root():
    tracer = spans.Tracer()
    root = tracer.open("root")
    child = tracer.open("child")
    time.sleep(0.01)
    tracer.close(child)
    time.sleep(0.01)
    tracer.close(root)
    times = tracer.layer_times(0, len(tracer.start))
    total = tracer.end[root] - tracer.start[root]
    assert times["root"]["self"] + times["child"]["self"] == pytest.approx(total)
    assert times["root"]["incl"] == pytest.approx(total)


def test_install_uninstall_restores_and_reports_absent(monkeypatch):
    import fibkit.oracle
    import fibkit.verify
    original = fibkit.verify.compile_side
    monkeypatch.delattr(fibkit.oracle, "oracle_eval")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert fibkit.verify.compile_side is not original
        assert tracer.absent == ["fibkit.oracle.oracle_eval"]
    finally:
        tracer.uninstall()
    assert fibkit.verify.compile_side is original


def test_traced_pass_counts_layers(tmp_path, variants):
    tracer = spans.Tracer()
    tracer.install()
    try:
        variant_reports(tmp_path, variants, "--oracle")
    finally:
        tracer.uninstall()
    times = tracer.layer_times(0, len(tracer.start))
    checks_done = 3 * 27 * len(SEEDS) * len(variants)
    assert times["verify.grid"]["calls"] == len(variants)
    assert times["oracle.eval"]["calls"] == 2 * checks_done
    assert times["oracle.tables"]["calls"] == 2 * checks_done


def test_benchmark_json_matches_the_metrics_printed():
    import run
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_compiles_count_new_sides_only(tmp_path):
    # A side no other test uses: its first verify compiles both sides once,
    # a second verify of the same text compiles nothing.
    path = tmp_path / "fresh.cat"
    path.write_text("name: Fresh\nparams: m\npaper: Fresh\n"
                    "identity: F(m + 91) - F(m + 90) == F(m + 89)\n", encoding="utf-8")
    argv = ["verify", "--all", "--file", str(path), "--m", "-1..1", "--format", "json"]
    counted = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install()
        try:
            cli_json(argv)
        finally:
            tracer.uninstall()
        counted.append(tracer.counts["verify.compiles"])
    assert counted == [2, 0]
    times = tracer.layer_times(0, len(tracer.start))
    assert times["cli.args"]["calls"] == 2      # build_parser and parse_args
    assert times["cli.emit"]["calls"] == 1


def test_pace_sampler_samples_while_on_and_restores_the_handler():
    import signal
    before = signal.getsignal(signal.SIGALRM)
    with pace.Sampler() as sampler:
        end = time.perf_counter() + 6 * pace.INTERVAL_S
        while time.perf_counter() < end:
            pass
    count = len(sampler.paces)
    time.sleep(2 * pace.INTERVAL_S)
    assert count >= 3 and len(sampler.paces) == count
    assert all(p > 0 for p in sampler.paces) and sampler.overhead_s > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
