"""fibkit's benchmark: three workloads through the CLI entry point, end to end
and layer by layer.

    python3 perfbench/run.py --workload catalog_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Every pass calls fibkit.cli.main in this
process and has its JSON output checked; the last line printed is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones
(see README.md in this directory).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import pace  # noqa: E402
from spans import Tracer  # noqa: E402

STANDARD_SEEDS = ((0, 1), (2, 1), (3, 7), (-4, 5))
DEFAULT_BOX = {"m": (-8, 8), "p": (-8, 8), "q": (-8, 8)}
ORACLE_BOX = {"n": (0, 4), "m": (-2, 2), "p": (-2, 2), "q": (-2, 2)}
PROVE_RANKS = tuple(range(8))
FANOUT_WORKERS = 2

# False variants of Eq1..Eq4 run on this box, with two seeded G seeds.
VARIANT_BOX = {"n": (0, 2), "m": (-1, 1), "p": (-1, 1), "q": (-1, 1)}
VARIANT_RANKS = (0, 1, 2)

SETUP_SAMPLES = 21   # at least this many per run
SETUP_PER_PASS = 2
MIN_PASSES = 3

# Prints the import and catalog-load times and the pace of chunks run just
# before and after them (pace.py).
SETUP_SNIPPET = """\
import sys, time
sys.path.insert(0, sys.argv[2])
import pace
sys.path.insert(0, sys.argv[1])
def work():
    t0 = time.perf_counter()
    import fibkit
    t1 = time.perf_counter()
    fibkit.builtin_catalog()
    return t1 - t0, time.perf_counter() - t1
speed, (import_s, load_s) = pace.bracketed(work)
print(import_s, load_s, speed)
"""


def grid_flags(box: Mapping[str, tuple[int, int]], seeds) -> list[str]:
    flags = []
    for p, (lo, hi) in box.items():
        flags += [f"--{p}", f"{lo}..{hi}"]
    return flags + ["--seeds", *(f"{g0},{g1}" for g0, g1 in seeds)]


@dataclass(frozen=True)
class Workload:
    command: str                       # "verify" or "prove"
    box: Mapping[str, tuple[int, int]] = field(default_factory=dict)
    oracle: bool = False
    # Also run the command once with --workers FANOUT_WORKERS, untimed: it
    # must print the serial bytes, and in the traced run its pools are traced.
    fanout: bool = False

    def argv(self) -> list[str]:
        if self.command == "prove":
            return ["prove", "--all", "--n", *map(str, PROVE_RANKS), "--format", "json"]
        argv = ["verify", "--all", *grid_flags(self.box, STANDARD_SEEDS)]
        if self.oracle:
            argv.append("--oracle")
        return argv + ["--format", "json"]

    def plan(self, entries: list[Mapping]) -> list[checks.Expected]:
        if self.command == "prove":
            return checks.prove_plan(entries, PROVE_RANKS)
        return checks.verify_plan(entries, self.box, STANDARD_SEEDS)


WORKLOADS = {
    "catalog_sweep": Workload("verify", DEFAULT_BOX, fanout=True),
    "oracle_sweep": Workload("verify", ORACLE_BOX, oracle=True),
    "prove_ranks": Workload("prove"),
}

END_TO_END_UNITS = {"pass_s": "s", "checks_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "package.import_s": "s", "catalog.load_s": "s", "cli.self_s": "s",
    "verify.grid_s": "s", "verify.grid_calls": "count", "verify.eval_self_s": "s",
    "verify.compile_s": "s", "verify.compile_calls": "count",
    "seq.table_s": "s", "seq.table_calls": "count", "seq.table_entries": "count",
    "ranges.window_s": "s", "ranges.window_calls": "count",
    "verify.pool_starts": "count", "verify.pool_s": "s",
    "oracle.eval_s": "s", "oracle.eval_calls": "count", "oracle.tables_s": "s",
    "oracle.tables_built": "count", "oracle.tables_per_check": "ratio",
    "symbolic.prove_s": "s", "symbolic.prove_self_s": "s",
    "symbolic.prove_calls": "count", "symbolic.cases": "count",
    "symbolic.prove_max_s": "s",
    "zphi.laurent_mul_s": "s", "zphi.laurent_mul_calls": "count",
    "zphi.goldenrat_made": "count", "zphi.phi_pow_calls": "count",
    "trace.pass_s": "s", "trace.overhead_ratio": "ratio",
    "trace.unaccounted_share": "ratio",
}

# Taken from the cold first traced pass, which is the run's first use of the
# grid engine: compiled sides are cached after it.
COLD_METRICS = ("verify.compile_s", "verify.compile_calls", "seq.table_s",
                "seq.table_calls", "seq.table_entries")


class Outcome:
    """Operations attempted and failed, and problems with checked outputs."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.op_problems: list[str] = []
        self.check_problems: list[str] = []

    def ops(self, attempted: int, failed: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.op_problems += problems

    def check(self, problems: list[str]) -> None:
        self.check_problems += problems


class Bench:
    def __init__(self, name: str, seed: int, outcome: Outcome):
        from fibkit import cli
        self.cli = cli
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.outcome = outcome
        self.argv = self.workload.argv()
        self.entries = json.loads(self.call(["catalog", "--format", "json"])[2])
        self.plan = self.workload.plan(self.entries)
        self.checks_per_pass = sum(e.total for e in self.plan)
        self.reference: str | None = None

    def call(self, argv: list[str], tracer: Tracer | None = None,
             ) -> tuple[float, int, str]:
        """Time one fibkit.cli.main call with its stdout captured; under a
        tracer the call is the root span of the pass."""
        buf = io.StringIO()
        gc.collect()
        t0 = time.perf_counter()
        span = tracer.open("cli.main") if tracer is not None else None
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
        finally:
            if span is not None:
                tracer.close(span)
        return time.perf_counter() - t0, code, buf.getvalue()

    def run_pass(self, tracer: Tracer | None = None, extra: tuple[str, ...] = (),
                 ) -> float | None:
        """One checked pass over the workload, with `extra` flags added; its
        wall time, or None if it raised."""
        try:
            elapsed, code, out = self.call(self.argv + list(extra), tracer)
        except Exception as exc:  # a raising pass fails all its reports
            self.outcome.ops(len(self.plan), len(self.plan),
                             [f"pass raised {type(exc).__name__}: {exc}"])
            return None
        try:
            reports = json.loads(out)
        except ValueError:
            self.outcome.ops(len(self.plan), len(self.plan), ["output is not JSON"])
            return elapsed
        failed, problems = checks.check_reports(reports, self.plan)
        self.outcome.ops(len(self.plan), failed, problems)
        want_code = 0 if all(r.get("failures") == [] for r in reports) else 1
        if code != want_code:
            self.outcome.check([f"exit code {code}, reports say {want_code}"])
        self.compare(out, extra)
        return elapsed

    def compare(self, out: str, extra: tuple[str, ...]) -> None:
        """Every pass prints the same bytes; the first output is the reference."""
        if self.reference is None:
            self.reference = out
        elif out != self.reference:
            under = f" under {' '.join(extra)}" if extra else ""
            self.outcome.check([f"JSON output{under} differs from the first pass"])

    def fanout_pass(self, tracer: Tracer | None) -> dict[str, float]:
        """On a fanout workload, one untimed pass with --workers: it must print
        exactly what the serial passes printed. Under a tracer it is traced,
        and gives the pool metrics; they read 0 on the other workloads."""
        pool = {"verify.pool_starts": 0, "verify.pool_s": 0}
        if not self.workload.fanout:
            return pool
        extra = ("--workers", str(FANOUT_WORKERS))
        if tracer is None:
            self.run_pass(extra=extra)
            return pool
        traced = self._traced_pass(tracer, extra)
        return {k: traced[k] for k in pool} if traced is not None else pool

    def check_variants(self) -> None:
        """False variants of Eq1..Eq4 must FAIL under verify, verify --oracle
        (and verify --workers on a fanout workload) and prove, at the points
        and with the side values of the benchmark's own model."""
        rng = random.Random(self.seed)
        variants = checks.make_variants(rng)
        pool = [(g0, g1) for g0 in range(-5, 6) for g1 in range(-5, 6)
                if (g0, g1) != (0, 0)]
        seeds = rng.sample(pool, 2)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"variants-{self.name}-{self.seed}.cat"
        path.write_text(checks.variant_catalog(variants), encoding="utf-8")

        base = ["verify", "--all", "--file", str(path), *grid_flags(VARIANT_BOX, seeds),
                "--format", "json"]
        extras = [[], ["--oracle"]]
        if self.workload.fanout:
            extras.append(["--workers", str(FANOUT_WORKERS)])
        outputs = set()
        for extra in extras:
            out, reports = self._variant_call(" ".join(["verify", *extra]), base + extra,
                                              len(variants))
            outputs.add(out)
            for v, r in zip(variants, reports):
                self.outcome.check(checks.check_variant_grid(r, v, VARIANT_BOX, seeds))
        if len(outputs) > 1:
            self.outcome.check(["variant JSON differs between verify, --oracle "
                                "and --workers"])

        argv = ["prove", "--all", "--file", str(path), "--n",
                *map(str, VARIANT_RANKS), "--format", "json"]
        reports = self._variant_call("prove", argv, len(variants) * len(VARIANT_RANKS))[1]
        if reports:
            self.outcome.check(checks.check_variant_proofs(reports, variants,
                                                           VARIANT_RANKS))

    def _variant_call(self, label: str, argv: list[str], count: int,
                      ) -> tuple[str, list]:
        """Run a command over the variants; it must exit 1 with `count` reports."""
        try:
            code, out = self.call(argv)[1:]
            reports = json.loads(out)
        except Exception as exc:
            self.outcome.check([f"variants, {label}: {type(exc).__name__}: {exc}"])
            return "", []
        if code != 1 or len(reports) != count:
            self.outcome.check([f"variants, {label}: exit code {code}, "
                                f"{len(reports)} reports"])
            return out, []
        return out, reports

    # -- the two kinds of run ------------------------------------------------

    def timed(self, seconds: float, between: Callable[[], None]) -> dict[str, float]:
        """Each timed pass runs under a pace sampler. Its time is its wall time
        without the sampler's, times the mean pace of the pass's samples:
        the pass's time at the reference speed (pace.py)."""
        deadline = time.perf_counter() + seconds
        self.run_pass()                      # warm-up: compiled sides, imports
        walls, paces, times = [], [], []
        while len(times) < MIN_PASSES or time.perf_counter() < deadline:
            between()
            with pace.Sampler() as sampler:
                elapsed = self.run_pass()
            if elapsed is None:
                continue
            if not sampler.paces:            # a pass shorter than the interval
                sampler.paces.append(pace.chunk())
            walls.append(elapsed)
            paces.append(statistics.fmean(sampler.paces))
            times.append((elapsed - sampler.overhead_s) * paces[-1])
        if not times:
            raise RuntimeError("no pass completed")
        pass_s = statistics.median(times)
        print(f"passes: {len(times)}")
        for label, values in (("wall s", walls), ("pace", paces), ("at pace 1, s", times)):
            print(f"  {label}: " + " ".join(f"{v:.3f}" for v in values))
        return {"pass_s": pass_s, "checks_per_s": self.checks_per_pass / pass_s}

    def traced(self, seconds: float, between: Callable[[], None],
               ) -> tuple[dict[str, float], Tracer, float]:
        tracer = Tracer()
        origin = deadline = time.perf_counter()
        deadline += seconds
        cold = self._traced_pass(tracer)
        plain, warm = [], []
        while len(warm) < MIN_PASSES or time.perf_counter() < deadline:
            between()
            elapsed = self.run_pass()
            if elapsed is not None:
                plain.append(elapsed)
            warm.append(self._traced_pass(tracer))
        warm = [w for w in warm if w is not None]
        if cold is None or not warm or not plain:
            raise RuntimeError("no traced or untraced pass completed")
        warm_median = {k: statistics.median(w[k] for w in warm) for k in warm[0]}
        metrics = {**warm_median, **{k: cold[k] for k in COLD_METRICS}}
        metrics["trace.overhead_ratio"] = metrics["trace.pass_s"] / statistics.median(plain)
        shares = {k: warm_median[k] / metrics["trace.pass_s"] for k in SELF_TIMES}
        print("self-time shares of the traced pass: " + " ".join(
            f"{k}={v:.4f}" for k, v in shares.items() if v >= 0.00005)
            + f" (sum {sum(shares.values()):.4f}, warm medians); of cli.self_s, in no named step: "
            f"trace.unaccounted_share={metrics['trace.unaccounted_share']:.5f}")
        return metrics, tracer, origin

    def _traced_pass(self, tracer: Tracer, extra: tuple[str, ...] = (),
                     ) -> dict[str, float] | None:
        first = len(tracer.start)
        counts = dict(tracer.counts)
        tracer.install()
        try:
            elapsed = self.run_pass(tracer, extra)
        finally:
            tracer.uninstall()
        if elapsed is None:
            return None
        delta = {k: v - counts.get(k, 0) for k, v in tracer.counts.items()}
        return layer_metrics(tracer.layer_times(first, len(tracer.start)), delta,
                             elapsed, self.checks_per_pass if self.workload.oracle else 0)


# Self times that add up to the traced pass; trace.unaccounted_share is the
# part of cli.self_s that falls in none of main's named steps.
SELF_TIMES = ("cli.self_s", "verify.eval_self_s", "verify.compile_s", "seq.table_s",
              "ranges.window_s", "oracle.eval_s", "oracle.tables_s",
              "symbolic.prove_self_s", "zphi.laurent_mul_s")


def layer_metrics(times: dict[str, dict[str, float]], counts: Mapping[str, int],
                  elapsed: float, oracle_checks: int) -> dict[str, float]:
    def get(span: str, key: str) -> float:
        return times.get(span, {}).get(key, 0)

    tables = get("oracle.tables", "calls")
    return {
        # main outside verify_grid and prove_symbolic: its named steps
        # (cli.args, cli.select, cli.emit) and the root's own self time.
        "cli.self_s": (get("cli.main", "incl") - get("verify.grid", "incl")
                       - get("symbolic.prove", "incl")),
        "verify.grid_s": get("verify.grid", "incl"),
        "verify.grid_calls": get("verify.grid", "calls"),
        "verify.eval_self_s": get("verify.grid", "self"),
        "verify.compile_s": get("verify.compile", "self"),
        "verify.compile_calls": counts.get("verify.compiles", 0),
        "seq.table_s": get("seq.table", "self"),
        "seq.table_calls": get("seq.table", "calls"),
        "seq.table_entries": counts.get("seq.table_entries", 0),
        "ranges.window_s": get("ranges.window", "self"),
        "ranges.window_calls": get("ranges.window", "calls"),
        "verify.pool_starts": get("verify.pool", "calls"),
        "verify.pool_s": get("verify.pool", "self"),
        "oracle.eval_s": get("oracle.eval", "self"),
        "oracle.eval_calls": get("oracle.eval", "calls"),
        "oracle.tables_s": get("oracle.tables", "self"),
        "oracle.tables_built": tables,
        "oracle.tables_per_check": tables / oracle_checks if oracle_checks else 0,
        "symbolic.prove_s": get("symbolic.prove", "incl"),
        "symbolic.prove_self_s": get("symbolic.prove", "self"),
        "symbolic.prove_calls": get("symbolic.prove", "calls"),
        "symbolic.cases": counts.get("symbolic.cases", 0),
        "symbolic.prove_max_s": get("symbolic.prove", "max"),
        "zphi.laurent_mul_s": get("zphi.laurent_mul", "self"),
        "zphi.laurent_mul_calls": get("zphi.laurent_mul", "calls"),
        "zphi.goldenrat_made": counts.get("zphi.goldenrat_made", 0),
        "zphi.phi_pow_calls": counts.get("zphi.phi_pow_calls", 0),
        "trace.pass_s": elapsed,
        "trace.unaccounted_share": get("cli.main", "self") / elapsed,
    }


class Setup:
    """Import and catalog-load times, each from a fresh interpreter, at the
    reference speed: each is multiplied by the pace of chunks run in the same
    interpreter just before and after it. Samples are taken between passes,
    so that they spread over the whole run."""

    def __init__(self) -> None:
        self.imports: list[float] = []
        self.loads: list[float] = []

    def sample(self, count: int = SETUP_PER_PASS) -> None:
        for _ in range(count):
            done = subprocess.run(
                [sys.executable, "-I", "-c", SETUP_SNIPPET, str(SRC), str(HERE)],
                cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
            import_s, load_s, speed = map(float, done.stdout.split())
            self.imports.append(import_s * speed)
            self.loads.append(load_s * speed)

    def totals(self) -> list[float]:
        self.sample(max(0, SETUP_SAMPLES - len(self.imports)))
        print(f"setup: {len(self.imports)}  " + " ".join(
            f"{i + l:.4f}" for i, l in zip(self.imports, self.loads)))
        return [i + l for i, l in zip(self.imports, self.loads)]


def peak_rss_mb() -> float:
    """Peak RSS of this process, which does the measured passes alone.
    Children (the set-up interpreters, the fan-out pass's pool workers) are
    left out, and so is RUSAGE_CHILDREN, because a process started through a
    launcher inherits the launcher's children's peaks there. ru_maxrss is in
    KiB on Linux."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "fibkit" / "__init__.py").is_file():
        print(f"perfbench: no fibkit sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    outcome = Outcome()
    bench = Bench(args.workload, args.seed, outcome)
    metrics: dict[str, Any]
    setup = Setup()
    if args.trace:
        metrics, tracer, origin = bench.traced(args.seconds, setup.sample)
        setup.totals()
        metrics["package.import_s"] = statistics.median(setup.imports)
        metrics["catalog.load_s"] = statistics.median(setup.loads)
        units = PER_LAYER_UNITS
    else:
        metrics = bench.timed(args.seconds, setup.sample)
        metrics["setup_s"] = statistics.median(setup.totals())
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = END_TO_END_UNITS
    # After the measured passes, so that the variants (which share sides with
    # Eq1..Eq4) warm no cache before the cold traced pass.
    pool = bench.fanout_pass(tracer if args.trace else None)
    if args.trace:
        metrics.update(pool)
    bench.check_variants()
    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz"), origin)
        if tracer.absent:
            print("absent (reported as 0): " + " ".join(tracer.absent))

    for problem in (outcome.op_problems + outcome.check_problems)[:20]:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not outcome.check_problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
