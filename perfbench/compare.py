"""Run sets of benchmark runs and compare them against BENCHMARK.json's bounds.

    python3 perfbench/compare.py run A --seeds 1-10          # a set of runs
    python3 perfbench/compare.py run B --seeds 11-20
    python3 perfbench/compare.py compare A B                  # B against A

A set runs every workload once per seed, seed by seed, with --trace 0 and
the run length from BENCHMARK.json, and is saved to perfbench/out/set-<label>.json.
For each workload and end-to-end metric it reports the median, the
quartiles (statistics.quantiles, n=4) and the spread: the distance between
the quartiles as a share of the median. `compare` checks that B's median is
not worse than A's by more than the bound, that each spread except
setup_s's is within the bound, that the share of failed operations is the
same in both sets, and that both sets hold every workload. setup_s's spread
is printed but not gated, only its median: single start-ups of about 60 ms
vary the most, and its median over many of them is what a later change is
held to (README.md, Steadiness).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(label: str, seeds: list[int], spec: dict) -> dict:
    path = OUT / f"set-{label}.json"
    workloads = [w["name"] for w in spec["workloads"]]
    results: dict[str, list] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            argv = [*spec["command"], "--workload", w, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            if done.returncode != 0:
                sys.exit(f"{w} seed {seed} exited {done.returncode}:\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["log"] = done.stdout.strip().splitlines()[:-1]
            results[w].append(result)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{label} {w} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
            OUT.mkdir(exist_ok=True)
            path.write_text(json.dumps(results, indent=1), encoding="utf-8")
    return results


def load_set(label: str) -> dict:
    return json.loads((OUT / f"set-{label}.json").read_text(encoding="utf-8"))


def summarize(label: str, results: dict, spec: dict) -> dict:
    """Median, quartiles and spread of each end-to-end metric per workload."""
    summary = {}
    for w, runs in results.items():
        row = {"failed_share": (sum(r["failed"] for r in runs),
                                sum(r["attempted"] for r in runs)),
               "correct": all(r["correct"] for r in runs)}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            row[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            note = ("" if m["name"] == "setup_s" or spread <= m["bound"] / 3 else
                    " above a third of the bound" if spread <= m["bound"] else
                    " ABOVE THE BOUND")
            print(f"{label} {w:15} {m['name']:13} n={len(values)} median={med:.5g} "
                  f"q1={q1:.5g} q3={q3:.5g} spread={spread:.3f} "
                  f"(bound {m['bound']}){note}")
        failed, attempted = row["failed_share"]
        print(f"{label} {w:15} correct={row['correct']} failed={failed}/{attempted}")
        summary[w] = row
    return summary


def compare(a: dict, b: dict, spec: dict) -> bool:
    ok = True
    names = [w["name"] for w in spec["workloads"]]
    for w in names:
        if w not in a or w not in b:
            print(f"{w}: missing from set {'A' if w not in a else 'B'}")
            ok = False
            continue
        fa, ta = a[w]["failed_share"]
        fb, tb = b[w]["failed_share"]
        if fa * tb != fb * ta:
            print(f"{w}: failed share differs: {fa}/{ta} against {fb}/{tb}")
            ok = False
        for m in spec["end_to_end"]:
            ma, mb = a[w][m["name"]]["median"], b[w][m["name"]]["median"]
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            spread_ok = m["name"] == "setup_s" or max(
                a[w][m["name"]]["spread"], b[w][m["name"]]["spread"]) <= m["bound"]
            verdict = "ok" if worse <= m["bound"] and spread_ok else "OUT OF BOUND"
            ok &= verdict == "ok"
            print(f"{w:15} {m['name']:13} {ma:.5g} -> {mb:.5g} "
                  f"worse by {worse:+.3f} (bound {m['bound']}) {verdict}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="run one set and summarize it")
    p_run.add_argument("label")
    p_run.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    p_cmp = sub.add_parser("compare", help="compare set B against set A")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    args = parser.parse_args()
    spec = load_spec()
    if args.cmd == "run":
        summarize(args.label, run_set(args.label, parse_seeds(args.seeds), spec), spec)
        return 0
    a = summarize(args.a, load_set(args.a), spec)
    b = summarize(args.b, load_set(args.b), spec)
    return 0 if compare(a, b, spec) else 1


if __name__ == "__main__":
    raise SystemExit(main())
