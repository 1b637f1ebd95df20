"""Command-line interface: eval, verify, prove, catalog, bench.

Exit codes are a stable contract for CI: 0 on success, 1 when a
verification or proof fails (the report is still emitted), 2 on usage
errors (bad flags, unknown selectors, malformed grids). JSON and CSV
output are byte-identical across runs and worker counts; pass --timing
to include wall-clock times in JSON at the cost of that stability.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import time
from typing import Sequence

from .catalog import Catalog, Identity, builtin_catalog, load_catalog_file
from .errors import FibkitError, InternalFault
from .seq import Seed, fib, fib_naive, fib_pair_doubling, gen, lucas
from .symbolic import prove_symbolic
from .verify import STANDARD_SEEDS, GridSpec, VerifyReport, verify_grid

CATALOG_ENV = "FIBKIT_CATALOG"

DEFAULT_RANK_RANGE = (0, 4)
DEFAULT_PARAM_RANGE = (-8, 8)
DEFAULT_PROVE_RANKS = (1, 2, 3, 4)

# Longest integer, in decimal digits, that the CLI converts to text.
MAX_PRINT_DIGITS = 2_000_000

_GRID_FLAGS = ("n", "m", "p", "q")
_RANGE_RE = re.compile(r"^(-?\d+)(?:\.\.(-?\d+))?$")


def _parse_range(text: str) -> tuple[int, int]:
    match = _RANGE_RE.match(text)
    if not match:
        raise FibkitError(f"bad range '{text}', expected 'lo..hi' or a single integer")
    lo = int(match.group(1))
    hi = int(match.group(2)) if match.group(2) is not None else lo
    if lo > hi:
        raise FibkitError(f"bad range '{text}': {lo} > {hi}")
    return lo, hi


def _parse_seed(text: str) -> Seed:
    parts = text.split(",")
    if len(parts) != 2:
        raise FibkitError(f"bad seed '{text}', expected 'g0,g1'")
    try:
        return Seed(int(parts[0]), int(parts[1]))
    except ValueError:
        raise FibkitError(f"bad seed '{text}', expected 'g0,g1'") from None


def _parse_seeds(tokens: Sequence[str]) -> tuple[Seed, ...]:
    seeds = []
    for token in tokens:
        for piece in re.split(r"[;\s]+", token.strip()):
            if piece:
                seeds.append(_parse_seed(piece))
    if not seeds:
        raise FibkitError("no seeds given")
    return tuple(seeds)


def decimal_digits(x: int) -> int:
    """Exact decimal digit count without converting x to a string."""
    if x == 0:
        return 1
    x = abs(x)
    d = max(1, int(x.bit_length() * 0.30102999566398))
    while 10 ** d <= x:
        d += 1
    while d > 1 and 10 ** (d - 1) > x:
        d -= 1
    return d


# --- catalog resolution ------------------------------------------------------

def _resolve_catalog(args: argparse.Namespace) -> Catalog:
    path = getattr(args, "file", None) or os.environ.get(CATALOG_ENV)
    if path:
        return load_catalog_file(path)
    return builtin_catalog()


def _select_entries(catalog: Catalog, args: argparse.Namespace) -> list[Identity]:
    if getattr(args, "all", False) or (not args.id and getattr(args, "file", None)):
        return list(catalog)
    if not args.id:
        raise FibkitError("select identities with --id, --all, or --file")
    entries: list[Identity] = []
    for selector in args.id:
        hits = catalog.lookup(selector)
        if not hits:
            raise FibkitError(f"no identity matches selector '{selector}'")
        entries.extend(hits)
    return entries


def _grid_for(identity: Identity, args: argparse.Namespace) -> GridSpec:
    ranges = {}
    rank = set(identity.rank_params)
    for p in identity.free_params:
        given = getattr(args, f"range_{p}", None) if p in _GRID_FLAGS else None
        if given is not None:
            ranges[p] = _parse_range(given)
        else:
            ranges[p] = DEFAULT_RANK_RANGE if p in rank else DEFAULT_PARAM_RANGE
    seeds = _parse_seeds(args.seeds) if args.seeds else STANDARD_SEEDS
    return GridSpec(ranges=ranges, seeds=seeds)


# --- output ------------------------------------------------------------------

_HUMAN_FAILURE_LIMIT = 10


def _emit_reports(reports: list[VerifyReport], fmt: str, timing: bool) -> None:
    if fmt == "json":
        payload = [r.to_json_dict(include_timing=timing) for r in reports]
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        return
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["identity", "point", "seed", "lhs", "rhs", "status"])
        for r in reports:
            writer.writerow([r.identity, "", "", "", "", r.status])
            for f in r.failures:
                point = ";".join(f"{k}={v}" for k, v in f.point)
                seed = f"{f.seed.g0},{f.seed.g1}" if f.seed is not None else ""
                writer.writerow([r.identity, point, seed, str(f.lhs), str(f.rhs),
                                 "FAIL"])
        sys.stdout.write(buf.getvalue())
        return
    for r in reports:
        extra = ""
        if r.mode == "symbolic":
            fixed = r.grid.get("fixed") or {}
            if fixed:
                extra = " fixed " + ",".join(f"{k}={v}" for k, v in fixed.items())
        print(f"{r.status} {r.identity} [{r.paper_tag}] mode={r.mode}{extra} "
              f"checks={r.total} failures={len(r.failures)} "
              f"({r.elapsed_ms:.1f} ms)")
        for f in r.failures[:_HUMAN_FAILURE_LIMIT]:
            point = ", ".join(f"{k}={v}" for k, v in f.point)
            seed = f" seed=({f.seed.g0},{f.seed.g1})" if f.seed is not None else ""
            diff = f" diff={f.diff}" if f.diff is not None else ""
            print(f"  at {point}{seed}: lhs={f.lhs} rhs={f.rhs}{diff}")
        if len(r.failures) > _HUMAN_FAILURE_LIMIT:
            print(f"  ... and {len(r.failures) - _HUMAN_FAILURE_LIMIT} more failures")


# --- subcommands --------------------------------------------------------------

def _cmd_eval(args: argparse.Namespace) -> int:
    if args.seq == "G":
        if args.seed is None:
            raise FibkitError("eval G requires --seed g0,g1")
        value = gen(_parse_seed(args.seed), args.index)
    elif args.seed is not None:
        raise FibkitError(f"--seed only applies to G, not {args.seq}")
    elif args.seq == "F":
        value = fib(args.index)
    else:
        value = lucas(args.index)
    digits = decimal_digits(value)
    if digits > MAX_PRINT_DIGITS:
        raise FibkitError(f"{args.seq}({args.index}) has {digits:,} decimal digits, "
                          f"over the {MAX_PRINT_DIGITS:,}-digit output limit")
    print(value)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise FibkitError(f"--workers must be at least 1, got {args.workers}")
    catalog = _resolve_catalog(args)
    entries = _select_entries(catalog, args)
    reports = [
        verify_grid(e, _grid_for(e, args), workers=args.workers,
                    use_oracle=args.oracle)
        for e in entries
    ]
    _emit_reports(reports, args.format, args.timing)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_prove(args: argparse.Namespace) -> int:
    catalog = _resolve_catalog(args)
    entries = _select_entries(catalog, args)
    ranks = tuple(args.n) if args.n else DEFAULT_PROVE_RANKS
    reports = []
    for e in entries:
        if e.is_rank_parametric:
            rank_param = e.rank_params[0]
            for value in ranks:
                reports.append(prove_symbolic(e, {rank_param: value}))
        else:
            reports.append(prove_symbolic(e))
    _emit_reports(reports, args.format, args.timing)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_catalog(args: argparse.Namespace) -> int:
    catalog = _resolve_catalog(args)
    entries = [catalog.get(args.name)] if args.name else list(catalog)
    if args.format == "json":
        payload = [
            {"name": e.name, "paper_tag": e.paper_tag,
             "params": list(e.free_params),
             "rank_params": list(e.rank_params), "identity": e.text}
            for e in entries
        ]
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        return 0
    for e in entries:
        rank = f" rank({','.join(e.rank_params)})" if e.is_rank_parametric else ""
        print(f"{e.name} [{e.paper_tag}] params({','.join(e.free_params)}){rank}")
        print(f"  {e.text}")
    return 0


_PHI_LOG10 = math.log10((1 + math.sqrt(5)) / 2)


def _cmd_bench(args: argparse.Namespace) -> int:
    for n in args.n:
        if n < 0:
            raise FibkitError(f"bench needs n >= 0, got {n}")
    print(f"{'n':>10}  {'digits':>8}  {'law':>8}  {'doubling':>12}  {'naive':>12}")
    for n in args.n:
        t0 = time.perf_counter()
        value = fib_pair_doubling(n)[0]
        fast_ms = (time.perf_counter() - t0) * 1000.0
        digits = decimal_digits(value)
        law = math.floor(n * _PHI_LOG10) + 1 if n > 0 else 1
        law_mark = "ok" if abs(digits - law) <= 1 else "MISMATCH"
        if n <= args.naive_threshold:
            t0 = time.perf_counter()
            naive_value = fib_naive(n)
            naive_ms = (time.perf_counter() - t0) * 1000.0
            if naive_value != value:
                raise InternalFault(f"naive and doubling disagree at n={n}")
            naive_cell = f"{naive_ms:10.2f}ms"
        else:
            naive_cell = "skipped"
        print(f"{n:>10}  {digits:>8}  {law} {law_mark:>2}  {fast_ms:10.2f}ms  "
              f"{naive_cell:>12}")
    return 0


# --- parser ------------------------------------------------------------------

class _SubParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE


# Tokens like "-4..4" and "-4,5" are values, not flags; argparse only
# recognizes plain negative integers by default.
_NEGATIVE_VALUE = re.compile(r"^-\d+(\.\.-?\d+|,-?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibkit",
        description="Exact Fibonacci/Lucas/generalized identity toolkit",
    )
    parser._negative_number_matcher = _NEGATIVE_VALUE
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubParser)

    p_eval = sub.add_parser("eval", help="print F(n), L(n), or G(n) exactly")
    p_eval.add_argument("seq", choices=("F", "L", "G"))
    p_eval.add_argument("index", type=int)
    p_eval.add_argument("--seed", help="seed 'g0,g1' (required for G)")
    p_eval.set_defaults(func=_cmd_eval)

    def add_selection(p: argparse.ArgumentParser) -> None:
        p.add_argument("--id", nargs="+", metavar="SELECTOR",
                       help="identity names or paper tags")
        p.add_argument("--all", action="store_true", help="select every entry")
        p.add_argument("--file", help="catalog file instead of the built-in one")

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("human", "json", "csv"),
                       default="human")
        p.add_argument("--timing", action="store_true",
                       help="include wall time in JSON output")

    p_verify = sub.add_parser("verify", help="check identities on a grid")
    add_selection(p_verify)
    for flag in _GRID_FLAGS:
        p_verify.add_argument(f"--{flag}", dest=f"range_{flag}", metavar="LO..HI",
                              help=f"range for parameter {flag}")
    p_verify.add_argument("--seeds", nargs="+", metavar="G0,G1",
                          help="seeds for G (semicolon-separated pairs also work)")
    p_verify.add_argument("--workers", type=int, default=1)
    p_verify.add_argument("--oracle", action="store_true",
                          help="double-check every point with the brute-force oracle")
    add_output(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_prove = sub.add_parser("prove", help="symbolic proof over all integers")
    add_selection(p_prove)
    p_prove.add_argument("--n", nargs="+", type=int, metavar="N",
                         help="rank values for sum-bounded identities "
                              "(default 1 2 3 4)")
    add_output(p_prove)
    p_prove.set_defaults(func=_cmd_prove)

    p_cat = sub.add_parser("catalog", help="inspect catalog entries")
    p_cat.add_argument("--name", help="show one entry")
    p_cat.add_argument("--file", help="catalog file instead of the built-in one")
    p_cat.add_argument("--format", choices=("human", "json"), default="human")
    p_cat.set_defaults(func=_cmd_catalog)

    p_bench = sub.add_parser("bench", help="time fast doubling vs naive iteration")
    p_bench.add_argument("--n", nargs="+", type=int, required=True)
    p_bench.add_argument("--naive-threshold", type=int, default=100_000,
                         help="skip naive iteration above this index")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(MAX_PRINT_DIGITS)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalFault:
        raise
    except FibkitError as exc:
        print(f"fibkit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
