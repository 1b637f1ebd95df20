"""Command-line interface: eval, verify, prove, catalog, bench.

Exit codes are a stable contract for CI: 0 on success, 1 when a
verification or proof fails (the report is still emitted), 2 on usage
errors (bad flags, unknown selectors, malformed grids), 141 (128 +
SIGPIPE) when stdout is closed before the output is written. JSON and CSV
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
from contextlib import suppress
from typing import TYPE_CHECKING, Mapping, Sequence

from .catalog import Catalog, Identity, builtin_catalog, load_catalog_file
from .errors import FibkitError, InternalFault
from .parser import MAX_DIGITS, _LOG10_PHI
from .seq import (
    FIB_SEED, LUCAS_SEED, Seed, fib, fib_naive, fib_pair_doubling, gen, lucas,
)

if TYPE_CHECKING:
    from .report import VerifyReport
    from .verify import GridSpec, _State

CATALOG_ENV = "FIBKIT_CATALOG"

DEFAULT_RANK_RANGE = (0, 4)
DEFAULT_PARAM_RANGE = (-8, 8)
DEFAULT_PROVE_RANKS = (1, 2, 3, 4)

# Longest integer, in decimal digits, that the CLI converts to text.
MAX_PRINT_DIGITS = MAX_DIGITS

# Largest F(n), in decimal digits, that bench computes. It never prints the
# value, but past this the value alone takes over 400 MB, and the doubling
# would run for hours.
MAX_BENCH_DIGITS = 1_000_000_000

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


# log10(2) lies strictly between these two fractions.
_LOG10_2_LOW = 30102999566398119521373889472449
_LOG10_2_HIGH = _LOG10_2_LOW + 1
_LOG10_2_DEN = 10 ** 32


def decimal_digits(x: int) -> int:
    """Exact decimal digit count without converting x to a string.

    A b-bit x has floor(log10 x) between floor((b - 1) log10 2) and
    floor(b log10 2), two integers at most one apart; one power of ten
    decides between them.
    """
    x = abs(x)
    if x < 10:
        return 1
    bits = x.bit_length()
    low = (bits - 1) * _LOG10_2_LOW // _LOG10_2_DEN
    high = bits * _LOG10_2_HIGH // _LOG10_2_DEN
    if low == high or x < 10 ** high:
        return low + 1
    return high + 1


# log10(phi), phi the golden ratio, lies above this fraction.
_LOG10_PHI_LOW = 20898764024997873
_LOG10_PHI_DEN = 10 ** 17


def _digits_floor(seed: Seed, n: int) -> int:
    """A count that the decimal digits of G(n) for seed, not (0, 0), are
    proven to exceed, found without computing G(n).

    G(n) = A phi^n + B psi^n, where sqrt(5) A = g1 - g0 psi and
    sqrt(5) B = g0 phi - g1. The product of those two is the nonzero
    integer g0 g1 + g0^2 - g1^2, so, with M = |g1| + 2|g0|, both |A| and
    |B| lie between 1 / (sqrt(5) M) and M / sqrt(5). Once phi^|n| >= 2 M^2,
    |G(n)| >= phi^|n| / (2 sqrt(5) M) > 10^(|n| log10(phi) - e), where e
    is the digit count of 5 M; below that, the bound is 0.
    """
    e = decimal_digits(5 * (abs(seed.g1) + 2 * abs(seed.g0)))
    x = abs(n) * _LOG10_PHI_LOW // _LOG10_PHI_DEN
    return x - e if x > 2 * e else 0


def _check_digits(name: str, seed: Seed, n: int, limit: int, what: str) -> None:
    """Refuse G(n) for seed, named name(n), when it is proven to have more
    than limit decimal digits."""
    floor = _digits_floor(seed, n)
    if floor >= limit:
        raise FibkitError(f"{name}({n}) has more than {floor:,} decimal digits, "
                          f"over the {limit:,}-digit {what}")


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


def _grid_for(identity: Identity, args: argparse.Namespace, parsed: dict | None = None,
              ) -> GridSpec:
    """identity's grid from the flags. parsed, one verify command's, keeps
    each flag's value, by flag, once it is parsed, so that the command
    parses each flag once and only when an identity reads it, and each
    GridSpec, by (free params, rank params), so that entries with the same
    parameters share one spec and one seeds tuple."""
    if parsed is None:
        parsed = {}
    key = (identity.free_params, identity.rank_params)
    spec = parsed.get(key)
    if spec is not None:
        return spec
    from .verify import STANDARD_SEEDS, GridSpec

    ranges = {}
    rank = set(identity.rank_params)
    for p in identity.free_params:
        given = getattr(args, f"range_{p}", None) if p in _GRID_FLAGS else None
        if given is None:
            ranges[p] = DEFAULT_RANK_RANGE if p in rank else DEFAULT_PARAM_RANGE
        else:
            if p not in parsed:
                parsed[p] = _parse_range(given)
            ranges[p] = parsed[p]
    if "seeds" not in parsed:
        parsed["seeds"] = _parse_seeds(args.seeds) if args.seeds else STANDARD_SEEDS
    spec = parsed[key] = GridSpec(ranges=ranges, seeds=parsed["seeds"])
    return spec


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
        seed = _parse_seed(args.seed)
    elif args.seed is not None:
        raise FibkitError(f"--seed only applies to G, not {args.seq}")
    else:
        seed = FIB_SEED if args.seq == "F" else LUCAS_SEED
    if seed == Seed(0, 0):
        print(0)
        return 0
    _check_digits(args.seq, seed, args.index, MAX_PRINT_DIGITS, "output limit")
    if args.seq == "G":
        value = gen(seed, args.index)
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


# Each engine is imported on the first call, so that `prove` does not load
# the grid sweep, nor `verify` the prover. The names stay module globals,
# looked up at call time, so that tests and perfbench's tracer can wrap them.

def verify_grid(identity: Identity, spec: GridSpec, *, use_oracle: bool = False,
                state: _State | None = None) -> VerifyReport:
    """verify.verify_grid, imported on the first call."""
    from .verify import verify_grid

    return verify_grid(identity, spec, use_oracle=use_oracle, state=state)


def prove_symbolic(identity: Identity, fixed: Mapping[str, int] | None = None,
                   ) -> VerifyReport:
    """symbolic.prove_symbolic, imported on the first call."""
    from .symbolic import prove_symbolic

    return prove_symbolic(identity, fixed)


def _verify_job(job: tuple[Identity, GridSpec, bool]) -> VerifyReport:
    identity, spec, use_oracle = job
    return verify_grid(identity, spec, use_oracle=use_oracle)


def _cmd_verify(args: argparse.Namespace) -> int:
    """One job per identity, run in catalog order: in a loop, or with
    --workers N by one pool of min(N, CPU count, identities) processes for
    the whole command. Either way the first job to raise, in catalog order,
    decides the error, and the jobs not yet started are dropped. The
    command parses each flag and builds each GridSpec once (see _grid_for);
    its one state (see verify._State) holds, in the loop, the tables every
    job reads; a pool's job makes its own."""
    from .verify import _State

    if args.workers < 1:
        raise FibkitError(f"--workers must be at least 1, got {args.workers}")
    catalog = _resolve_catalog(args)
    entries = _select_entries(catalog, args)
    parsed: dict = {}
    jobs = [(e, _grid_for(e, args, parsed), args.oracle) for e in entries]
    processes = min(args.workers, os.cpu_count() or 1, len(jobs))
    if processes > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=processes)
        try:
            reports = list(pool.map(_verify_job, jobs))
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        state = _State()
        reports = [verify_grid(e, spec, use_oracle=oracle, state=state)
                   for e, spec, oracle in jobs]
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


def _cmd_bench(args: argparse.Namespace) -> int:
    for n in args.n:
        if n < 0:
            raise FibkitError(f"bench needs n >= 0, got {n}")
        _check_digits("F", FIB_SEED, n, MAX_BENCH_DIGITS, "bench limit")
    print(f"{'n':>10}  {'digits':>8}  {'law':>8}  {'doubling':>12}  {'naive':>12}")
    for n in args.n:
        t0 = time.perf_counter()
        value = fib_pair_doubling(n)[0]
        fast_ms = (time.perf_counter() - t0) * 1000.0
        digits = decimal_digits(value)
        law = math.floor(n * _LOG10_PHI) + 1 if n > 0 else 1
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


def _add_selection(p: argparse.ArgumentParser) -> None:
    p.add_argument("--id", nargs="+", metavar="SELECTOR",
                   help="identity names or paper tags")
    p.add_argument("--all", action="store_true", help="select every entry")
    p.add_argument("--file", help="catalog file instead of the built-in one")


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("human", "json", "csv"),
                   default="human")
    p.add_argument("--timing", action="store_true",
                   help="include wall time in JSON output")


def _fill_eval(p: argparse.ArgumentParser) -> None:
    p.add_argument("seq", choices=("F", "L", "G"))
    p.add_argument("index", type=int)
    p.add_argument("--seed", help="seed 'g0,g1' (required for G)")
    p.set_defaults(func=_cmd_eval)


def _fill_verify(p: argparse.ArgumentParser) -> None:
    _add_selection(p)
    for flag in _GRID_FLAGS:
        p.add_argument(f"--{flag}", dest=f"range_{flag}", metavar="LO..HI",
                       help=f"range for parameter {flag}")
    p.add_argument("--seeds", nargs="+", metavar="G0,G1",
                   help="seeds for G (semicolon-separated pairs also work)")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="verify the selected identities in up to N processes")
    p.add_argument("--oracle", action="store_true",
                   help="double-check every point with the brute-force oracle")
    _add_output(p)
    p.set_defaults(func=_cmd_verify)


def _fill_prove(p: argparse.ArgumentParser) -> None:
    _add_selection(p)
    p.add_argument("--n", nargs="+", type=int, metavar="N",
                   help="rank values for sum-bounded identities "
                        "(default 1 2 3 4)")
    _add_output(p)
    p.set_defaults(func=_cmd_prove)


def _fill_catalog(p: argparse.ArgumentParser) -> None:
    p.add_argument("--name", help="show one entry")
    p.add_argument("--file", help="catalog file instead of the built-in one")
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.set_defaults(func=_cmd_catalog)


def _fill_bench(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", nargs="+", type=int, required=True)
    p.add_argument("--naive-threshold", type=int, default=100_000,
                   help="skip naive iteration above this index")
    p.set_defaults(func=_cmd_bench)


# Each subcommand: its name, its help line, and what adds its arguments.
_COMMANDS = (
    ("eval", "print F(n), L(n), or G(n) exactly", _fill_eval),
    ("verify", "check identities on a grid", _fill_verify),
    ("prove", "symbolic proof over all integers", _fill_prove),
    ("catalog", "inspect catalog entries", _fill_catalog),
    ("bench", "time fast doubling vs naive iteration", _fill_bench),
)


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """fibkit's parser, with every subcommand registered. Given argv, only
    the subcommands whose names appear in it get their arguments, since
    parsing argv reads no other; without argv, all of them do."""
    parser = argparse.ArgumentParser(
        prog="fibkit",
        description="Exact Fibonacci/Lucas/generalized identity toolkit",
    )
    parser._negative_number_matcher = _NEGATIVE_VALUE
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubParser)
    named = None if argv is None else set(argv)
    for name, help_line, fill in _COMMANDS:
        p = sub.add_parser(name, help=help_line)
        if named is None or name in named:
            fill(p)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one fibkit command; the int-to-str digit limit is raised to
    MAX_PRINT_DIGITS while it runs and restored when it returns or raises."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_PRINT_DIGITS)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(previous)


def _run(argv: Sequence[str] | None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except InternalFault:
        raise
    except FibkitError as exc:
        print(f"fibkit: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        pass  # reported below, once the traceback has let go of what ran out
    except BrokenPipeError:
        # the reader left (as `| head` does); point stdout's descriptor at
        # the null device so that the flush at exit does not fail again
        with suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 141
    print("fibkit: error: out of memory", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
