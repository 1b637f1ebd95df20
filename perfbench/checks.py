"""Output checks for the benchmark, made apart from fibkit's own arithmetic.

Expected report totals come from the ranges the benchmark passes on the
command line. False variants of the paper's Eq(1)-(4) are built here,
together with a plain-Python model of each side that uses only stepped
recurrences and math.comb, so a failure value reported by fibkit can be
compared with a value computed without any fibkit code.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb, prod
from typing import Callable, Mapping, Sequence

# Ranges the CLI uses for a parameter that has no range flag (cli.py's
# DEFAULT_RANK_RANGE and DEFAULT_PARAM_RANGE); the benchmark passes every
# flag it can, and this covers the one it cannot: n on `verify --all`,
# which is a rank on Eq1..Eq4 but a plain index on other entries.
DEFAULT_RANK_RANGE = (0, 4)
DEFAULT_PARAM_RANGE = (-8, 8)

Range = tuple[int, int]
Seed = tuple[int, int]


# --- expected reports ----------------------------------------------------------

@dataclass(frozen=True)
class Expected:
    """One report the benchmark expects: its identity, size and verdict."""

    identity: str
    total: int
    passed: bool = True
    ranges: Mapping[str, Range] | None = None  # verify reports only


def verify_plan(entries: Sequence[Mapping], ranges: Mapping[str, Range],
                seeds: Sequence[Seed]) -> list[Expected]:
    """Reports of `verify --all` over catalog entries (as `catalog --format json`
    prints them) with the given range flags and seeds."""
    plan = []
    for e in entries:
        box = {}
        for p in e["params"]:
            if p in ranges:
                box[p] = ranges[p]
            elif p in e["rank_params"]:
                box[p] = DEFAULT_RANK_RANGE
            else:
                box[p] = DEFAULT_PARAM_RANGE
        size = prod(hi - lo + 1 for lo, hi in box.values())
        plan.append(Expected(e["name"], size * len(seeds), True, box))
    return plan


def prove_plan(entries: Sequence[Mapping], ranks: Sequence[int]) -> list[Expected]:
    """Reports of `prove --all --n RANKS`: one per entry, or one per rank for a
    rank-parametric entry; each proof has 2^(free parameters) parity cases."""
    plan = []
    for e in entries:
        if e["rank_params"]:
            free = len(e["params"]) - 1
            plan.extend(Expected(e["name"], 2 ** free) for _ in ranks)
        else:
            plan.append(Expected(e["name"], 2 ** len(e["params"])))
    return plan


def check_reports(reports: Sequence[Mapping], plan: Sequence[Expected],
                  ) -> tuple[int, list[str]]:
    """Compare reports with the plan, one operation per planned report.

    Returns the number of failed operations (wrong identity, total or
    verdict, or missing) and a description of each problem.
    """
    problems = []
    for i, want in enumerate(plan):
        problem = _report_problem(reports[i] if i < len(reports) else None, want)
        if problem:
            problems.append(f"report {i} ({want.identity}): {problem}")
    failed = len(problems)
    if len(reports) > len(plan):
        problems.append(f"{len(reports) - len(plan)} unexpected extra report(s)")
    return failed, problems


def _report_problem(got: Mapping | None, want: Expected) -> str | None:
    if got is None:
        return "missing"
    if got.get("identity") != want.identity:
        return f"identity is {got.get('identity')!r}"
    if got.get("total") != want.total:
        return f"total {got.get('total')} != {want.total}"
    if (not got.get("failures")) != want.passed:
        return f"verdict {'FAIL' if got.get('failures') else 'PASS'}"
    if want.ranges is not None:
        ranges = {p: list(r) for p, r in want.ranges.items()}
        if got.get("grid", {}).get("ranges") != ranges:
            return f"grid ranges {got.get('grid', {}).get('ranges')} != {ranges}"
    return None


# --- an independent model of Eq(1)-(4) -------------------------------------------

def stepped(g0: int, g1: int, lo: int, hi: int) -> dict[int, int]:
    """Index-to-value map over lo..hi from stepping G(i+2) = G(i+1) + G(i)
    forwards and G(i) = G(i+2) - G(i+1) backwards from the seed pair."""
    values = {0: g0, 1: g1}
    a, b = g0, g1
    for i in range(2, hi + 1):
        a, b = b, a + b
        values[i] = b
    a, b = g0, g1
    for i in range(-1, lo - 1, -1):
        a, b = b - a, a
        values[i] = a
    return values


def sign(x: int) -> int:
    return -1 if x % 2 else 1


def pow5floor(x: int) -> int:
    return 5 ** (x // 2)


Side = Callable[..., int]  # (n, m, p, q, F, L, G) -> int


def _eq1_lhs(n, m, p, q, F, L, G):
    return sum(comb(n, k) * sign(k) * F[m] ** k * F[m + q] ** (n - k) * G[p + q * k]
               for k in range(n + 1))


def _eq1_rhs(n, m, p, q, F, L, G):
    return sign(n * m) * F[q] ** n * G[p - n * m]


def _eq2_lhs(n, m, p, q, F, L, G):
    return sum(comb(n, k) * sign(k) * L[m] ** k * L[m + q] ** (n - k) * G[p + q * k]
               for k in range(n + 1))


def _eq2_rhs(n, m, p, q, F, L, G):
    return (pow5floor(n) * sign(n * m + n) * F[q] ** n
            * (G[p - n * m + 1] - sign(n) * G[p - n * m - 1]))


def _eq3_lhs(n, m, p, q, F, L, G):
    return sum(comb(n, k) * sign(q * k + k) * F[m] ** k * F[m + q] ** (n - k)
               * G[p - q * k] for k in range(n + 1))


def _eq3_rhs(n, m, p, q, F, L, G):
    return F[q] ** n * G[p + n * m]


def _eq4_lhs(n, m, p, q, F, L, G):
    return sum(comb(n, k) * sign(q * k + k) * L[m] ** k * L[m + q] ** (n - k)
               * G[p - q * k] for k in range(n + 1))


def _eq4_rhs(n, m, p, q, F, L, G):
    return pow5floor(n) * F[q] ** n * (G[p + n * m + 1] - sign(n) * G[p + n * m - 1])


# The paper's four summation identities: DSL text of each side for fibkit,
# and the model above for the benchmark.
EQUATIONS = {
    "Eq1": ("sum(k, 0, n, binom(n, k)*sign(k)*F(m)^k*F(m + q)^(n - k)*G(p + q*k))",
            "sign(n*m)*F(q)^n*G(p - n*m)", _eq1_lhs, _eq1_rhs),
    "Eq2": ("sum(k, 0, n, binom(n, k)*sign(k)*L(m)^k*L(m + q)^(n - k)*G(p + q*k))",
            "pow5floor(n)*sign(n*m + n)*F(q)^n*(G(p - n*m + 1) - sign(n)*G(p - n*m - 1))",
            _eq2_lhs, _eq2_rhs),
    "Eq3": ("sum(k, 0, n, binom(n, k)*sign(q*k + k)*F(m)^k*F(m + q)^(n - k)*G(p - q*k))",
            "F(q)^n*G(p + n*m)", _eq3_lhs, _eq3_rhs),
    "Eq4": ("sum(k, 0, n, binom(n, k)*sign(q*k + k)*L(m)^k*L(m + q)^(n - k)*G(p - q*k))",
            "pow5floor(n)*F(q)^n*(G(p + n*m + 1) - sign(n)*G(p + n*m - 1))",
            _eq4_lhs, _eq4_rhs),
}

PARAMS = ("n", "m", "p", "q")


@dataclass(frozen=True)
class Variant:
    """A false variant of one equation: its right side is changed so that the
    difference of the sides is a nonzero multiple of a nonzero term, which
    no proof at any rank can pass and every grid of a few points exposes."""

    name: str
    text: str
    lhs: Side
    rhs: Side


def make_variants(rng: random.Random) -> list[Variant]:
    """One seeded false variant of each of Eq1..Eq4."""
    variants = []
    for eq, (lhs_text, rhs_text, lhs, rhs) in EQUATIONS.items():
        c = rng.choice((-3, -2, 2, 3))
        kind = rng.choice(("scale", "offset", "shift"))
        if kind == "scale":      # c * rhs, c != 1
            text = f"{c}*({rhs_text})"
            side = (lambda c, f: lambda *a: c * f(*a))(c, rhs)
        elif kind == "offset":   # rhs + c
            text = f"{rhs_text} + {c}"
            side = (lambda c, f: lambda *a: f(*a) + c)(c, rhs)
        else:                    # rhs + c*G(p + d)
            d = rng.randint(-2, 2)
            text = f"{rhs_text} + {c}*G(p + {d})"
            side = (lambda c, d, f: lambda n, m, p, q, F, L, G:
                    f(n, m, p, q, F, L, G) + c * G[p + d])(c, d, rhs)
        name = f"{eq}.{kind}{c:+d}"
        variants.append(Variant(name, f"{lhs_text} == {text}", lhs, side))
    return variants


def variant_catalog(variants: Sequence[Variant]) -> str:
    """The variants as a catalog file in fibkit's stanza format."""
    return "\n".join(
        f"name: {v.name}\nparams: {' '.join(PARAMS)}\npaper: {v.name}\n"
        f"identity: {v.text}\n"
        for v in variants)


# Table window for the model; every index a variant touches on the small
# grids used here lies well inside it.
_WINDOW = (-64, 64)


def model_failures(variant: Variant, box: Mapping[str, Range],
                   seeds: Sequence[Seed]) -> dict[tuple, tuple[int, int]]:
    """Every (point, seed) of the box where the model's sides differ, with
    the model's (lhs, rhs) there."""
    F = stepped(0, 1, *_WINDOW)
    L = stepped(2, 1, *_WINDOW)
    axes = [range(box[p][0], box[p][1] + 1) for p in PARAMS]
    out = {}
    for g0, g1 in seeds:
        G = stepped(g0, g1, *_WINDOW)
        for vals in itertools.product(*axes):
            lv = variant.lhs(*vals, F, L, G)
            rv = variant.rhs(*vals, F, L, G)
            if lv != rv:
                out[(vals, (g0, g1))] = (lv, rv)
    return out


def check_variant_grid(report: Mapping, variant: Variant, box: Mapping[str, Range],
                       seeds: Sequence[Seed]) -> list[str]:
    """A variant's verify report must FAIL with the right total, at exactly the
    points where the model's sides differ, with the model's side values."""
    where = f"variant {variant.name}"
    size = prod(hi - lo + 1 for lo, hi in box.values()) * len(seeds)
    if report.get("identity") != variant.name:
        return [f"{where}: report is for {report.get('identity')!r}"]
    if report.get("total") != size:
        return [f"{where}: total {report.get('total')} != {size}"]
    failures = report.get("failures") or []
    if not failures:
        return [f"{where}: verdict PASS on a false identity"]
    want = model_failures(variant, box, seeds)
    problems = []
    got = {}
    for f in failures:
        key = (tuple(f["point"][p] for p in PARAMS), tuple(f["seed"]))
        got[key] = (int(f["lhs"]), int(f["rhs"]))
    if set(got) != set(want):
        problems.append(f"{where}: {len(got)} failure points reported, "
                        f"the model has {len(want)}")
    for key in sorted(set(got) & set(want)):
        if got[key] != want[key]:
            problems.append(f"{where}: at {key} fibkit gives {got[key]}, "
                            f"the model {want[key]}")
            break
    return problems


def check_variant_proofs(reports: Sequence[Mapping], variants: Sequence[Variant],
                         ranks: Sequence[int]) -> list[str]:
    """Every variant must FAIL its proof at every rank, over 8 parity cases."""
    plan = [Expected(v.name, 8, passed=False) for v in variants for _ in ranks]
    return check_reports(reports, plan)[1]
