"""Acceptance suite: the eight exit criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every check is exact integer equality; there are no tolerances
anywhere.
"""

import random
import time

import pytest

from fibkit import (
    GridSpec, Identity, ParamPoint, Seed,
    fib, fib_naive, gen, lucas, parse_identity, phi_pow, prove_symbolic, verify_grid,
)
from fibkit.catalog import section3_source
from fibkit.cli import decimal_digits
from fibkit.expr import Lit, Sym
from fibkit.oracle import oracle_eval, recurrence_table
from fibkit.seq import fib_pair_doubling
from fibkit.verify import STANDARD_SEEDS, eval_side
from fibkit.zphi import GoldenInt

FLAGSHIPS = ("Eq1", "Eq2", "Eq3", "Eq4")
BASE_ENTRIES = ("Eq8", "Lemma10", "Lemma11", "Lemma12", "Lemma13",
                "Eq14", "Eq16", "Eq18", "Eq19")


def _report_line(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def default_grid(entry) -> GridSpec:
    ranges = {p: ((0, 4) if p in entry.rank_params else (-8, 8))
              for p in entry.free_params}
    return GridSpec(ranges, STANDARD_SEEDS)


def test_criterion_1_flagship_grid(catalog):
    """Eq1..Eq4 over n 0..5, m/p/q -8..8, four seeds: zero failures, < 60 s."""
    spec = GridSpec({"n": (0, 5), "m": (-8, 8), "p": (-8, 8), "q": (-8, 8)},
                    STANDARD_SEEDS)
    started = time.perf_counter()
    reports = [verify_grid(catalog.get(name), spec) for name in FLAGSHIPS]
    elapsed = time.perf_counter() - started
    for report in reports:
        assert report.total == 6 * 17 ** 3 * 4 == 117912
        assert report.passed, f"{report.identity}: {report.failures[:3]}"
    assert elapsed < 60.0, f"flagship sweep took {elapsed:.1f}s"
    _report_line(1, True, f"4 x 117912 checks, 0 failures, {elapsed:.1f}s")


def test_criterion_2_full_catalog_and_expansion_equivalence(catalog, relabel):
    """All 29 entries pass the default grid; expanded entries match their
    rank-instantiated sources pointwise under the recorded relabeling."""
    assert len(catalog) == 29
    for entry in catalog:
        report = verify_grid(entry, default_grid(entry))
        assert report.passed, f"{entry.name}: {report.failures[:3]}"

    checked = 0
    for entry in catalog:
        if not entry.name.startswith("S3."):
            continue
        source_name, rank, relabel_map = section3_source(entry.name)
        source = catalog.get(source_name)
        # the source at the entry's rank, in the entry's parameter names
        env = {fp: Sym(sp) for fp, sp in relabel_map.items()}
        env["n"] = Lit(rank)
        spec = GridSpec({p: (-8, 8) for p in entry.free_params}, STANDARD_SEEDS)
        for side in ("lhs", "rhs"):
            pair = Identity(f"{entry.name}.{side}", getattr(entry, side),
                            relabel(getattr(source, side), env), entry.free_params)
            report = verify_grid(pair, spec)
            assert report.passed, f"{pair.name}: {report.failures[:3]}"
        checked += report.total  # points times seeds, each compared on both sides
    assert checked == 16 * 17 ** 3 * 4
    _report_line(2, True, f"29 entries pass default grid; "
                          f"{checked} relabeled expansion comparisons agree")


def test_criterion_3_mechanized_induction(catalog, step_identity):
    """The rank recurrence of Eq1 lhs/rhs and Eq2 lhs/rhs, verified as
    identities on n 1..4, |m,p,q| <= 5."""
    spec = GridSpec({"n": (1, 4), "m": (-5, 5), "p": (-5, 5), "q": (-5, 5)},
                    STANDARD_SEEDS)
    checks = [("Eq1", "lhs", "F"), ("Eq1", "rhs", "F"),
              ("Eq2", "lhs", "L"), ("Eq2", "rhs", "L")]
    for name, side, coeff in checks:
        report = verify_grid(step_identity(catalog.get(name), side, coeff), spec)
        assert report.passed, f"{name}.{side}: {report.failures[:3]}"
        assert report.total == 4 * 11 ** 3 * 4
    # the even/odd collapse feeding the Eq2 recurrence, on both branches:
    # F(i+1) - (-1)^n F(i-1) is F(i) for even n and L(i) for odd n
    for p in range(-10, 11):
        for n in (1, 2, 3, 4):
            for m in range(-3, 4):
                idx = p - n * m
                value = fib(idx + 1) - (-1) ** n * fib(idx - 1)
                assert value == (fib(idx) if n % 2 == 0 else lucas(idx))
    _report_line(3, True, "Eq1 and Eq2 lhs/rhs fulfill the rank recurrence; "
                          "case split holds on both parities")


def test_criterion_4_symbolic_universality(catalog):
    """Zero residual in every parity case: flagships at n in 1..4, plus the
    product bridge, shift lemmas, and rank-1 base cases."""
    cases = 0
    for name in FLAGSHIPS:
        entry = catalog.get(name)
        for rank in (1, 2, 3, 4):
            report = prove_symbolic(entry, {"n": rank})
            assert report.passed, f"{name}@n={rank}: {report.failures}"
            assert report.total == 8
            cases += report.total
    for name in BASE_ENTRIES:
        report = prove_symbolic(catalog.get(name))
        assert report.passed, f"{name}: {report.failures}"
        cases += report.total
    _report_line(4, True, f"{cases} parity cases reduce to the zero polynomial")


def test_criterion_5_oracle_equivalence(catalog):
    """10^4 randomized oracle-vs-evaluator checks and naive-vs-fast to |n|=500."""
    rng = random.Random(0xF1BB)
    entries = list(catalog)
    for _ in range(10_000):
        entry = entries[rng.randrange(len(entries))]
        ast = entry.lhs if rng.random() < 0.5 else entry.rhs
        values = {
            p: (rng.randint(0, 4) if p in entry.rank_params else rng.randint(-8, 8))
            for p in entry.free_params
        }
        pt = ParamPoint(values, STANDARD_SEEDS[rng.randrange(len(STANDARD_SEEDS))])
        assert oracle_eval(ast, pt) == eval_side(ast, pt), (entry.name, values)

    naive_fib = recurrence_table(0, 1, -500, 500)
    naive_lucas = recurrence_table(2, 1, -500, 500)
    for n in range(-500, 501):
        assert fib(n) == naive_fib[n]
        assert lucas(n) == naive_lucas[n]
    _report_line(5, True, "10000 differential checks and |n| <= 500 "
                          "naive-vs-fast agree exactly")


def test_criterion_6_reflection_and_bridge_laws():
    """Reflection, L/F bridges, phi-power law, and decomposition for |n| <= 200."""
    for n in range(201):
        assert fib(-n) == (-1) ** (n + 1) * fib(n)
        assert lucas(-n) == (-1) ** n * lucas(n)
    for n in range(-200, 201):
        assert fib(n - 1) + fib(n + 1) == lucas(n)
        assert lucas(n - 1) + lucas(n + 1) == 5 * fib(n)
        assert phi_pow(n) == GoldenInt(fib(n - 1), fib(n))

    rng = random.Random(0xF1B0)
    seeds = [Seed(rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6))
             for _ in range(50)]
    for seed in seeds:
        for n in range(-200, 201):
            # G(n) = [(G(-1)+G(1)) F(n) + G0 L(n)] / 2, exactly: the split is even
            doubled = (2 * seed.g1 - seed.g0) * fib(n) + seed.g0 * lucas(n)
            assert doubled % 2 == 0 and doubled // 2 == gen(seed, n)
    _report_line(6, True, "reflection/bridge/phi laws on |n| <= 200; "
                          "decomposition exact for 50 random seeds")


MUTANTS = [
    ("Eq1.sign-flip", ("n", "m", "p", "q"),
     "sum(k, 0, n, binom(n, k)*sign(k)*F(m)^k*F(m + q)^(n - k)*G(p + q*k))"
     " == sign(n*m + 1)*F(q)^n*G(p - n*m)", {"n": 1}),
    ("Eq2.drop-pow5", ("n", "m", "p", "q"),
     "sum(k, 0, n, binom(n, k)*sign(k)*L(m)^k*L(m + q)^(n - k)*G(p + q*k))"
     " == sign(n*m + n)*F(q)^n*(G(p - n*m + 1) - sign(n)*G(p - n*m - 1))",
     {"n": 2}),
    ("Eq3.sign-exponent", ("n", "m", "p", "q"),
     "sum(k, 0, n, binom(n, k)*sign(q*k)*F(m)^k*F(m + q)^(n - k)*G(p - q*k))"
     " == F(q)^n*G(p + n*m)", {"n": 1}),
    ("Eq4.bracket-sign", ("n", "m", "p", "q"),
     "sum(k, 0, n, binom(n, k)*sign(q*k + k)*L(m)^k*L(m + q)^(n - k)*G(p - q*k))"
     " == pow5floor(n)*F(q)^n*(G(p + n*m + 1) + sign(n)*G(p + n*m - 1))",
     {"n": 1}),
    ("Eq8.coeff-2", ("m", "n"),
     "F(m + 1)*F(n) + 2*F(m)*F(n - 1) == F(n + m)", None),
    ("Lemma11.index-shift", ("m", "n"),
     "F(m + n) - sign(n)*F(m - n + 1) == F(n)*L(m)", None),
    ("Eq14.index-shift", ("m", "p", "q"),
     "F(m + q)*F(p) - F(m)*F(p + q) == sign(m)*F(q)*F(p - m + 1)", None),
    ("Eq16.sign-flip", ("m", "p", "q"),
     "L(m + q)*F(p) - L(m)*F(p + q) == sign(m)*F(q)*L(p - m)", None),
    ("Lemma13.coeff-4", ("m", "n"),
     "L(m + n) - sign(n)*L(m - n) == 4*F(n)*F(m)", None),
    ("S3.n2.coeff-drop", ("n", "m", "p"),
     "F(m + p)^2*G(n) - F(m)*F(m + p)*G(n + p) + F(m)^2*G(n + 2*p)"
     " == F(p)^2*G(n - 2*m)", None),
]


def test_criterion_7_mutation_sensitivity():
    """Each hand-mutated entry must fail both the grid and the prover."""
    for name, params, text, fixed in MUTANTS:
        mutant = parse_identity(text, name=name, params=params)
        ranges = {p: ((0, 3) if p in mutant.rank_params else (-3, 3))
                  for p in mutant.free_params}
        report = verify_grid(mutant, GridSpec(ranges, (Seed(0, 1), Seed(3, 7))))
        assert not report.passed, f"{name} slipped through grid verification"
        assert len(report.failures) >= 1

        symbolic = prove_symbolic(mutant, fixed)
        assert not symbolic.passed, f"{name} slipped through the symbolic prover"
        assert all(f.lhs != "0" for f in symbolic.failures)
    _report_line(7, True, f"all {len(MUTANTS)} mutants rejected by both "
                          f"grid verification and symbolic proof")


def test_criterion_8_performance_sanity():
    """Fast doubling reaches F(10^6) in under 5 s; naive iteration is
    measurably slower at a feasible index and gets skipped at 10^6."""
    started = time.perf_counter()
    value = fib_pair_doubling(10 ** 6)[0]
    fast_big = time.perf_counter() - started
    assert fast_big < 5.0, f"fast doubling took {fast_big:.2f}s"
    digits = decimal_digits(value)
    assert abs(digits - 208988) <= 1
    assert digits == 208988  # floor(1e6 * log10(phi)) + 1

    probe = 30_000
    started = time.perf_counter()
    doubling_value = fib_pair_doubling(probe)[0]
    fast_small = time.perf_counter() - started
    started = time.perf_counter()
    naive_value = fib_naive(probe)
    naive_small = time.perf_counter() - started
    assert naive_value == doubling_value
    assert naive_small > fast_small, (
        f"naive {naive_small * 1000:.2f}ms not slower than "
        f"doubling {fast_small * 1000:.2f}ms at n={probe}")

    # the bench command's threshold skips naive iteration at 10^6
    from fibkit.cli import main
    assert main(["bench", "--n", str(10 ** 6)]) == 0
    _report_line(8, True, f"F(1e6): {digits} digits in {fast_big * 1000:.0f}ms; "
                          f"naive {naive_small / max(fast_small, 1e-9):.0f}x slower "
                          f"at n={probe} and skipped at 1e6")
