"""Grid verification, the rank recurrence, evaluation contracts, reports."""

import ast
import functools
import inspect
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import fibkit
from fibkit import (
    EvalError, FibkitError, GridError, GridSpec, Identity, InternalFault, ParamPoint,
    ParseError, Seed, eval_side, fib, lucas, cli, oracle, parse_expr, parse_identity,
    seq, to_text, verify, verify_grid,
)
from fibkit.catalog import load_catalog_file
from fibkit.expr import Add, Binom, Lit, Mul, Neg, Pow, SeqRef, Sign, Sub, Sum, Sym, affine
from fibkit.oracle import oracle_eval
from fibkit.seq import LUCAS_SEED, gen
from fibkit.verify import MAX_GRID_CHECKS, STANDARD_SEEDS

DATA = Path(__file__).parent / "data"
F_SEED = Seed(0, 1)


def small_spec(*params, lo=-3, hi=3, seeds=(Seed(0, 1), Seed(3, 7))):
    return GridSpec({p: (lo, hi) for p in params}, tuple(seeds))


def plans_of(identity, spec):
    """The passes verify plans for identity on spec, from its term trees."""
    return verify._plans(identity, spec, verify._sides(identity))


def assert_declared_loop_order(identity, spec):
    """The grid loops its fixed parameters first, then the others in
    declared order, with its first plan's shift parameter innermost."""
    grid = verify._grid(identity, spec)
    params, order, shift = identity.free_params, grid.order, grid.plans[0].shift
    assert sorted(order) == sorted(params)
    assert order[:grid.fixed] == tuple(p for p in params if len(set(spec.ranges[p])) == 1)
    loops = order[grid.fixed:]
    if shift:
        assert loops[-1] == shift
    rest = [p for p in loops if p != shift]
    assert rest == [p for p in params if p in rest]
    return grid


# --- eval_side ---------------------------------------------------------------

def test_eval_side_spec_points(catalog):
    eq1 = catalog.get("Eq1")
    pt = ParamPoint({"n": 1, "m": 2, "p": 5, "q": 3}, F_SEED)
    assert eval_side(eq1.lhs, pt) == 4  # F5*F5 - F2*F8 = 25 - 21
    assert eval_side(eq1.rhs, pt) == 4

    eq3 = catalog.get("Eq3")
    pt = ParamPoint({"n": 2, "m": 2, "p": 0, "q": 1}, F_SEED)
    assert eval_side(eq3.lhs, pt) == 3  # 0 + 4 - 1
    assert eval_side(eq3.rhs, pt) == 3


def test_eval_side_binom_convention():
    assert eval_side(parse_expr("binom(n, k)"), ParamPoint({"n": 5, "k": 7})) == 0
    assert eval_side(parse_expr("binom(n, k)"), ParamPoint({"n": 5, "k": -1})) == 0
    assert eval_side(parse_expr("binom(n, k)"), ParamPoint({"n": -2, "k": 1})) == 0
    assert eval_side(parse_expr("binom(n, k)"), ParamPoint({"n": 6, "k": 2})) == 15


def test_eval_side_empty_sum_is_zero():
    ast = parse_expr("sum(k, 0, n, F(k))")
    assert eval_side(ast, ParamPoint({"n": -1})) == 0


def test_eval_side_inverted_sum_bounds_error():
    ast = parse_expr("sum(k, 0, n, F(k))")
    with pytest.raises(EvalError, match="sum bounds"):
        eval_side(ast, ParamPoint({"n": -2}))


def test_eval_side_negative_exponent_error():
    ast = parse_expr("F(m)^n")
    with pytest.raises(EvalError, match="negative exponent"):
        eval_side(ast, ParamPoint({"m": 3, "n": -1}))


def test_eval_side_pow5floor():
    ast = parse_expr("pow5floor(n)")
    assert [eval_side(ast, ParamPoint({"n": n})) for n in range(6)] == [1, 1, 5, 5, 25, 25]
    with pytest.raises(EvalError):
        eval_side(ast, ParamPoint({"n": -1}))


def test_eval_side_sign_parity():
    ast = parse_expr("sign(n)")
    assert eval_side(ast, ParamPoint({"n": -3})) == -1
    assert eval_side(ast, ParamPoint({"n": -4})) == 1


def test_eval_side_names_a_symbol_with_no_value():
    for text in ("F(x) + F(m)", "sum(k, 0, m, F(k + x))"):
        with pytest.raises(EvalError, match="^symbol 'x' has no value$"):
            eval_side(parse_expr(text), ParamPoint({"m": 2}))


def test_hand_built_nested_sum_is_refused():
    text = "sum(k, 0, n, sum(j, 0, k, F(j)))"
    with pytest.raises(ParseError, match="nested sums are not supported"):
        parse_expr(text)
    nested = Sum("k", Lit(0), Sym("n"), Sum("j", Lit(0), Sym("k"), SeqRef("F", Sym("j"))))
    identity = Identity("nested", nested, Lit(0), ("n",))
    spec = GridSpec({"n": (0, 3)}, (F_SEED, Seed(3, 7)))
    calls = [lambda: eval_side(nested, ParamPoint({"n": 2})),
             lambda: verify_grid(identity, spec),
             lambda: verify_grid(identity, spec, use_oracle=True)]
    for call in calls:
        with pytest.raises(FibkitError, match="^nested sums are not supported$") as info:
            call()
        assert not isinstance(info.value, InternalFault)


def test_hand_built_ref_in_an_index_is_an_eval_error():
    # the parser keeps sequence refs out of indices; a hand-built tree can
    # hold one, and every path names the node, as a sum bound does
    cases = [(SeqRef("F", SeqRef("G", Sym("m"))),
              "^unsupported node SeqRef in an index expression$"),
             (Sum("k", Lit(0), SeqRef("G", Sym("m")), Lit(1)),
              "^cannot bound non-index expression node SeqRef$")]
    spec = GridSpec({"m": (0, 2)}, (F_SEED, Seed(3, 7)))
    for side, message in cases:
        identity = Identity("hand-built", side, Lit(0), ("m",))
        for call in (lambda: verify_grid(identity, spec),
                     lambda: verify_grid(identity, spec, use_oracle=True)):
            with pytest.raises(EvalError, match=message):
                call()
    with pytest.raises(EvalError, match=cases[0][1]):
        eval_side(cases[0][0], ParamPoint({"m": 1}))


def test_evaluation_paths_compile_once(monkeypatch):
    monkeypatch.setattr(verify, "_compile_cache", {})
    compiled = []
    source = verify._sweep_source
    monkeypatch.setattr(verify, "_sweep_source", lambda *args: compiled.append(args[0].name)
                        or source(*args))
    side = parse_expr("F(m + 77)*G(n - 5) + binom(m, n)")
    values = [eval_side(side, ParamPoint({"m": m, "n": n}, Seed(3, 7)))
              for m, n in ((1, 2), (-4, 6))]
    # one entry for the side's one-point sweep, whatever the point
    assert len(verify._compile_cache) == 1 and compiled == ["eval_side"]
    assert values == [oracle_eval(side, ParamPoint({"m": m, "n": n}, Seed(3, 7)))
                      for m, n in ((1, 2), (-4, 6))]

    bad = parse_identity("F(m + 55)^p == G(p - 55)", name="neg-pow", params=("m", "p"))
    seeds = (Seed(2, 1), F_SEED, Seed(3, 7), Seed(3, 7))
    spec = GridSpec({"m": (-3, 3), "p": (-2, 2)}, seeds)
    compiled.clear()
    with pytest.raises(EvalError, match=r"at point \(m=-3, p=-2\), seed Seed\(g0=2, g1=1\)$"):
        verify_grid(bad, spec)
    # after eval_side's entry, the grid's, with one sweep for the three
    # per-seed passes, and the entry of the locator's one-point sweep
    assert len(verify._compile_cache) == 3 and compiled == ["neg-pow"] * 2


def test_compile_cache_holds_at_most_its_cap(monkeypatch):
    monkeypatch.setattr(verify, "_compile_cache", {})
    step = parse_identity("F(m + 2) == F(m + 1) + F(m)", name="step", params=("m",))
    specs = [GridSpec({"m": (i, i)}, (F_SEED,)) for i in range(verify._CACHED + 1)]
    assert verify_grid(step, specs[0]).passed
    first = next(iter(verify._compile_cache))
    for spec in specs[1:]:
        assert verify_grid(step, spec).passed
    keys = list(verify._compile_cache)
    assert len(keys) == verify._CACHED and first not in keys  # the oldest was dropped
    # verifying the first grid again enters it anew, in place of the next oldest
    assert verify_grid(step, specs[0]).passed
    assert list(verify._compile_cache) == [*keys[1:], first]


# --- verify_grid -------------------------------------------------------------

def test_trivial_identity_counts_points():
    trivial = parse_identity("G(p) == G(p)", name="trivial", params=("p",))
    spec = GridSpec({"p": (-10, 10)}, (Seed(0, 1),))
    report = verify_grid(trivial, spec)
    assert report.passed
    assert report.total == 21


def test_flagship_small_grid_passes(catalog):
    spec = GridSpec({"n": (0, 4), "m": (-6, 6), "p": (-6, 6), "q": (-6, 6)},
                    (Seed(0, 1), Seed(2, 1), Seed(3, 7)))
    report = verify_grid(catalog.get("Eq1"), spec)
    assert report.passed
    assert report.total == 5 * 13 ** 3 * 3


def test_corrupted_identity_fails_with_counterexample(catalog):
    bad = parse_identity(
        "sum(k, 0, n, binom(n, k)*sign(k)*F(m)^k*F(m + q)^(n - k)*G(p + q*k))"
        " == sign(n*m + 1)*F(q)^n*G(p - n*m)",
        name="Eq1-flipped", params=("n", "m", "p", "q"))
    report = verify_grid(bad, GridSpec({"n": (0, 2), "m": (-2, 2), "p": (-2, 2),
                                        "q": (-2, 2)}, (F_SEED,)))
    assert not report.passed
    assert len(report.failures) >= 1
    first = report.failures[0]
    assert first.lhs != first.rhs
    assert first.diff == first.lhs - first.rhs


def test_grid_must_cover_params(catalog):
    with pytest.raises(GridError, match="does not cover"):
        verify_grid(catalog.get("Eq1"), small_spec("n", "m", "p"))


def test_rank_param_must_be_nonnegative(catalog):
    spec = GridSpec({"n": (-1, 3), "m": (0, 1), "p": (0, 1), "q": (0, 1)})
    with pytest.raises(GridError, match="rank parameter"):
        verify_grid(catalog.get("Eq1"), spec)


def test_empty_range_rejected():
    with pytest.raises(GridError, match="empty range"):
        GridSpec({"m": (3, 2)})


def test_grid_over_check_limit_rejected_without_building():
    GridSpec({"m": (1, MAX_GRID_CHECKS)}, (F_SEED,))
    with pytest.raises(GridError, match="over the limit"):
        GridSpec({"m": (0, MAX_GRID_CHECKS)}, (F_SEED,))
    with pytest.raises(GridError, match="over the limit"):
        GridSpec({p: (-10 ** 6, 10 ** 6) for p in "mnpq"})


def test_sweep_binds_single_values_and_bounds_its_loops():
    # 25 parameters with one value each are bound once, not looped over
    names = [f"x{i}" for i in range(25)]
    wide = parse_identity(" + ".join(f"F({x})" for x in names) + " == 25",
                          name="wide", params=names)
    report = verify_grid(wide, GridSpec({x: (1, 1) for x in names}, (F_SEED,)))
    assert report.passed and report.total == 1
    # 20 two-valued parameters would need 20 nested loops plus the sum's
    with pytest.raises(GridError, match="at most 19 loops"):
        verify_grid(wide, GridSpec({x: (1, 2) if i < 20 else (1, 1)
                                    for i, x in enumerate(names)}, (F_SEED,)))


def test_no_seeds_rejected():
    with pytest.raises(GridError, match="seed"):
        GridSpec({"m": (0, 1)}, ())


def test_eval_errors_annotated_with_point():
    bad = parse_identity("F(m)^p == F(m)^p", name="neg-pow", params=("m", "p"))
    spec = GridSpec({"m": (0, 1), "p": (-1, 1)}, (F_SEED,))
    with pytest.raises(EvalError, match=r"at point \(m=0, p=-1\)"):
        verify_grid(bad, spec)


def test_negative_exponent_in_a_sum_names_its_first_point():
    # k - 1 is a list over k built outside the loop over m: the power tests
    # its sign and raises through _pw only when it is negative
    bad = parse_identity("sum(k, 0, n, F(m)^(k - 1)) == F(m)", name="k-minus-1",
                         params=("n", "m"))
    spec = GridSpec({"n": (0, 2), "m": (-2, 2)}, (Seed(3, 7), F_SEED))
    source = verify._sweep_source(bad, verify._grid(bad, spec))
    assert " >= 0 else _pw(" in source
    for use_oracle in (False, True):
        with pytest.raises(EvalError, match=r"^negative exponent -1 in power at point "
                                            r"\(n=0, m=-2\), seed Seed\(g0=3, g1=7\)$"):
            verify_grid(bad, spec, use_oracle=use_oracle)
    with pytest.raises(EvalError, match="^negative exponent -1 in power$"):
        eval_side(bad.lhs, ParamPoint({"n": 2, "m": 0}))
    assert eval_side(bad.lhs, ParamPoint({"n": -1, "m": 2})) == 0  # the empty sum


def test_use_oracle_cross_checks(catalog):
    spec = GridSpec({"m": (-3, 3), "n": (-3, 3)}, (F_SEED,))
    report = verify_grid(catalog.get("Eq8"), spec, use_oracle=True)
    assert report.passed


def test_oracle_builds_one_table_set_per_grid(catalog, monkeypatch):
    built = []

    class CountedTables(oracle.OracleTables):
        def __init__(self, seeds):
            built.append(self)
            super().__init__(seeds)

    monkeypatch.setattr(oracle, "OracleTables", CountedTables)
    evaluators = []
    build = oracle.evaluator
    monkeypatch.setattr(oracle, "evaluator",
                        lambda ast, tables: evaluators.append(tuple(tables.gen))
                        or build(ast, tables))
    checked, made = [], []
    checks = verify._oracle_checks

    def counted_checks(identity, spec, grid):
        def counted(check):
            flush = check.flush

            def compared():  # the seeds of the checks each flush compares
                points, rest = divmod(len(check.held), 2 * len(check.seeds))
                assert rest == 0  # two values per seed of whole points
                checked.extend(check.seeds * points)
                flush()
            check.flush = compared
            return check
        made.extend(counted(check) for check in checks(identity, spec, grid))
        return made

    monkeypatch.setattr(verify, "_oracle_checks", counted_checks)
    spec = GridSpec({"n": (0, 2), "m": (-2, 2), "p": (-2, 2), "q": (-2, 2)},
                    (Seed(0, 1), Seed(3, 7), Seed(0, 1), Seed(3, 7)))
    assert verify_grid(catalog.get("Eq1"), spec, use_oracle=True).passed
    # one table set: F, L and one table per distinct seed
    (tables,) = built
    assert list(tables.gen) == [Seed(0, 1), Seed(3, 7)]
    # each grown as far as the sides read it: G(p + q*k) and G(p - n*m)
    # reach -6..6, F(m + q) reaches -4..4, and L is not read
    assert [sorted(table) for table in tables.gen.values()] == [list(range(-6, 7))] * 2
    assert sorted(tables.fib) == list(range(-4, 5)) and sorted(tables.lucas) == [0, 1]
    # the grid's 1,500 checks run in one plan, with one evaluator per side
    # that covers both distinct seeds
    assert evaluators == [(Seed(0, 1), Seed(3, 7))] * 2
    # and every requested seed compared at every point
    assert len(checked) == spec.checks(("n", "m", "p", "q")) == 1500
    assert {i: checked.count(i) for i in range(4)} == {i: 375 for i in range(4)}
    # and the flushes used up the grid's points
    assert [next(check.points, None) for check in made] == [None]


def test_a_repeat_oracle_call_builds_nothing_and_compares_every_check(
        catalog, monkeypatch):
    eq1 = catalog.get("Eq1")
    monkeypatch.setattr(verify, "_compile_cache", {})
    assert verify_grid(eq1, VARIANT_SPEC, use_oracle=True).passed  # builds the entry
    built, walked, checked = [], [], []

    class CountedTables(oracle.OracleTables):
        def __init__(self, seeds):
            built.append(seeds)
            super().__init__(seeds)

    monkeypatch.setattr(oracle, "OracleTables", CountedTables)
    build = oracle._build
    monkeypatch.setattr(oracle, "_build", lambda node, seqs, gens: walked.append(node)
                        or build(node, seqs, gens))
    flush = verify._OracleCheck.flush

    def compared(check):  # the seeds of the checks each flush compares
        points, rest = divmod(len(check.held), 2 * len(check.seeds))
        assert rest == 0
        checked.extend(check.seeds * points)
        flush(check)

    monkeypatch.setattr(verify._OracleCheck, "flush", compared)
    assert verify_grid(eq1, VARIANT_SPEC, use_oracle=True).passed
    assert built == [] and walked == []
    assert len(checked) == VARIANT_SPEC.checks(eq1.free_params) == 1500
    assert {i: checked.count(i) for i in range(4)} == {i: 375 for i in range(4)}
    # the fast path's tables are still built per call: a corrupt F table on
    # the repeat call is caught by the kept evaluators
    _corrupt_table(monkeypatch, 2)
    with pytest.raises(InternalFault) as kept:
        verify_grid(eq1, VARIANT_SPEC, use_oracle=True)
    assert built == [] and walked == []
    # the same first disagreement as evaluators built anew name
    monkeypatch.setattr(verify, "_compile_cache", {})
    with pytest.raises(InternalFault) as fresh:
        verify_grid(eq1, VARIANT_SPEC, use_oracle=True)
    assert len(built) == 1
    # (the sweep reads F(2) as G(p + 2) at p = 0, where the line of p starts,
    # and walks back to p = -2)
    assert str(kept.value) == str(fresh.value) == (
        "oracle disagrees with evaluator on 'Eq1' at {'n': 1, 'm': -2, 'p': -2, 'q': -2}, "
        "seed Seed(g0=0, g1=1): oracle (0, 0) vs fast (0, -1)")


VARIANT_CATALOG = load_catalog_file(str(DATA / "eq_variants.cat"))
DUPLICATE_SEEDS = (Seed(0, 1), Seed(3, 7), Seed(0, 1), Seed(-4, 5), Seed(3, 7))
PER_SEED = [(False, seed, None) for seed in dict.fromkeys(DUPLICATE_SEEDS)]


@pytest.mark.parametrize("name,p_range,plan_kinds", [
    ("Eq8", None, [(False, None, None)]),                  # reads no G
    ("Eq1", None, [(True, None, "p")]),                     # shifted basis
    ("Eq1", (1, 1), [(True, None, None)]),                  # two-pair basis
    ("Eq1.square", None, PER_SEED),                         # one pass per seed
    ("Eq3.offset", None, PER_SEED),
])
def test_oracle_evaluates_each_point_once_per_distinct_seed(
        catalog, monkeypatch, name, p_range, plan_kinds):
    entry = (VARIANT_CATALOG if "." in name else catalog).get(name)
    ranges = {"n": (0, 2), "m": (-2, 2), "p": (-2, 2), "q": (-1, 1)}
    if p_range:
        ranges["p"] = p_range
    spec = GridSpec({p: ranges[p] for p in entry.free_params}, DUPLICATE_SEEDS)
    plans = plans_of(entry, spec)
    assert [(p.basis, p.seed, p.shift) for p in plans] == plan_kinds
    widths = {"lhs": 0, "rhs": 0}
    build = oracle.evaluator

    def counted(ast, tables):
        fn, side = build(ast, tables), "lhs" if ast is entry.lhs else "rhs"

        def evaluate(cols, size):
            values = fn.columns(cols, size)
            assert len(values) == len(tables.gen)
            assert all(len(column) == size for column in values)
            widths[side] += len(values) * size
            return values
        return oracle.Evaluator(evaluate)

    monkeypatch.setattr(oracle, "evaluator", counted)
    # a flush comes due between points once 7 checks are held: after one to
    # seven whole points, since a pass holds 1, 2 or 5 checks per point
    monkeypatch.setattr(verify, "_HELD_CHECKS", 7)
    report = verify_grid(entry, spec, use_oracle=True)
    assert report.total == spec.checks(entry.free_params)
    points = report.total // len(DUPLICATE_SEEDS)
    # each side: one value per point and distinct seed, over all passes
    assert widths == {"lhs": 3 * points, "rhs": 3 * points}


@pytest.mark.parametrize("text", [
    "binom(300, 150)*F(m) == binom(300, 150)*F(m)",         # reads no G
    "binom(300, 150)*G(m) + G(m + 1) == binom(300, 150)*G(m) + G(m + 1)",  # basis
])
def test_closed_binom_walks_pascal_once_per_node_per_grid(monkeypatch, text):
    walks = []
    binom = oracle.pascal_binom
    monkeypatch.setattr(oracle, "pascal_binom", lambda n, k: (
        walks.append((n, k)) if n > oracle._PASCAL_ROWS_KEPT else None) or binom(n, k))
    identity = parse_identity(text, name="closed-binom", params=("m",))
    assert verify_grid(identity, GridSpec({"m": (0, 5)}), use_oracle=True).passed
    assert walks == [(300, 150)] * 2


def _corrupt_table(monkeypatch, *indices):
    """verify's tables of F one too high at each of indices: every F value
    the sweep reads, and every G value of a basis plan, comes from them.
    Each value is computed on its own, so a corrupt one never reaches its
    neighbours."""

    class OffByOne(verify._Lazy):
        def __missing__(self, e):
            value = self[e] = gen(self.seed, e) + (self.seed == F_SEED and e in indices)
            return value

    monkeypatch.setattr(verify, "_Lazy", OffByOne)


def test_oracle_check_catches_a_corrupt_table(catalog, monkeypatch):
    # F(1): read in the grid's box, m and n in -1..0, as F(m + 1) at m = 0,
    # and so in the grid
    _corrupt_table(monkeypatch, 1)
    eq8 = catalog.get("Eq8")
    spec = small_spec("m", "n")
    assert verify._grid(eq8, spec).box == [[range(-1, 1), range(-1, 1)]]  # m, n
    assert not verify_grid(eq8, spec).passed
    with pytest.raises(InternalFault, match="oracle disagrees with evaluator on 'Eq8'"):
        verify_grid(eq8, spec, use_oracle=True)


def _corrupt_f_table(monkeypatch):
    # F(-2) and F(2) one too high: the fast sweep disagrees with the oracle
    # at m = -2 and m = 2, and with itself nowhere
    _corrupt_table(monkeypatch, -2, 2)


@pytest.mark.parametrize("held", [1, verify._HELD_CHECKS])
def test_oracle_fault_names_the_first_disagreement_in_sweep_order(monkeypatch, held):
    # held 1: each point is compared in a flush of its own
    monkeypatch.setattr(verify, "_HELD_CHECKS", held)
    _corrupt_f_table(monkeypatch)
    identity = parse_identity("F(m)*F(m) == F(m)^2", name="square", params=("m",))
    spec = small_spec("m")
    assert verify_grid(identity, spec).passed
    with pytest.raises(InternalFault) as info:
        verify_grid(identity, spec, use_oracle=True)
    assert str(info.value) == ("oracle disagrees with evaluator on 'square' at {'m': -2}, "
                               "seed Seed(g0=0, g1=1): oracle (1, 1) vs fast (0, 0)")


def test_oracle_fault_before_an_evaluation_error_wins(monkeypatch):
    # the exponent 1 - m is negative from m = 2 on, after the fault at m = -2
    _corrupt_f_table(monkeypatch)
    identity = parse_identity("F(m)^(1 - m) == F(m)^(1 - m)", name="late-error",
                              params=("m",))
    spec = small_spec("m")
    with pytest.raises(EvalError, match=r"^negative exponent -1 in power at point \(m=2\), "
                                        r"seed Seed\(g0=0, g1=1\)$"):
        verify_grid(identity, spec)
    with pytest.raises(InternalFault) as info:
        verify_grid(identity, spec, use_oracle=True)
    assert str(info.value) == ("oracle disagrees with evaluator on 'late-error' at {'m': -2}, "
                               "seed Seed(g0=0, g1=1): oracle (-1, -1) vs fast (0, 0)")


@pytest.mark.parametrize("held", [3, 4, verify._HELD_CHECKS])
def test_oracle_fault_names_a_later_seed_inside_a_flush(monkeypatch, held):
    # F(3) one too high: on the two-pair basis, B10(4) = F(3) is wrong and
    # B01(3) = F(3) is never read, since the sides read G at even indices
    # only. So every seed with g0 != 0 is wrong where a side reads G(4), and
    # the first seed, (0, 1), nowhere; the left side G(2*m + 2) first reads
    # it at m = 1. m = 1 is the sixth of nine points: a flush of its own
    # (held 3), the second of a flush of two (held 4), or the sixth of the
    # one flush
    _corrupt_table(monkeypatch, 3)
    monkeypatch.setattr(verify, "_HELD_CHECKS", held)
    identity = parse_identity("G(2*m + 2) == 3*G(2*m) - G(2*m - 2)", name="even",
                              params=("m",))
    spec = GridSpec({"m": (-4, 4)}, (Seed(0, 1), Seed(2, 1), Seed(3, 7)))
    assert [(p.basis, p.seed, p.shift) for p in plans_of(identity, spec)] == [
        (True, None, None)]
    with pytest.raises(InternalFault) as info:
        verify_grid(identity, spec, use_oracle=True)
    # G seeded (2, 1) at 4 is 7; the fast sweep reads 2*B10(4) + B01(4) = 2*3 + 3
    assert str(info.value) == ("oracle disagrees with evaluator on 'even' at {'m': 1}, "
                               "seed Seed(g0=2, g1=1): oracle (7, 7) vs fast (9, 7)")


def test_oracle_holds_a_bounded_number_of_checks(monkeypatch):
    # 100,000 checks, 25,000 points with distinct values: held and compared
    # in one flush for the whole grid, they peak at over 8 MB
    identity = parse_identity("1000*m + n == n + 1000*m", name="wide", params=("m", "n"))
    spec = GridSpec({"m": (0, 249), "n": (0, 99)})
    assert spec.checks(identity.free_params) == 100_000
    verify_grid(identity, spec, use_oracle=True)  # compiled outside the trace
    tracemalloc.start()
    try:
        assert verify_grid(identity, spec, use_oracle=True).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def _handed_over(monkeypatch, change):
    """verify's oracle checks, each flush first changing held with
    change(held, values per point)."""
    flush = verify._OracleCheck.flush

    def changed(check):
        if check.held:
            change(check.held, 2 * len(check.seeds))
        flush(check)
    monkeypatch.setattr(verify._OracleCheck, "flush", changed)


def test_oracle_faults_when_a_pass_hands_over_too_few_points(catalog, monkeypatch):
    eq8, spec = catalog.get("Eq8"), small_spec("m", "n", lo=-2, hi=2, seeds=STANDARD_SEEDS)
    assert verify._grid(eq8, spec).order == ("m", "n")
    _handed_over(monkeypatch, lambda held, width: held.__delitem__(slice(-width, None)))
    with pytest.raises(InternalFault) as info:
        verify_grid(eq8, spec, use_oracle=True)
    # the last point in sweep order, m then n
    assert str(info.value) == ("oracle got no values on 'Eq8' from {'m': 2, 'n': 2} on: "
                               "the sweep handed over fewer points than the grid has")


def test_oracle_faults_when_a_pass_hands_over_too_many_points(catalog, monkeypatch):
    eq8, spec = catalog.get("Eq8"), small_spec("m", "n", lo=-2, hi=2, seeds=STANDARD_SEEDS)
    _handed_over(monkeypatch, lambda held, width: held.extend(held[-width:]))
    with pytest.raises(InternalFault) as info:
        verify_grid(eq8, spec, use_oracle=True)
    # 26 points' values, two per seed, for the grid's 25
    assert str(info.value) == "oracle got 208 values on 'Eq8' for 25 points left, 8 each"


# --- the verify command's fan-out: one job per identity, one pool -------------

VARIANTS = str(DATA / "eq_variants.cat")
SMALL_GRID = ("--n", "0..2", "--m", "-2..2", "--p", "-2..2", "--q", "-2..2")


def verify_command(capsys, *argv):
    code = cli.main(["verify", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stanzas(path, *entries):
    """A catalog file of (name, params, identity) entries."""
    path.write_text("".join(f"name: {name}\nparams: {params}\npaper: t\n"
                            f"identity: {text}\n\n" for name, params, text in entries))
    return str(path)


def test_workers_match_sequential(inline_pool, capsys):
    # the commands of the golden-bytes tests of verify --all and the oracle
    # box in test_cli.py
    for argv in (("--all", "--format", "json"),
                 ("--all", "--oracle", "--n", "0..4", "--m", "-2..2", "--p", "-2..2",
                  "--q", "-2..2", "--format", "json")):
        serial = verify_command(capsys, *argv)
        assert serial[0] == 0
        for workers in ("2", "3"):
            assert verify_command(capsys, *argv, "--workers", workers) == serial
    assert inline_pool == [2, 3, 2, 3]


def test_workers_match_on_failing_identity(capsys, monkeypatch):
    # the golden-bytes test of the variants in test_cli.py, in a real pool
    # of 2 processes: six reports with failures cross a process boundary
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ("--file", VARIANTS, *SMALL_GRID, "--format", "json",
            "--seeds", "0,1", "2,1", "3,7", "-4,5", "0,0", "1,0", "3,7")
    serial = verify_command(capsys, *argv)
    assert serial[0] == 1
    assert verify_command(capsys, *argv, "--workers", "2") == serial


@pytest.mark.parametrize("workers,cpus,pool", [
    (10 ** 6, 3, [3]),     # clamped to the CPU count
    (4, 64, [4]),
    (64, 64, [6]),         # clamped to the identities: the catalog has 6
    (4, None, []),         # an unknown CPU count means one process: no pool
])
def test_pool_size_is_clamped(inline_pool, monkeypatch, capsys, workers, cpus, pool):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    argv = ("--file", VARIANTS, *SMALL_GRID, "--format", "json")
    serial = verify_command(capsys, *argv)
    assert serial[0] == 1
    assert verify_command(capsys, *argv, "--workers", str(workers)) == serial
    assert inline_pool == pool


def test_eval_error_names_the_same_point_across_workers(monkeypatch, capsys, tmp_path):
    # real pools of 2 processes: the error of the first identity to raise,
    # in catalog order, crosses the process boundary with its message
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    raises = ("neg-pow", "m p", "F(m)^p == G(p)")
    passes = ("shift", "m p", "G(p + m + 2) == G(p + m + 1) + G(p + m)")
    ranked = ("ranked", "n m", "sum(k, 0, n, F(k + m)) == F(m + n + 2) - F(m + 1)")
    argv = ("--m", "-3..3", "--p", "-2..2", "--n", "-1..2", "--seeds", "2,1", "0,1")
    eval_error = ("fibkit: error: negative exponent -2 in power at point (m=-3, p=-2), "
                  "seed Seed(g0=2, g1=1)\n")
    rank_error = ("fibkit: error: rank parameter 'n' of 'ranked' must stay >= 0, "
                  "got range -1..2\n")
    for entries, err in (((raises, passes), eval_error),
                         ((passes, raises), eval_error),
                         ((passes, ranked), rank_error),
                         ((raises, ranked), eval_error)):
        path = stanzas(tmp_path / "raises.cat", *entries)
        for workers in ("1", "2"):
            assert verify_command(capsys, "--file", path, *argv, "--workers", workers) \
                == (2, "", err)


def test_first_error_drops_the_jobs_not_started(monkeypatch, capsys, tmp_path):
    # a real pool of 2 processes; the first identity raises at once, and the
    # 20 after it would take 10 s in all, 5 s in the pool. The workers must
    # be forked to run the patched verify_grid below.
    if multiprocessing.get_context().get_start_method() != "fork":
        pytest.skip("the pool's workers are not forked")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    started = tmp_path / "started"
    real = cli.verify_grid

    def slow(identity, spec, **kwargs):
        with open(started, "a") as log:
            log.write(identity.name + "\n")
        if identity.name != "neg-pow":
            time.sleep(0.5)
        return real(identity, spec, **kwargs)

    monkeypatch.setattr(cli, "verify_grid", slow)
    path = stanzas(tmp_path / "slow.cat", ("neg-pow", "m p", "F(m)^p == G(p)"),
                   *((f"ok{i}", "m", "F(m + 2) == F(m + 1) + F(m)") for i in range(20)))
    argv = ("--file", path, "--m", "-3..3", "--p", "-2..2", "--seeds", "2,1", "0,1")
    serial = verify_command(capsys, *argv)
    assert serial[:2] == (2, "") and "at point (m=-3, p=-2)" in serial[2]
    assert started.read_text() == "neg-pow\n"
    started.unlink()
    t0 = time.perf_counter()
    assert verify_command(capsys, *argv, "--workers", "2") == serial
    assert time.perf_counter() - t0 < 2.5
    assert len(started.read_text().split()) < 21


def test_verify_command_shares_one_pool(inline_pool, monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ("--all", *SMALL_GRID, "--format", "json")
    serial = verify_command(capsys, *argv)
    assert serial[0] == 0
    assert inline_pool == []
    assert verify_command(capsys, *argv, "--workers", "2") == serial
    assert inline_pool == [2]  # one pool for all 29 identities
    # one identity is one job: no pool
    assert verify_command(capsys, "--id", "Eq8", *SMALL_GRID, "--workers", "2")[0] == 0
    assert inline_pool == [2]


# --- the sweep against point-by-point evaluation ------------------------------

NAMES = ("m", "n", "p", "q")


def _linear(names, const, terms):
    node = Lit(const)
    for coeff, name in terms:
        node = Add(node, Sym(name) if coeff == 1 else Mul(Lit(coeff), Sym(name)))
    return node


def _index_exprs(names):
    return st.builds(_linear, st.just(names), st.integers(-3, 3),
                     st.lists(st.tuples(st.integers(-2, 2), st.sampled_from(names)),
                              max_size=2))


def _values(names, kinds=("F", "L", "G")):
    index = _index_exprs(names)
    exponent = st.one_of(st.integers(0, 3).map(Lit), st.sampled_from(names).map(Sym))
    leaves = st.one_of(
        st.builds(SeqRef, st.sampled_from(kinds), index),
        st.integers(-3, 3).map(Lit),
        st.builds(Sign, index),
        st.builds(Binom, index, index),
    )
    return st.recursive(leaves, lambda children: st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Pow, children, exponent),
    ), max_leaves=5)


@functools.lru_cache(maxsize=None)  # building a strategy costs more than drawing
def _sides(names):
    index = _index_exprs(names)
    sums = st.builds(Sum, st.just("k"), st.one_of(st.just(Lit(0)), index),
                     st.one_of(st.sampled_from(names).map(Sym), index),
                     _values(names + ("k",)))
    # linear in F and L along the first name: the plan with no G may shift
    shifted = _shifted_sides(names[1:], names[0], "FL")
    top = st.one_of(_values(names), sums, shifted)
    return st.one_of(top, st.builds(Add, top, top), shifted)


def _g_linear(names):
    """Values with exactly one G factor in every term."""
    free = _values(names, kinds=("F", "L"))
    g = st.builds(SeqRef, st.just("G"), _index_exprs(names))
    return st.recursive(st.one_of(g, st.builds(Mul, free, g)), lambda inner: st.one_of(
        st.builds(Add, inner, inner),
        st.builds(Sub, inner, inner),
        st.builds(Neg, inner),
        st.builds(Mul, free, inner),
        st.builds(Mul, inner, free),
    ), max_leaves=4)


@functools.lru_cache(maxsize=None)
def _g_linear_sides(names):
    index = _index_exprs(names)
    sums = st.builds(Sum, st.just("k"), st.one_of(st.just(Lit(0)), index),
                     st.one_of(st.sampled_from(names).map(Sym), index),
                     _g_linear(names + ("k",)))
    top = st.one_of(_g_linear(names), sums)
    return st.one_of(top, st.builds(Add, top, top))


SEEDS = st.one_of(st.just(Seed(0, 0)), st.builds(Seed, st.integers(-5, 5), st.integers(-5, 5)))


def _draw_grid(data, identity):
    ranges = {}
    for p in identity.free_params:
        lo = data.draw(st.integers(0 if p in identity.rank_params else -3, 3))
        ranges[p] = (lo, lo + data.draw(st.integers(0, 2)))
    return ranges


def _point_by_point(identity, spec, value=oracle_eval):
    """Failures of value, the oracle by default, evaluated point by point,
    or the point and seed where it meets its first error; the oracle
    shares no code with the sweep."""
    params = identity.free_params
    failures = []
    for seed_idx, seed in enumerate(spec.seeds):
        for vals in spec.points(params):
            pt = ParamPoint(dict(zip(params, vals)), seed)
            try:
                lv, rv = value(identity.lhs, pt), value(identity.rhs, pt)
            except EvalError:
                desc = ", ".join(f"{p}={v}" for p, v in zip(params, vals))
                return None, f" at point ({desc}), seed {seed}"
            if lv != rv:
                failures.append((vals, seed_idx, lv, rv))
    failures.sort(key=lambda f: (f[0], f[1]))
    return [(tuple(zip(params, vals)), spec.seeds[si], lv, rv)
            for vals, si, lv, rv in failures], None


def _matches_oracle_and_point_by_point(identity, spec, value=oracle_eval):
    """The sweep, checked by the oracle at every point and seed and run
    without it, gives the failures of value evaluated point by point."""
    expected, error = _point_by_point(identity, spec, value)
    for use_oracle in (True, False):
        try:
            report = verify_grid(identity, spec, use_oracle=use_oracle)
        except InternalFault:
            raise
        except FibkitError as exc:
            assert error is not None and str(exc).endswith(error), (str(exc), error)
            continue
        assert error is None
        assert [(f.point, f.seed, f.lhs, f.rhs) for f in report.failures] == expected
        assert report.total == len(spec.seeds) * len(list(spec.points(identity.free_params)))


@given(st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_sweep_matches_oracle_and_point_by_point(data):
    params = tuple(data.draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4,
                                      unique=True)))
    lhs, rhs = data.draw(_sides(params)), data.draw(_sides(params))
    identity = parse_identity(f"{to_text(lhs)} == {to_text(rhs)}",
                              name="random", params=params)
    # duplicates and the seed (0, 0) allowed
    seeds = tuple(data.draw(st.lists(SEEDS, min_size=1, max_size=5)))
    spec = GridSpec(_draw_grid(data, identity), seeds)
    _matches_oracle_and_point_by_point(identity, spec)
    assert_declared_loop_order(identity, spec)


@given(st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_basis_sweep_matches_oracle_and_point_by_point(data):
    params = tuple(data.draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4,
                                      unique=True)))
    lhs, rhs = data.draw(_g_linear_sides(params)), data.draw(_g_linear_sides(params))
    identity = parse_identity(f"{to_text(lhs)} == {to_text(rhs)}",
                              name="random", params=params)
    # two distinct seeds suffice for the basis; at least three seeds in all
    seeds = data.draw(st.lists(SEEDS, min_size=2, max_size=4, unique=True))
    seeds += data.draw(st.lists(st.sampled_from(seeds), min_size=max(0, 3 - len(seeds)),
                                   max_size=2))
    spec = GridSpec(_draw_grid(data, identity), tuple(data.draw(st.permutations(seeds))))
    assert [plan.basis for plan in plans_of(identity, spec)] == [True]
    _matches_oracle_and_point_by_point(identity, spec)


# --- seed plans -----------------------------------------------------------------

VARIANT_SPEC = GridSpec({"n": (0, 2), "m": (-2, 2), "p": (-2, 2), "q": (-2, 2)},
                        (Seed(0, 1), Seed(0, 0), Seed(3, 7), Seed(-4, 5)))


def test_zero_seed_never_fails_a_linear_variant():
    variants = load_catalog_file(str(DATA / "eq_variants.cat"))
    for name in ("Eq1.shift", "Eq2.scale", "Eq4.shift"):
        identity = variants.get(name)
        assert [p.basis for p in plans_of(identity, VARIANT_SPEC)] == [True]
        seeds = {f.seed for f in verify_grid(identity, VARIANT_SPEC).failures}
        assert seeds == {Seed(0, 1), Seed(3, 7), Seed(-4, 5)}, name
    # the offset of Eq3.offset is no multiple of G: it fails at (0, 0) too
    offset = verify_grid(variants.get("Eq3.offset"), VARIANT_SPEC)
    assert Seed(0, 0) in {f.seed for f in offset.failures}


def test_basis_reports_only_the_seeds_that_differ():
    # lhs - rhs is g0 at every point: B10 differs everywhere, B01 nowhere
    identity = parse_identity("G(p) + G(0) == G(p)", name="g0", params=("p",))
    seeds = (Seed(0, 1), Seed(2, 1), Seed(0, 5), Seed(3, 7), Seed(2, 1))
    spec = GridSpec({"p": (-2, 2)}, seeds)
    report = verify_grid(identity, spec)
    assert [(dict(f.point)["p"], f.seed, f.lhs - f.rhs) for f in report.failures] == \
        [(p, seed, seed.g0) for p in range(-2, 3) for seed in seeds if seed.g0]
    _matches_oracle_and_point_by_point(identity, spec)


def test_g_free_identity_fails_once_per_seed_at_each_point():
    bad = parse_identity("F(m + 1) == F(m)", name="off-by-one", params=("m",))
    seeds = (Seed(0, 1), Seed(2, 1), Seed(0, 0), Seed(2, 1))
    spec = GridSpec({"m": (-3, 3)}, seeds)
    report = verify_grid(bad, spec)
    assert plans_of(bad, spec) == [verify._Plan(False, None, (0, 1, 2, 3))]
    failing = [m for m in range(-3, 4) if fib(m + 1) != fib(m)]
    assert [(dict(f.point)["m"], f.seed) for f in report.failures] == \
        [(m, seed) for m in failing for seed in seeds]
    assert all((f.lhs, f.rhs) == (fib(dict(f.point)["m"] + 1), fib(dict(f.point)["m"]))
               for f in report.failures)


@pytest.mark.parametrize("text", [
    "G(p)^2 == G(p + 1)*G(p - 1) + sign(p)",   # quadratic in G: true
    "G(p)*G(q) == G(q)*G(p + 1)",               # quadratic in G: false
    "G(p + 2) == G(p + 1) + G(p) + 3",          # a constant beside G: false
    "G(p)^2 == G(q)^2",                         # squares of G: false
    "sum(k, 0, q, G(p + k)) == G(p + q + 2) - G(p + 1) + 0*q",
])
def test_nonlinear_sides_take_the_per_seed_path(text):
    identity = parse_identity(text, name="t", params=("p", "q"))
    seeds = (Seed(0, 1), Seed(2, 1), Seed(3, 7), Seed(0, 0), Seed(3, 7))
    spec = GridSpec({"p": (-3, 3), "q": (0, 3)}, seeds)
    plans = plans_of(identity, spec)
    assert not any(plan.basis for plan in plans)
    _matches_oracle_and_point_by_point(identity, spec)


def test_per_seed_plan_runs_one_pass_per_distinct_seed():
    identity = parse_identity("G(p)*G(p) == G(p)*G(p + 1)", name="t", params=("p",))
    seeds = (Seed(0, 1), Seed(3, 7), Seed(0, 1), Seed(0, 0))
    spec = GridSpec({"p": (-3, 3)}, seeds)
    plans = plans_of(identity, spec)
    assert plans == [verify._Plan(False, Seed(0, 1), (0, 2)),
                     verify._Plan(False, Seed(3, 7), (1,)),
                     verify._Plan(False, Seed(0, 0), (3,))]
    _matches_oracle_and_point_by_point(identity, spec)


def test_two_distinct_seeds_take_the_basis():
    identity = parse_identity("G(p + 2) == G(p + 1) + F(p)*G(p - 1)", name="t", params=("p",))
    seeds = (Seed(3, 7), Seed(-4, 5), Seed(3, 7))
    spec = GridSpec({"p": (-3, 3)}, seeds)
    assert [plan.basis for plan in plans_of(identity, spec)] == [True]
    one = GridSpec(spec.ranges, seeds[:1])
    assert [plan.basis for plan in plans_of(identity, one)] == [False]
    _matches_oracle_and_point_by_point(identity, spec)


def test_a_grid_builds_one_f_table(catalog, monkeypatch):
    made = []  # every table verify makes, in the order made

    class Made(verify._Lazy):
        def __init__(self, seed):
            made.append(self)
            super().__init__(seed)

    monkeypatch.setattr(verify, "_Lazy", Made)
    spec = GridSpec({"n": (0, 2), "m": (-2, 2), "p": (-2, 2), "q": (-2, 2)})
    fixed = GridSpec({**spec.ranges, "p": (1, 1)})
    grids = [
        (catalog.get("Eq1"), spec, [(True, None, "p")]),        # G is F
        (catalog.get("Eq1"), fixed, [(True, None, None)]),      # G is F one back, then F
        (VARIANT_CATALOG.get("Eq1.square"), spec,               # each G derived from F
         [(False, seed, None) for seed in spec.seeds]),
        (catalog.get("Lemma10"), GridSpec({"m": (0, 2), "n": (0, 2)}),
         [(False, None, None)]),                                # no G; L derived from F
    ]
    for identity, grid, kinds in grids:
        assert [(p.basis, p.seed, p.shift) for p in plans_of(identity, grid)] == kinds
        made.clear()
        verify_grid(identity, grid)
        # the call's F and L, then a G table per pass on a seed of its own
        f_tab, l_tab, *own = made
        assert (f_tab.seed, l_tab.seed) == (F_SEED, LUCAS_SEED) and f_tab
        assert {table.seed for table in own} == {seed for _, seed, _ in kinds} - {None}
        assert bool(l_tab) == (identity.name == "Lemma10")
        # each holds only right values
        assert all(value == gen(table.seed, e) for table in made for e, value in table.items())
    # an evaluation error: one F table for the sweep; the locator's tables
    # compute each value when it is read
    bad = parse_identity("F(m + 55)^p == G(p - 55)", name="neg-pow", params=("m", "p"))
    made.clear()
    with pytest.raises(EvalError, match="^negative exponent"):
        verify_grid(bad, GridSpec({"m": (-3, 3), "p": (-2, 2)},
                                  (Seed(2, 1), F_SEED, Seed(3, 7), Seed(3, 7))))
    assert [table.seed for table in made[:2]] == [F_SEED, LUCAS_SEED]
    assert [table.seed for table in made[2:]].count(F_SEED) == 1  # the locator's F


# Identities whose indices sit near an offset c, written in for c: true
# ones on each kind of plan, one false on its box, so that the whole grid
# follows, and one that raises where n < 1.
_OFFSET_TEXTS = [
    ("F(m + c + 1)*F(n) + F(m + c)*F(n - 1) == F(n + m + c)", ("m", "n")),
    ("F(m + c + n) + sign(n)*F(m + c - n) == L(n)*F(m + c)", ("m", "n")),
    ("G(m + c + 2) == G(m + c + 1) + G(m + c)", ("m",)),
    ("sum(k, 0, n, L(k + c)) == L(n + c + 2) - L(c + 1)", ("n",)),
    ("G(m + c)*G(n + c) == G(m + n + c)", ("m", "n")),
    ("F(m + c)^(n - 1) == F(m + c)", ("m", "n")),
]


def _outcome(identity, spec, state=None):
    try:
        return verify_grid(identity, spec, state=state).to_json_dict()
    except EvalError as exc:
        return str(exc)


@given(st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_grids_through_one_state_report_as_each_alone(data):
    # one command's state fills its tables from grid to grid with what
    # each grid reads, all of it right
    grids = []
    for i in range(data.draw(st.integers(2, 5))):
        text, params = data.draw(st.sampled_from(_OFFSET_TEXTS))
        c = data.draw(st.integers(-150, 150))
        identity = parse_identity(text.replace("c", f"({c})"), name=f"g{i}", params=params)
        seeds = tuple(data.draw(st.lists(SEEDS, min_size=1, max_size=3)))
        grids.append((identity, GridSpec(_draw_grid(data, identity), seeds)))
    state = verify._State()
    shared = [_outcome(identity, spec, state) for identity, spec in grids]
    assert shared == [_outcome(identity, spec) for identity, spec in grids]
    assert all(value == fib(e) for e, value in state.f_tab.items())
    assert all(value == lucas(e) for e, value in state.l_tab.items())


FAR_READS = """
name: far.step
params: m q
paper: far.step
identity: F(1000*m + q + 1000002) - F(1000*m + q + 1000001) - F(1000*m + q + 1000000) == 0

name: far.lucas
params: m q
paper: far.lucas
identity: L(7*m + q + 1000001) == F(7*m + q + 1000000) + F(7*m + q + 1000002)
"""


def test_adjacent_far_reads_take_one_walk(monkeypatch, capsys, tmp_path):
    # a far miss holds the value above it too: each run of adjacent reads in
    # a table takes one fast-doubling walk, at m = -1 and m = 0 of the
    # boxes, F's two in the first stanza, then L's two and F's at m = -1
    # (the first stanza's F at m = 0 is held); a walk per far miss took 11
    walks = []
    doubling = seq.fib_pair_doubling
    monkeypatch.setattr(seq, "fib_pair_doubling", lambda n: walks.append(n) or doubling(n))
    path = tmp_path / "far.cat"
    path.write_text(FAR_READS, encoding="utf-8")
    assert cli.main(["verify", "--all", "--file", str(path), "--m", "-2..2", "--q", "-2..2",
                     "--format", "json"]) == 0
    assert [report["failures"] for report in json.loads(capsys.readouterr().out)] == [[], []]
    assert len(walks) == 5


SHIFTED = parse_identity("G(p + 2) == G(p + 1) + G(p) + G(p - 1)",
                         name="shifted", params=("p",))


def test_oracle_catches_a_wrong_basis(catalog, monkeypatch):
    # p fixed: the two-pair basis plan
    spec = GridSpec({"p": (1, 1)})
    fixed = GridSpec({**VARIANT_SPEC.ranges, "p": (1, 1)}, VARIANT_SPEC.seeds)
    assert [p.shift for p in plans_of(catalog.get("Eq1"), fixed)] == [None]
    right = verify_grid(SHIFTED, spec).to_json_dict()
    # B10(e) read as F(e - 2), the sequence seeded (-1, 1), not as F(e - 1)
    source = verify._sweep_source
    monkeypatch.setattr(verify, "_compile_cache", {})
    monkeypatch.setattr(verify, "_sweep_source", lambda *args: source(*args).replace(
        " - 1]", " - 2]"))
    assert verify_grid(SHIFTED, spec).to_json_dict() != right
    for identity in (SHIFTED, catalog.get("Eq1")):
        with pytest.raises(InternalFault,
                           match=f"oracle disagrees with evaluator on '{identity.name}'"):
            verify_grid(identity, fixed, use_oracle=True)


def _wrong_table(monkeypatch):
    # the shift plan's pass on B10's G table, derived from F, instead of F
    plans = verify._plans
    monkeypatch.setattr(verify, "_compile_cache", {})
    monkeypatch.setattr(verify, "_plans", lambda identity, spec, sides: [
        p._replace(seed=Seed(1, 0)) if p.shift else p for p in plans(identity, spec, sides)])


def _step_ahead(monkeypatch):
    # the first start pair taken one step ahead, at the second's value: G
    # read at its index, which the tables hold, and not one back
    op_code = verify._op_code
    monkeypatch.setattr(verify, "_compile_cache", {})
    monkeypatch.setattr(verify, "_op_code", lambda node, args, back: op_code(node, args, False))


def _wrong_step(monkeypatch):
    # the sides at s + 1 from a wrong recurrence, in the walk every sweep calls
    source = textwrap.dedent(inspect.getsource(verify._walk))
    assert source.count("l0 + l1") == 1
    scope = {}
    exec(source.replace("l0 + l1", "l1 + l1"), vars(verify), scope)
    monkeypatch.setattr(verify, "_compile_cache", {})
    monkeypatch.setitem(verify._COMPILE_GLOBALS, "_walk", scope["_walk"])


@pytest.mark.parametrize("mutate", [_wrong_table, _step_ahead, _wrong_step])
def test_oracle_catches_a_wrong_shift(catalog, monkeypatch, mutate):
    spec = GridSpec({"p": (-3, 3)})
    assert [p.shift for p in plans_of(catalog.get("Eq1"), VARIANT_SPEC)] == ["p"]
    right = verify_grid(SHIFTED, spec).to_json_dict()
    mutate(monkeypatch)
    assert [p.shift for p in plans_of(SHIFTED, spec)] == ["p"]
    assert verify_grid(SHIFTED, spec).to_json_dict() != right
    for identity in (SHIFTED, catalog.get("Eq1")):
        with pytest.raises(InternalFault,
                           match=f"oracle disagrees with evaluator on '{identity.name}'"):
            verify_grid(identity, VARIANT_SPEC, use_oracle=True)


def _oracle_mutant(monkeypatch, old, new):
    """verify's oracle replaced by fibkit.oracle with old changed to new in
    its source, and verify's grid entries by none, so that no grid keeps
    evaluators the real oracle built."""
    path = Path(oracle.__file__)
    source = path.read_text(encoding="utf-8")
    assert source.count(old) == 1
    mutant = types.ModuleType("fibkit.oracle")
    mutant.__package__ = "fibkit"
    exec(compile(source.replace(old, new), str(path), "exec"), mutant.__dict__)
    monkeypatch.setattr(fibkit, "oracle", mutant)
    monkeypatch.setattr(verify, "_compile_cache", {})


@pytest.mark.parametrize("old,new", [
    # every seed's G read from the first seed's table
    ("[list(map(values.__getitem__, idx)) for values in gens]",
     "[list(map(gens[0].__getitem__, idx)) for values in gens]"),
    # G marked seed-free: the first seed's values stand for all of them
    ("return lookup_each, True",
     "return (lambda cols, size: lookup_each(cols, size)[0]), False"),
])
def test_oracle_mutants_that_share_g_across_seeds_are_caught(catalog, monkeypatch, old, new):
    eq1 = catalog.get("Eq1")
    assert verify_grid(eq1, VARIANT_SPEC, use_oracle=True).passed
    _oracle_mutant(monkeypatch, old, new)
    with pytest.raises(InternalFault, match="oracle disagrees with evaluator on 'Eq1'"):
        verify_grid(eq1, VARIANT_SPEC, use_oracle=True)


# --- the index reader -----------------------------------------------------------

@given(st.data())
@settings(max_examples=200, deadline=None)
def test_affine_steps_each_symbol_outside_rest_by_its_coefficient(data):
    index = data.draw(st.recursive(_index_exprs(NAMES), lambda inner: st.one_of(
        st.builds(Add, inner, inner),
        st.builds(Sub, inner, inner),
        st.builds(Neg, inner),
        st.builds(Mul, inner, inner),
    ), max_leaves=4))
    const, coeffs, rest = affine(index)
    assert 0 not in coeffs.values()
    point = {name: data.draw(st.integers(-5, 5)) for name in NAMES}

    def value(at):
        return oracle_eval(index, ParamPoint(at))

    for name in NAMES:
        if name not in rest:
            assert value({**point, name: point[name] + 1}) - value(point) \
                == coeffs.get(name, 0)
    if not rest:
        assert value(dict.fromkeys(NAMES, 0)) == const


WIDE = " * ".join(f"(a{i} + b{i})" for i in range(32))  # 2^32 monomials


@pytest.mark.parametrize("text,form", [
    ("m - m", (0, {}, frozenset())),
    ("2*p - p", (0, {"p": 1}, frozenset())),
    ("p*(q - q) + p", (0, {"p": 1}, frozenset())),
    ("0*p*q + 3", (3, {}, frozenset())),
    ("p*q - p*q + m", (0, {"m": 1}, frozenset("pq"))),
    (WIDE, (0, {}, frozenset(f"{x}{i}" for x in "ab" for i in range(32)))),
], ids=["cancels", "stretched", "product-cancels", "scaled-by-0", "products", "wide"])
def test_affine_reads_products_without_expanding_them(text, form):
    assert affine(parse_expr(text)) == form


# --- the shift plan -------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _shifted_sides(names, s="s", kinds="G"):
    """Values linear in sequence refs of kinds, whose indices are all s
    plus an index over names, times F and L over names: they read s
    nowhere else."""
    def shifted(kind, index):
        return SeqRef(kind, Add(Sym(s), index))

    constants = st.integers(-3, 3).map(Lit)
    free = _values(names, kinds=("F", "L")) if names else constants
    g = st.builds(shifted, st.sampled_from(kinds), _index_exprs(names) if names else constants)
    return st.recursive(st.one_of(g, st.builds(Mul, free, g)), lambda inner: st.one_of(
        st.builds(Add, inner, inner),
        st.builds(Sub, inner, inner),
        st.builds(Neg, inner),
        st.builds(Mul, free, inner),
    ), max_leaves=4)


def _draw_shift_grid(data, kinds):
    """An identity whose sides are linear in refs of kinds at s plus an
    index over the others, and a grid on which, reading G, it takes a
    shift plan; reading F and L only, the plan with no G and no shift."""
    others = tuple(data.draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3,
                                      unique=True)))
    params = tuple(data.draw(st.permutations(others + ("s",))))
    top = _shifted_sides(others, kinds=kinds)
    sums = st.builds(Sum, st.just("k"), st.one_of(st.just(Lit(0)), _index_exprs(others)),
                     st.sampled_from(others).map(Sym),
                     _shifted_sides(others + ("k",), kinds=kinds))
    sides = st.one_of(top, sums, st.builds(Add, top, sums))
    lhs, rhs = data.draw(sides), data.draw(sides)
    identity = parse_identity(f"{to_text(lhs)} == {to_text(rhs)}",
                              name="random", params=params)
    # two to four distinct seeds, then duplicates
    seeds = data.draw(st.lists(SEEDS, min_size=2, max_size=4, unique=True))
    seeds += data.draw(st.lists(st.sampled_from(seeds), max_size=2))
    ranges = _draw_grid(data, identity)
    lo = data.draw(st.integers(-3, 3))
    ranges["s"] = (lo, lo + data.draw(st.integers(1, 7)))  # several recurrence steps
    spec = GridSpec(ranges, tuple(data.draw(st.permutations(seeds))))
    (plan,) = plans_of(identity, spec)
    g = kinds == "G"
    assert (plan.basis, plan.seed, plan.shift is not None) == (g, None, g)
    return identity, spec


def _shift_sweep_matches_oracle_and_point_by_point(data, kinds):
    _matches_oracle_and_point_by_point(*_draw_shift_grid(data, kinds))


@given(st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_shift_sweep_matches_oracle_and_point_by_point(data):
    _shift_sweep_matches_oracle_and_point_by_point(data, "G")


@given(st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_g_free_shift_sweep_matches_oracle_and_point_by_point(data):
    _shift_sweep_matches_oracle_and_point_by_point(data, "FL")


@given(st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_every_index_a_shift_sweep_reads_is_in_its_pinned_table(data):
    identity, spec = _draw_shift_grid(data, data.draw(st.sampled_from(("G", "FL"))))
    shift = plans_of(identity, spec)[0].shift
    ranges = dict(spec.ranges)
    if shift:  # the shift parameter's value nearest 0, and one before
        lo, hi = ranges[shift]
        z = min(max(lo, 0), hi)
        ranges[shift] = (z - 1, z)
    state = verify._State()
    try:
        verify_grid(identity, spec, state=state)
    except EvalError:
        return  # located point by point
    # what the sides read at every point, with a shift parameter at z - 1
    # or z, G on the basis seed (0, 1) being F
    pinned = verify._State()
    sweep = verify._point_sweep(identity)
    for point in GridSpec(ranges).points(identity.free_params):
        try:
            sweep(*((v,) for v in point), pinned.f_tab, pinned.l_tab, pinned.f_tab, (0,),
                  [], None)
        except EvalError:
            pass
    # a far miss also holds the value above the index read (see _Lazy)
    assert state.f_tab.keys() <= {e + d for e in pinned.f_tab for d in (0, 1)}
    assert state.l_tab.keys() <= {e + d for e in pinned.l_tab for d in (0, 1)}


class _HeldChecks:
    """A stand-in for verify._OracleCheck that keeps each batch flushed."""

    def __init__(self, cap):
        self.held, self.cap, self.batches = [], cap, []

    def flush(self):
        self.batches.append(list(self.held))
        self.held.clear()


def _stepped(pair, z, s):
    """(X(s - 1), X(s)) of the sequence with X(s + 1) = X(s) + X(s - 1)
    whose pair at z is pair, stepped from z to s one value at a time."""
    a, b = pair
    for _ in range(s - z):
        a, b = b, a + b
    for _ in range(z - s):
        a, b = b - a, a
    return a, b


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_walk_matches_the_line_stepped_point_by_point(data):
    small = st.integers(-4, 4)
    head, tail = (tuple(data.draw(st.lists(small, max_size=2))) for _ in range(2))
    if data.draw(st.booleans()):  # a line of the shift parameter
        lo = data.draw(small)
        axis = range(lo, lo + data.draw(st.integers(1, 6)))
        z = data.draw(st.sampled_from(axis))
    else:  # one point, with no shift parameter
        axis, z = None, 0
    lhs = (data.draw(small), data.draw(small))
    # the right side agrees with the left, or differs in one value or both
    rhs = data.draw(st.sampled_from([lhs, (lhs[0], lhs[1] + 1), (lhs[0] - 1, lhs[1]),
                                     (data.draw(small), data.draw(small))]))
    basis = data.draw(st.booleans())
    pairs = data.draw(st.lists(st.tuples(small, small), min_size=1, max_size=3))
    pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=2))  # duplicates
    seeds = tuple((i, g0, g1) for i, (g0, g1) in enumerate(pairs)) if basis \
        else tuple(range(len(pairs)))
    check = data.draw(st.one_of(st.none(), st.integers(2, 9).map(_HeldChecks)))

    failures, batches, held = [], [], []
    for s in axis or (None,):
        point = head if s is None else head + (s,) + tail
        (l0, l1), (r0, r1) = (lhs, rhs) if s is None else (_stepped(lhs, z, s),
                                                           _stepped(rhs, z, s))
        for seed in seeds:
            if basis:
                lv, rv = seed[1] * l0 + seed[2] * l1, seed[1] * r0 + seed[2] * r1
            else:
                lv, rv = l1, r1
            held += [lv, rv]
            if lv != rv:
                failures.append((point, seed[0] if basis else seed, lv, rv))
        if check and len(held) >= check.cap:  # only after a point's last seed
            batches.append(held)
            held = []

    fail = []
    verify._walk(head, tail, axis, z, *lhs, *rhs, seeds, basis, fail, check)
    assert fail == failures
    if check:
        assert check.batches == batches and check.held == held


@functools.lru_cache(maxsize=None)
def _line_sides(others, kinds):
    """Sides of a shift plan along s shaped like Eq(1)..(4): sums over k
    of F and L factors times sequence refs of kinds at s + x*k + (index
    over others and k), x one of others, beside the values of
    _shifted_sides."""
    def line_ref(kind, index, x):
        return SeqRef(kind, Add(Add(Sym("s"), Mul(Sym(x), Sym("k"))), index))

    names = others + ("k",)
    exponent = st.one_of(st.sampled_from(names).map(Sym),
                         st.builds(Sub, st.sampled_from(others).map(Sym), st.just(Sym("k"))))
    free = st.one_of(_values(names, kinds=("F", "L")),
                     st.builds(Pow, st.builds(SeqRef, st.sampled_from("FL"),
                                              _index_exprs(names)), exponent))
    ref = st.builds(line_ref, st.sampled_from(kinds), _index_exprs(names),
                    st.sampled_from(others))
    summand = st.recursive(st.one_of(ref, st.builds(Mul, free, ref)), lambda inner: st.one_of(
        st.builds(Add, inner, inner),
        st.builds(Sub, inner, inner),
        st.builds(Mul, free, inner),
    ), max_leaves=3)
    sums = st.builds(Sum, st.just("k"), st.one_of(st.just(Lit(0)), _index_exprs(others)),
                     st.sampled_from(others).map(Sym), summand)
    return st.one_of(sums, st.builds(Add, sums, sums),
                     st.builds(Add, sums, _shifted_sides(others, kinds=kinds)))


@given(st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_line_sums_match_oracle_and_eval_side(data):
    kinds = data.draw(st.sampled_from(("G", "FL")))
    others = tuple(data.draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=2,
                                      unique=True)))
    params = tuple(data.draw(st.permutations(others + ("s",))))
    lhs, rhs = data.draw(_line_sides(others, kinds)), data.draw(_line_sides(others, kinds))
    identity = parse_identity(f"{to_text(lhs)} == {to_text(rhs)}",
                              name="random", params=params)
    seeds = data.draw(st.lists(SEEDS, min_size=2, max_size=3, unique=True))
    seeds += data.draw(st.lists(st.sampled_from(seeds), max_size=1))
    ranges = _draw_grid(data, identity)
    lo = data.draw(st.integers(-3, 3))
    ranges["s"] = (lo, lo + data.draw(st.integers(1, 5)))
    spec = GridSpec(ranges, tuple(data.draw(st.permutations(seeds))))
    (plan,) = plans_of(identity, spec)
    g = kinds == "G"
    assert (plan.basis, plan.seed, plan.shift is not None) == (g, None, g)
    _matches_oracle_and_point_by_point(identity, spec, eval_side)


def _for_loops(node, axis):
    """The for statements under node that walk the grid axis named."""
    return [loop for loop in ast.walk(node) if isinstance(loop, ast.For)
            and isinstance(loop.iter, ast.Name) and loop.iter.id == axis]


@pytest.mark.parametrize("oracle_check", [False, True])
def test_eq1_line_evaluates_its_start_pairs_in_one_loop(catalog, oracle_check):
    eq1 = catalog.get("Eq1")
    spec = cli._grid_for(eq1, cli.build_parser().parse_args(["verify", "--all"]))
    grid = verify._grid(eq1, spec)
    (plan,) = grid.plans
    assert grid.order == ("n", "m", "q", "p") and plan.shift == "p"
    source = verify._sweep_source(eq1, grid)
    tree = ast.parse(source)
    (line,) = _for_loops(tree, "_a2")  # q: each of its iterations is a line of p
    # the sweep evaluates the start pairs and no value of p's axis: its one
    # read of the axis hands it to the walk of the line (see verify._walk)
    assert not _for_loops(tree, "_a3")
    (read,) = [node for node in ast.walk(line) if isinstance(node, ast.Name)
               and node.id == "_a3"]
    (walk,) = [node for node in ast.walk(line) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "_walk"]
    assert any(arg is read for arg in walk.args)
    # the one sweep serves both: with a check every line is walked and handed
    # over, without one only a line whose start pairs differ
    (guard,) = [node for node in ast.walk(line)
                if isinstance(node, ast.If) and walk in ast.walk(node)]
    assert isinstance(walk.args[-1], ast.Name) and walk.args[-1].id == "_check"
    check = object() if oracle_check else None
    at = {"_l0": 1, "_r0": 1, "_l1": 2, "_r1": 2, "_check": check}
    assert bool(eval(compile(ast.Expression(guard.test), "<guard>", "eval"), {}, at)) is oracle_check
    start = line.body
    # the sum is one loop with a total per start pair: the basis pairs at
    # p = z, bound once, reading G one back and at one shared index
    assert source.count("v2 = ") == 1 and "_s0" not in source
    (loop,) = [stmt for stmt in start if isinstance(stmt, ast.For)]
    totals = [stmt for stmt in loop.body if isinstance(stmt, ast.AugAssign)]
    assert len({total.target.id for total in totals}) == 2
    (index,) = [stmt.targets[0].id for stmt in loop.body if isinstance(stmt, ast.Assign)
                and any(isinstance(node, ast.Name) and node.id == "v2"
                        for node in ast.walk(stmt.value))]
    assert [[ast.unparse(node) for node in ast.walk(total.value)
             if isinstance(node, ast.Subscript) and node.value.id == "_G"]
            for total in totals] == [[f"_G[{index} - 1]"], [f"_G[{index}]"]]
    # no list is built per line: the summands are computed in the loop
    assert not [node for stmt in start for node in ast.walk(stmt)
                if isinstance(node, ast.ListComp)]


class _CountingTable(verify._Lazy):
    reads = 0

    def __getitem__(self, index):
        _CountingTable.reads += 1
        return super().__getitem__(index)


def test_shift_sweep_evaluates_the_sides_twice_per_line(monkeypatch):
    monkeypatch.setattr(verify, "_Lazy", _CountingTable)
    reads = []
    for hi in (1, 28):  # p takes 3 values, then 30
        _CountingTable.reads = 0
        spec = GridSpec({"p": (-1, hi)})
        assert [p.shift for p in plans_of(SHIFTED, spec)] == ["p"]
        report = verify_grid(SHIFTED, spec)
        assert report.failures and report.total == (hi + 2) * len(spec.seeds)
        reads.append(_CountingTable.reads)
    # one line in the box, which fails, then the grid's one line: each the
    # four G reads of both sides, at p = -1 and one back
    assert reads == [16, 16]


def test_shift_plan_loop_orders_on_the_default_grid(catalog):
    # every entry that reads G takes a shift plan there, and every entry
    # loops in declared order with its shift parameter, if any, innermost
    args = cli.build_parser().parse_args(["verify", "--all"])
    shifts = {}
    for entry in catalog:
        grid = assert_declared_loop_order(entry, cli._grid_for(entry, args))
        assert grid.fixed == 0
        shifts[entry.name] = grid.plans[0].shift
    g_free = ("Eq8", "Lemma10", "Lemma11", "Lemma12", "Lemma13", "Eq14", "Eq16", "Eq18", "Eq19")
    assert shifts == {entry.name: "n" if entry.name.startswith("S3.") else
                      None if entry.name in g_free else "p" for entry in catalog}
    assert len(shifts) == 29


def test_default_sweeps_emit_the_sides_and_leave_each_line_to_the_walk(catalog):
    # the walk along a line, its seeds and its oracle hand-off are written
    # once, in verify._walk, and a line's start pairs are the basis pairs at
    # one value: the 29 sweeps of a fresh verify --all hold 24,354 bytes,
    # against 25,303 with start pairs at two values of the shift parameter
    # and 36,083 with the walk written into each
    args = cli.build_parser().parse_args(["verify", "--all"])
    size = 0
    for entry in catalog:
        grid = verify._grid(entry, cli._grid_for(entry, args))
        source = verify._sweep_source(entry, grid)
        size += len(source.encode())
        tree = ast.parse(source)
        shift = grid.plans[0].shift
        assert not _for_loops(tree, "_S"), entry.name
        assert not shift or not _for_loops(tree, f"_a{grid.order.index(shift)}"), entry.name
    assert size <= 24_600


@pytest.mark.parametrize("text,params,ranges", [
    ("F(p)*G(p) == G(p + 1) - G(p - 1)", ("p",), {"p": (-3, 3)}),   # p outside G
    ("G(2*p) == G(2*p + 1) - G(2*p - 1)", ("p",), {"p": (-3, 3)}),  # coefficient 2
    ("G(-p) == G(1 - p) + G(-p - 1) - G(1 - p)", ("p",), {"p": (-3, 3)}),  # -1
    ("G(p*q) == G(p*q + 2) - G(p*q + 1)", ("p", "q"), {"p": (-3, 3), "q": (-2, 2)}),
    ("G(p + 2) == G(p + 1) + G(p)", ("p",), {"p": (3, 3)}),         # p fixed
    ("G(p) + G(0) == G(p)", ("p",), {"p": (-2, 2)}),                # G(0) not shifted
    ("G(p + q) == G(p) + sign(p)*G(q)", ("p", "q"), {"p": (-2, 2), "q": (-2, 2)}),
])
def test_shift_plan_needs_every_g_index_shifted_by_one(text, params, ranges):
    identity = parse_identity(text, name="t", params=params)
    for seeds in ((Seed(0, 1), Seed(3, 7), Seed(3, 7)), (Seed(3, 7),)):
        spec = GridSpec(ranges, seeds)
        plans = plans_of(identity, spec)
        assert all(plan.shift is None for plan in plans)
        assert [plan.basis for plan in plans] == [len(seeds) > 1]
        _matches_oracle_and_point_by_point(identity, spec)


@pytest.mark.parametrize("side", [
    "F(m)*F(m)",            # two factors that read m
    "F(m) + 1",             # a term with none
    "sign(m)*F(m)",         # m outside an index
    "F(2*m)",               # coefficient 2
    "binom(m, 2)*F(m)",
    "sum(k, 0, m, F(k))",   # m in a bound
])
def test_g_free_shift_needs_one_shifted_factor_per_term(side):
    identity = parse_identity(f"{side} == F(m + 1)", name="t", params=("m",))
    spec = GridSpec({"m": (0, 5)}, (Seed(0, 1), Seed(3, 7), Seed(3, 7)))
    assert plans_of(identity, spec) == [verify._Plan(False, None, (0, 1, 2))]
    _matches_oracle_and_point_by_point(identity, spec)


# Sides that agree at m = -3, the value of m in -9..-3 nearest 0, and differ
# one step before it. On the G side's line of m, which starts at m = -3,
# the start pairs differ only in their first values; the F side reads no G
# and is checked point by point.
EDGES = ("F(m) == F(m) + F(m + 3)", "G(m) == G(m) + G(m + 3)")
LINE_GUARD = "if _l0 != _r0 or _l1 != _r1 or _check:"


def _edge_failures(text):
    identity = parse_identity(text, name="edge", params=("m",))
    seeds = (Seed(0, 1), Seed(3, 7), Seed(2, 1), Seed(0, 1))
    spec = GridSpec({"m": (-9, -3)}, seeds)
    g = text.startswith("G")
    assert [p.shift for p in plans_of(identity, spec)] == ["m" if g else None]
    value = gen if g else lambda seed, i: fib(i)
    expected = [((("m", m),), seed, value(seed, m), value(seed, m) + value(seed, m + 3))
                for m in range(-9, -2) for seed in seeds if value(seed, m + 3)]
    failures = [(f.point, f.seed, f.lhs, f.rhs) for f in verify_grid(identity, spec).failures]
    return failures, expected


@pytest.mark.parametrize("text", EDGES)
def test_line_guard_compares_both_start_pairs(text):
    failures, expected = _edge_failures(text)
    assert failures == expected
    if text.startswith("F"):  # every seed fails at m = -9..-4
        assert {dict(point)["m"] for point, *_ in failures} == set(range(-9, -3))
        assert len(failures) == 6 * 4


def test_a_line_guard_on_one_start_pair_misses_the_edges(monkeypatch):
    source = verify._sweep_source
    monkeypatch.setattr(verify, "_compile_cache", {})
    monkeypatch.setattr(verify, "_sweep_source",
                        lambda *args: source(*args).replace(LINE_GUARD, "if _l1 != _r1 or _check:", 1))
    failures, expected = _edge_failures(EDGES[1])
    assert expected and failures == []


def test_repeated_grid_is_planned_once(catalog, monkeypatch):
    monkeypatch.setattr(verify, "_compile_cache", {})
    orders, trees, sources = [], [], []
    order, sides, source = verify._loop_order, verify._sides, verify._sweep_source
    monkeypatch.setattr(verify, "_loop_order", lambda *args: orders.append(args[0].name)
                        or order(*args))
    monkeypatch.setattr(verify, "_sides", lambda identity: trees.append(identity.name)
                        or sides(identity))
    monkeypatch.setattr(verify, "_sweep_source", lambda *args: sources.append(args[0].name)
                        or source(*args))
    spec = GridSpec({"m": (-3, 3), "n": (-3, 3)})
    reports = [verify_grid(catalog.get("Eq8"), spec).to_json_dict() for _ in range(3)]
    assert orders == trees == sources == ["Eq8"] and reports == reports[:1] * 3
    assert len(verify._compile_cache) == 1
    # the oracle runs the entry's one sweep: nothing new is compiled
    assert verify_grid(catalog.get("Eq8"), spec, use_oracle=True).to_json_dict() == reports[0]
    assert sources == ["Eq8"] and len(verify._compile_cache) == 1
    # another grid, or another identity on it, is planned afresh
    verify_grid(catalog.get("Eq8"), GridSpec({"m": (-3, 3), "n": (-3, 2)}))
    verify_grid(catalog.get("Eq8"), GridSpec(spec.ranges, (F_SEED,)))
    verify_grid(catalog.get("Lemma10"), spec)
    assert orders == trees == ["Eq8", "Eq8", "Eq8", "Lemma10"]
    assert len(verify._compile_cache) == 4


def test_each_side_is_one_term_tree_per_grid_entry(catalog, monkeypatch):
    monkeypatch.setattr(verify, "_compile_cache", {})
    eq1 = catalog.get("Eq1")
    built, compiled = [], []
    terms, source = verify._terms, verify._sweep_source
    monkeypatch.setattr(verify, "_terms", lambda node, *args: (
        node is eq1.lhs or node is eq1.rhs) and built.append(node) or terms(node, *args))
    monkeypatch.setattr(verify, "_sweep_source", lambda identity, grid, *args:
                        compiled.append(grid.sides) or source(identity, grid, *args))
    fixed = GridSpec({**VARIANT_SPEC.ranges, "p": (1, 1)}, VARIANT_SPEC.seeds)
    for spec in (VARIANT_SPEC, fixed):
        for use_oracle in (False, True, False, True):
            assert verify_grid(eq1, spec, use_oracle=use_oracle).passed
    # each side's tree is built once per grid entry, when it is planned
    assert built == [eq1.lhs, eq1.rhs] * 2
    # and the entry's one sweep, run with the oracle and without, reads it
    entries = list(verify._compile_cache.values())
    assert len(entries) == 2 and len(compiled) == 2
    assert all(sides is entry.sides for sides, entry in zip(compiled, entries))


def test_shift_plan_takes_the_first_qualifying_parameter(catalog):
    spec = GridSpec({"n": (-2, 2), "m": (-2, 2), "p": (-2, 2)})
    s3 = catalog.get("S3.n2.F-forward")
    assert [p.shift for p in plans_of(s3, spec)] == ["n"]
    # n fixed: no other parameter is read only in G indices
    assert [p.shift for p in plans_of(s3, GridSpec({**spec.ranges, "n": (1, 1)}))] \
        == [None]
    both = parse_identity("G(p + q) == G(q + p)", name="t", params=("p", "q"))
    spec = GridSpec({"p": (-2, 2), "q": (-2, 2)})
    assert [p.shift for p in plans_of(both, spec)] == ["p"]
    assert verify._loop_order(both, spec, plans_of(both, spec)[0]) == (("q", "p"), 0)
    spec = GridSpec({"p": (4, 4), "q": (-2, 2)})
    assert [p.shift for p in plans_of(both, spec)] == ["q"]


def test_shift_parameter_alone_gives_the_oracle_checked_report(catalog):
    wrong = parse_identity("F(m + p)*G(n) - F(m)*G(n + p) == sign(m)*F(p)*G(n - m + 1)",
                           name="S3.n1.F-forward.wrong", params=("n", "m", "p"))
    # n's G indices with intervals wider than n's range, and with a product
    # that cancels: the tables still reach every index the sides read
    stretched = parse_identity(
        "F(m + p)*G(2*n - n) - F(m)*G(2*n - n + p) == sign(m)*F(p)*G(n*(m - m) + n - m)",
        name="S3.n1.F-forward.stretched", params=("n", "m", "p"))
    spec = GridSpec({"n": (-8, 8), "m": (2, 2), "p": (3, 3)},
                    (Seed(0, 1), Seed(2, 1), Seed(3, 7), Seed(-4, 5), Seed(1, 0)))
    for identity in (catalog.get("S3.n1.F-forward"), wrong, stretched):
        assert [p.shift for p in plans_of(identity, spec)] == ["n"]
        assert verify_grid(identity, spec, use_oracle=True).to_json_dict() \
            == verify_grid(identity, spec).to_json_dict()
    assert verify_grid(catalog.get("S3.n1.F-forward"), spec).passed
    assert verify_grid(stretched, spec).passed
    assert not verify_grid(wrong, spec).passed


@pytest.mark.parametrize("seeds", [(F_SEED,), STANDARD_SEEDS])
def test_nineteen_loops_compile_with_the_seed_loops(seeds):
    # 19 parameter loops, then a sum's loop: CPython's 20 nested blocks. On
    # the basis, x1's loop is the walk's (see verify._walk), outside the sweep
    names = [f"x{i}" for i in range(19)]
    identity = parse_identity(f"sum(k, 0, x0, G(k + {' + '.join(names)})) == G(x1)",
                              name="deep", params=names)
    spec = GridSpec({x: (0, 1) for x in names}, seeds)
    grid = verify._grid(identity, spec)
    assert grid.fixed == 0
    assert [plan.shift for plan in grid.plans] == ([None] if len(seeds) == 1 else ["x1"])
    grid.sweep(identity)


# --- the box ------------------------------------------------------------------

def widths_by_rank(identity, spec):
    """verify's width of each parameter but the ranks' on spec, at each
    rank value."""
    axes = [p for p in identity.free_params if p not in identity.rank_params]
    return verify._widths(identity, spec, verify._sides(identity), axes,
                          verify._Limit(spec.checks(identity.free_params)))


def widths_of(identity, spec):
    """verify's width of each parameter but the ranks' on spec, at the
    rank value that needs the most."""
    rows = widths_by_rank(identity, spec).values()
    return {x: max(row[x] for row in rows) for x in next(iter(rows))}


def test_catalog_widths_on_the_default_grid(catalog):
    args = cli.build_parser().parse_args(["verify", "--all"])
    expected = {
        **{f"Eq{i}": {"m": 5, "p": 2, "q": 5} for i in range(1, 5)},  # n + 1 at n = 4
        **{name: {"m": 2, "n": 2} for name in ("Eq8", "Lemma10", "Lemma11", "Lemma12",
                                               "Lemma13")},
        **{f"Eq{i}": {"m": 2, "p": 2, "q": 2} for i in (14, 16, 18, 19)},
        **{f"S3.n{r}.{k}-{d}": {"n": 2, "m": r + 1, "p": r + 1}
           for r in range(1, 5) for k in "FL" for d in ("forward", "backward")},
    }
    assert {e.name: widths_of(e, cli._grid_for(e, args)) for e in catalog} == expected


@pytest.mark.parametrize("rank", range(5))
def test_eq1_to_eq4_need_rank_plus_one_values_of_m_and_q(catalog, rank):
    spec = GridSpec({"n": (rank, rank), "m": (-8, 8), "p": (-8, 8), "q": (-8, 8)})
    for name in ("Eq1", "Eq2", "Eq3", "Eq4"):
        assert widths_of(catalog.get(name), spec) == {"m": rank + 1, "p": 2, "q": rank + 1}


def test_an_axis_stops_at_its_length_and_the_work_at_the_checks(catalog):
    eq1 = catalog.get("Eq1")
    # at n = 1000, F(m + q)^1000 alone has 1001 bases along m and q; from
    # n = 16 on, m and q are swept in full
    spec = GridSpec({"n": (0, 1000), "m": (-8, 8), "p": (-8, 8), "q": (-8, 8)})
    started = time.perf_counter()
    widths = widths_by_rank(eq1, spec)
    assert time.perf_counter() - started < 2.0
    assert widths == {(n,): {"m": min(n + 1, 17), "p": 2, "q": min(n + 1, 17)}
                      for n in range(1001)}
    # a grid with fewer checks than the analysis would take is swept in
    # full from the rank value where the work runs out
    lim = verify._Limit(10)
    spec = GridSpec({"n": (0, 4), "m": (-8, 8), "p": (-8, 8), "q": (-8, 8)})
    assert verify._widths(eq1, spec, verify._sides(eq1), ["m", "q"], lim) == {
        (0,): {"m": 1, "q": 17}, (1,): {"m": 2, "q": 17},
        **{(n,): {"m": 17, "q": 17} for n in (2, 3, 4)}}
    assert lim.work < 0


# Plans Eq1 on a grid whose analysis, bounded by the grid's checks alone,
# took 5.5 s; prints the time it takes and the width of q at each n.
_WIDE_RANKS = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
from fibkit import GridSpec, Seed, builtin_catalog, verify
eq1 = builtin_catalog().get("Eq1")
spec = GridSpec({"n": (0, 400), "m": (-8, 8), "p": (0, 1), "q": (-400, 400)},
                (Seed(0, 1), Seed(2, 1)))
started = time.perf_counter()
grid = verify._grid(eq1, spec)
elapsed = time.perf_counter() - started
q = grid.order.index("q")
print(json.dumps([elapsed, [len(box[q]) for box in grid.box]]))
"""


def test_the_analysis_of_a_grid_stops_at_a_fixed_work_budget():
    done = subprocess.run([sys.executable, "-c", _WIDE_RANKS,
                           str(Path(fibkit.__file__).parents[1])],
                          capture_output=True, text=True, timeout=30, check=True)
    elapsed, widths = json.loads(done.stdout)
    assert elapsed < 0.5
    # n + 1 values of q decide each rank value until the work runs out
    assert widths[:40] == [n + 1 for n in range(40)]
    assert all(w in (n + 1, 801) for n, w in enumerate(widths)) and widths[-1] == 801


def test_the_rank_value_that_needs_the_most_decides():
    # F(m)^(4 - n) has 5 - n bases: n = 0 needs the most, and each rank
    # value's box is as wide as its own count
    identity = parse_identity("sum(k, 0, n, F(m)^(4 - n)) == 0", name="t", params=("n", "m"))
    spec = GridSpec({"n": (0, 4), "m": (-8, 8)}, (F_SEED,))
    assert widths_of(identity, spec) == {"m": 5}
    assert widths_by_rank(identity, spec) == {(n,): {"m": 5 - n} for n in range(5)}
    boxes = verify._grid(identity, spec).box
    assert boxes == [[range(n, n + 1), range(-((5 - n) // 2), (6 - n) // 2)] for n in range(5)]


def test_a_literal_zero_has_no_base():
    # a product with a literal 0 has none either; a width is at least 1
    for text, width in [("F(m + 8)*F(m + 7)*F(m + 6) == 0", 4),
                        ("F(m + 8)*F(m + 7)*F(m + 6) == 0*F(m)^3", 4),
                        ("0 == F(m)*0 + 3*m*0", 1),
                        ("F(m)*0 + F(m + 1) == F(m + 1)", 2),
                        ("(0*F(m))^0 == 1", 1),
                        ("F(m)*F(m) == 1 + 0", 4)]:
        identity = parse_identity(text, name="zero", params=("m",))
        assert widths_of(identity, GridSpec({"m": (-8, 8)})) == {"m": width}, text


@pytest.mark.parametrize("rank", range(5))
def test_eq1_box_at_rank_n_holds_the_values_of_m_and_q_nearest_zero(catalog, rank):
    eq1 = catalog.get("Eq1")
    spec = cli._grid_for(eq1, cli.build_parser().parse_args(["verify", "--all"]))
    grid = verify._grid(eq1, spec)
    boxes = grid.box
    assert grid.order == ("n", "m", "q", "p")
    nearest = range(-((rank + 1) // 2), rank // 2 + 1)  # n + 1 values
    # p, the shift, at its two values nearest 0: its lines start at 0 there
    assert boxes[rank] == [range(rank, rank + 1), nearest, nearest, range(-1, 1)]
    assert len(boxes) == 5
    assert sum(len(box[1]) * len(box[2]) for box in boxes) == 55  # lines of p


def test_default_boxes_cut_every_axis_but_the_ranks(catalog):
    # in each box, a rank axis holds its one value and every other axis its
    # count of bases, cut when the axis is longer; a shift axis counts two,
    # phi and psi, and its box starts each line at the value z that the
    # whole axis does
    args = cli.build_parser().parse_args(["verify", "--all"])
    shifts = 0
    for entry in catalog:
        spec = cli._grid_for(entry, args)
        grid = verify._grid(entry, spec)
        rows = widths_by_rank(entry, spec)
        assert len(grid.box) == len(rows), entry.name
        for box, (values, row) in zip(grid.box, rows.items()):
            axes = dict(zip(grid.order, box))
            assert [axes[r] for r in entry.rank_params] == [range(v, v + 1) for v in values]
            assert {x: len(axes[x]) for x in row} == row, entry.name
        shift = grid.plans[0].shift
        if shift:
            shifts += 1
            lo, hi = spec.ranges[shift]
            for box in grid.box:
                axis = box[grid.order.index(shift)]
                assert len(axis) == 2 and min(max(axis[0], 0), axis[-1]) == min(max(lo, 0), hi)
    assert shifts == 20


def test_a_passing_grid_sweeps_only_its_box(catalog, monkeypatch):
    swept = []
    real = verify._pass
    monkeypatch.setattr(verify, "_pass", lambda plan, sweep, axes, *rest: swept.append(
        [(a[0], a[-1]) for a in axes]) or real(plan, sweep, axes, *rest))
    eq1 = catalog.get("Eq1")
    grid = verify._grid(eq1, VARIANT_SPEC)
    assert grid.order == ("n", "m", "q", "p") and [p.shift for p in grid.plans] == ["p"]
    # one box per rank value n, m and q cut to its n + 1 values nearest 0,
    # and p, the shift, to its two
    boxes = [[(0, 0), (0, 0), (0, 0), (-1, 0)], [(1, 1), (-1, 0), (-1, 0), (-1, 0)],
             [(2, 2), (-1, 1), (-1, 1), (-1, 0)]]
    report = verify_grid(eq1, VARIANT_SPEC)
    assert report.passed and report.total == 1500 and swept == boxes
    # a failure in a box sweeps the whole grid, every plan, as before
    swept.clear()
    square = VARIANT_CATALOG.get("Eq1.square")
    assert len(verify._grid(square, VARIANT_SPEC).plans) == 4
    report = verify_grid(square, VARIANT_SPEC)
    full = [(0, 2), (-2, 2), (-2, 2), (-2, 2)]
    # G(p)*G(q) adds bases along p and q: the box at n = 0 fails
    assert swept == [[(0, 0), (0, 0), (-1, 0), (-1, 1)], *[full] * 4]
    assert report.to_json_dict() == _unboxed(monkeypatch, square, VARIANT_SPEC)


def _unboxed(monkeypatch, identity, spec):
    """identity's report on spec from a sweep of the whole grid."""
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_compile_cache", {})
        patch.setattr(verify, "_box", lambda *args: None)
        return verify_grid(identity, spec).to_json_dict()


def test_the_oracle_compares_every_point_of_a_grid_with_a_box(catalog, monkeypatch):
    swept, checked = [], []
    real, flush = verify._pass, verify._OracleCheck.flush
    monkeypatch.setattr(verify, "_pass", lambda plan, sweep, axes, *rest: swept.append(
        [len(a) for a in axes]) or real(plan, sweep, axes, *rest))

    def compared(check):
        checked.append(len(check.held) // 2)
        flush(check)

    monkeypatch.setattr(verify._OracleCheck, "flush", compared)
    eq1 = catalog.get("Eq1")
    assert verify._grid(eq1, VARIANT_SPEC).box is not None
    assert verify_grid(eq1, VARIANT_SPEC, use_oracle=True).passed
    assert swept == [[3, 5, 5, 5]] and sum(checked) == 1500


def test_binom_sweeps_its_axis_in_full():
    identity = parse_identity("F(m) + binom(m, 8) == F(m)", name="binom", params=("m",))
    spec = GridSpec({"m": (-8, 8)}, (F_SEED,))
    assert verify._grid(identity, spec).box is None
    report = verify_grid(identity, spec)
    assert [(f.point, f.lhs, f.rhs) for f in report.failures] == [((("m", 8),), 22, 21)]


def test_pow5floor_error_is_the_first_point_by_point():
    identity = parse_identity("F(m)^2*pow5floor(2 - q) == F(m)^2*pow5floor(2 - q)",
                              name="p5", params=("m", "q"))
    spec = GridSpec({"m": (-8, 8), "q": (-8, 8)}, (F_SEED, Seed(3, 7)))
    # m is cut to its 3 values nearest 0; q, read by pow5floor, is not
    assert verify._grid(identity, spec).box == [[range(-1, 2), range(-8, 9)]]
    with pytest.raises(EvalError, match=r"^pow5floor argument -1 is negative at point "
                                        r"\(m=-8, q=3\), seed Seed\(g0=0, g1=1\)$"):
        verify_grid(identity, spec)
    assert _point_by_point(identity, spec)[1] == " at point (m=-8, q=3), seed Seed(g0=0, g1=1)"


@pytest.mark.parametrize("text,width,zeros", [
    # the first four vanish at every value of the box but its last
    ("(m + 8)*(m + 7)*(m + 6)*(m + 5)*(m + 4) == 0", 6, 5),  # m counts twice
    ("F(m + 8)*F(m + 7)*F(m + 6) == 0", 4, 3),
    ("(1 + sign(m + 1))*F(m + 7) == 0", 4, 3),
    ("sign(m)*(m + 8)*(m + 7) == 0", 3, 2),
    ("(m + 8)*(m + 7)*F(m + 6) == 0", 6, 3),
    ("F(m + 8)^2*L(m + 7) == 0", 4, 1),
])
def test_a_difference_that_vanishes_short_of_its_width_fails(text, width, zeros):
    identity = parse_identity(text, name="vanishing", params=("m",))
    # m below 0, up to -8 + width - 1: its width values nearest 0 are -8 on
    spec = GridSpec({"m": (-16, width - 9)}, (F_SEED, Seed(3, 7)))
    assert widths_of(identity, spec) == {"m": width}
    (box,) = verify._grid(identity, spec).box
    assert box == [range(-8, -8 + width)]
    values = [oracle_eval(identity.lhs, ParamPoint({"m": m})) for m in box[0]]
    assert values.count(0) == zeros and values[-1] != 0
    report = verify_grid(identity, spec)
    assert {"m": box[0][-1]} in [dict(f.point) for f in report.failures]
    _matches_oracle_and_point_by_point(identity, spec)


def _rewritten(node):
    """node with every sequence ref and sign rewritten to an equal value
    of another shape: F(i + 1) - F(i - 1), F(i - 1) + F(i + 1) for L(i),
    G(i + 2) - G(i + 1) and sign(i + 2)."""
    if isinstance(node, SeqRef):
        i = node.arg
        if node.kind == "F":
            return Sub(SeqRef("F", Add(i, Lit(1))), SeqRef("F", Sub(i, Lit(1))))
        if node.kind == "L":
            return Add(SeqRef("F", Sub(i, Lit(1))), SeqRef("F", Add(i, Lit(1))))
        return Sub(SeqRef("G", Add(i, Lit(2))), SeqRef("G", Add(i, Lit(1))))
    if isinstance(node, Sign):
        return Sign(Add(node.arg, Lit(2)))
    if isinstance(node, Sum):
        return Sum(node.var, node.lo, node.hi, _rewritten(node.body))
    if isinstance(node, Pow):
        return Pow(_rewritten(node.base), node.exponent)
    if isinstance(node, (Add, Sub, Mul)):
        return type(node)(_rewritten(node.left), _rewritten(node.right))
    if isinstance(node, Neg):
        return Neg(_rewritten(node.operand))
    return node


def _exp_values(names, kinds):
    """Values that are exponential polynomials along every name: refs,
    bare symbols, signs and constant powers."""
    leaves = st.one_of(
        st.builds(SeqRef, st.sampled_from(kinds), _index_exprs(names)),
        st.integers(-3, 3).map(Lit),
        st.sampled_from(names).map(Sym),
        st.builds(Sign, _index_exprs(names)),
    )
    return st.recursive(leaves, lambda children: st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Pow, children, st.integers(0, 3).map(Lit)),
    ), max_leaves=4)


def _exp_g_linear(names):
    """Such values with exactly one G factor in every term."""
    free = _exp_values(names, ("F", "L"))
    g = st.builds(SeqRef, st.just("G"), _index_exprs(names))
    return st.recursive(st.one_of(g, st.builds(Mul, free, g)), lambda inner: st.one_of(
        st.builds(Add, inner, inner),
        st.builds(Sub, inner, inner),
        st.builds(Mul, free, inner),
    ), max_leaves=3)


def _vanishing(x, lo, count):
    """A product of one factor 0 at each of x's first count values: x - r,
    F(x - r) or 1 + sign(x - r - 1). A nonzero multiple of it has at least
    count + 1 bases along x."""
    factors = [st.sampled_from([Sub(Sym(x), Lit(r)), SeqRef("F", Sub(Sym(x), Lit(r))),
                                Add(Lit(1), Sign(Sub(Sym(x), Lit(r + 1))))])
               for r in range(lo, lo + count)]
    return st.tuples(*factors).map(lambda fs: functools.reduce(Mul, fs))


@given(st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_box_reports_match_every_point(data):
    axes = tuple(data.draw(st.lists(st.sampled_from(("m", "q")), min_size=1, max_size=2,
                                    unique=True)))
    ranked = data.draw(st.booleans())
    params = ("n", *axes) if ranked else axes
    plan = data.draw(st.sampled_from(("free", "basis", "per-seed")))
    names = axes + ("k",) if ranked else axes
    if plan == "basis":
        values, extra = _exp_g_linear(names), _exp_g_linear(axes)
    else:
        kinds = ("F", "L") if plan == "free" else ("F", "L", "G")
        values, extra = _exp_values(names, kinds), _exp_values(axes, kinds)
    # a side with few bases of its own leaves the added term's to decide the box
    value = data.draw(st.one_of(st.builds(SeqRef, st.just("G"), st.integers(-3, 3).map(Lit))
                                if plan == "basis" else st.integers(-3, 3).map(Lit), values))
    if plan == "per-seed":  # two G factors in every term
        value = Mul(Mul(SeqRef("G", data.draw(_index_exprs(names))),
                        SeqRef("G", data.draw(_index_exprs(names)))), value)
    if ranked:
        value = Sum("k", Lit(0), Sym("n"), value)
    ranges = {"n": (0, data.draw(st.integers(0, 2)))} if ranked else {}
    for x in axes:
        lo = data.draw(st.integers(-3, 0))
        ranges[x] = (lo, lo + data.draw(st.integers(4, 7)))
    lhs = value
    if data.draw(st.booleans()):  # 0 at the first values of x, and false unless 0
        x = data.draw(st.sampled_from(axes))
        lo, hi = ranges[x]
        zero = _vanishing(x, lo, data.draw(st.integers(1, hi - lo)))
        lhs = Add(value, Mul(data.draw(zero), data.draw(extra)))
    identity = parse_identity(f"{to_text(lhs)} == {to_text(_rewritten(value))}",
                              name="random", params=params)
    distinct = data.draw(st.lists(SEEDS, min_size=2 if plan == "basis" else 1, max_size=3,
                                  unique=True))
    spec = GridSpec(ranges, tuple(distinct))
    kinds = [(p.basis, p.seed is not None) for p in plans_of(identity, spec)]
    assert set(kinds) == {{"free": (False, False), "basis": (True, False),
                           "per-seed": (False, True)}[plan]}
    _matches_oracle_and_point_by_point(identity, spec)


def _bareiss_det(rows):
    """The determinant of an integer matrix, by fraction-free elimination."""
    m, sign, prev = [list(row) for row in rows], 1, 1
    for k in range(len(m) - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


@given(st.data())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_a_width_bounds_the_order_of_every_line(data):
    # a sequence with w bases, counted, obeys a linear recurrence of order
    # w, so every (w + 1) x (w + 1) Hankel matrix of its values is singular;
    # the oracle, which shares no code with the analysis, gives the values
    ranked = data.draw(st.booleans())
    names = ("m", "q", "k") if ranked else ("m", "q")
    exponents = st.one_of(st.integers(0, 3).map(Lit), st.sampled_from(
        [Sym("k"), Sub(Sym("n"), Sym("k")), Sub(Lit(3), Sym("n"))] if ranked else [Lit(2)]))
    leaves = st.one_of(st.builds(SeqRef, st.sampled_from("FLG"), _index_exprs(names)),
                       st.integers(-3, 3).map(Lit), st.sampled_from(names).map(Sym),
                       st.builds(Sign, _index_exprs(names)))
    side = data.draw(st.recursive(leaves, lambda children: st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Pow, children, exponents),
    ), max_leaves=5))
    if ranked:
        side = Sum("k", Lit(0), Sym("n"), side)
    params = ("n", "m", "q") if ranked else ("m", "q")
    identity = parse_identity(f"{to_text(side)} == {to_text(side)}", name="side",
                              params=params)
    spec = GridSpec({"n": (0, 3), "m": (-8, 8), "q": (-8, 8)} if ranked else
                    {"m": (-8, 8), "q": (-8, 8)})
    width = widths_of(identity, spec)["m"]
    assume(width < 10)
    point = {"q": data.draw(st.integers(-8, 8))}
    if ranked:
        point["n"] = data.draw(st.integers(0, 3))
    seed = data.draw(SEEDS)
    values = [oracle_eval(side, ParamPoint({**point, "m": m}, seed))
              for m in range(-8, -8 + 2 * width + 3)]
    for start in range(3):
        window = [[values[start + i + j] for j in range(width + 1)] for i in range(width + 1)]
        assert _bareiss_det(window) == 0, (to_text(side), point, width, start)


# --- report serialization ----------------------------------------------------

def test_report_json_schema(catalog):
    spec = GridSpec({"m": (-2, 2), "n": (-2, 2)}, (Seed(0, 1), Seed(2, 1)))
    report = verify_grid(catalog.get("Eq8"), spec)
    doc = json.loads(json.dumps(report.to_json_dict()))
    assert doc["version"] == 1
    assert doc["identity"] == "Eq8"
    assert doc["paper_tag"] == "Eq(8)"
    assert doc["mode"] == "grid"
    assert doc["total"] == 50
    assert doc["failures"] == []
    assert doc["elapsed_ms"] == 0
    assert doc["grid"]["ranges"] == {"m": [-2, 2], "n": [-2, 2]}
    assert doc["grid"]["seeds"] == [[0, 1], [2, 1]]


def test_report_serializes_bigints_as_strings():
    wide = parse_identity("F(m)*F(m) == F(m)", name="big", params=("m",))
    report = verify_grid(wide, GridSpec({"m": (120, 120)}, (F_SEED,)))
    doc = json.loads(json.dumps(report.to_json_dict()))
    assert doc["failures"][0]["lhs"] == str(fib(120) ** 2)
    assert isinstance(doc["failures"][0]["lhs"], str)


def test_failures_sorted_lexicographically():
    bad = parse_identity("F(m) + F(n) == 0", name="never", params=("m", "n"))
    report = verify_grid(bad, GridSpec({"m": (1, 2), "n": (1, 2)},
                                       (Seed(0, 1), Seed(2, 1))))
    points = [dict(f.point) for f in report.failures]
    keys = [(p["m"], p["n"]) for p in points]
    assert keys == sorted(keys)


# --- the rank recurrence -----------------------------------------------------

@pytest.mark.parametrize("family,side,coeff", [
    ("Eq1", "lhs", "F"),
    ("Eq1", "rhs", "F"),
    ("Eq2", "lhs", "L"),
    ("Eq2", "rhs", "L"),
])
def test_recurrence_consistency(catalog, step_identity, family, side, coeff):
    spec = GridSpec({"n": (1, 3), "m": (-4, 4), "p": (-4, 4), "q": (-4, 4)},
                    (Seed(0, 1), Seed(3, 7)))
    report = verify_grid(step_identity(catalog.get(family), side, coeff), spec)
    assert report.passed
    assert report.identity == f"{family}.{side}"
    assert report.total == 3 * 9 ** 3 * 2


def test_recurrence_detects_wrong_coefficient(catalog, step_identity):
    spec = GridSpec({"n": (1, 2), "m": (-2, 2), "p": (-2, 2), "q": (-2, 2)},
                    (F_SEED,))
    report = verify_grid(step_identity(catalog.get("Eq1"), "lhs", "L"), spec)
    assert not report.passed


# --- case split --------------------------------------------------------------

def case_split_value(p_idx, n, m):
    """F(p-nm+1) - (-1)^n F(p-nm-1), which collapses to F(p-nm) for even n
    and L(p-nm) for odd n."""
    i = p_idx - n * m
    return fib(i + 1) - (-1) ** n * fib(i - 1)


@pytest.mark.parametrize("p,n,m,expected", [
    (5, 2, 1, 2),   # even n: F(3)
    (5, 1, 1, 7),   # odd n: L(4)
    (0, 0, 0, 0),   # F(1) - F(-1)
])
def test_case_split_value(p, n, m, expected):
    assert case_split_value(p, n, m) == expected


def test_case_split_matches_closed_forms_on_window():
    for p in range(-12, 13):
        for n in range(0, 5):
            for m in range(-3, 4):
                value = case_split_value(p, n, m)
                i = p - n * m
                assert value == (fib(i) if n % 2 == 0 else lucas(i))
