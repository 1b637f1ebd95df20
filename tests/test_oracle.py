"""Brute-force oracle: independence, differential agreement, range analysis."""

import math
import random

import pytest

from fibkit import ParamPoint, Seed, eval_side, parse_expr
from fibkit.oracle import OracleTables, oracle_eval, pascal_binom, recurrence_table
from fibkit.ranges import index_window
from fibkit.verify import STANDARD_SEEDS

F_SEED = Seed(0, 1)


def test_recurrence_table_matches_known_values():
    fib_window = recurrence_table(0, 1, -5, 8)
    assert [fib_window[i] for i in range(-5, 9)] == \
        [5, -3, 2, -1, 1, 0, 1, 1, 2, 3, 5, 8, 13, 21]
    lucas_window = recurrence_table(2, 1, 0, 4)
    assert list(lucas_window.values()) == [2, 1, 3, 4, 7]


def test_recurrence_table_detached_windows():
    assert recurrence_table(0, 1, 5, 7) == {5: 5, 6: 8, 7: 13}
    assert recurrence_table(0, 1, -7, -5) == {-7: 13, -6: -8, -5: 5}


def test_pascal_matches_multiplicative_binomials():
    for n in range(61):
        for k in range(n + 1):
            assert pascal_binom(n, k) == math.comb(n, k)


def test_pascal_convention_outside_triangle():
    assert pascal_binom(5, 6) == 0
    assert pascal_binom(5, -1) == 0
    assert pascal_binom(-2, 0) == 0


def test_oracle_eval_spec_points(catalog):
    eq2 = catalog.get("Eq2")
    assert oracle_eval(eq2.lhs, ParamPoint({"n": 1, "m": 1, "q": 1, "p": 3},
                                           F_SEED)) == 3
    eq4 = catalog.get("Eq4")
    pt = ParamPoint({"n": 1, "m": 1, "q": 1, "p": 2}, F_SEED)
    assert oracle_eval(eq4.lhs, pt) == 4
    assert oracle_eval(eq4.rhs, pt) == 4


def test_index_range_examples(catalog):
    box = {"p": (-8, 8), "q": (-8, 8), "k": (0, 5)}
    assert index_window(parse_expr("G(p + q*k)"), box) == (-48, 48)
    assert index_window(parse_expr("F(m)"), {"m": (-8, 8)}) == (-8, 8)
    assert index_window(parse_expr("binom(m, 2)"), {"m": (-8, 8)}) is None

    eq1 = catalog.get("Eq1")
    full = {"n": (0, 5), "m": (-8, 8), "p": (-8, 8), "q": (-8, 8)}
    lo, hi = index_window(eq1.lhs, full)
    assert lo <= -48 and hi >= 48


def test_oracle_with_prebuilt_tables(catalog):
    eq1 = catalog.get("Eq1")
    box = {"n": (0, 3), "m": (-4, 4), "p": (-4, 4), "q": (-4, 4)}
    lo, hi = index_window(eq1.lhs, box)
    tables = OracleTables(lo, hi, (Seed(3, 7),))
    pt = ParamPoint({"n": 3, "m": -4, "p": 4, "q": -4}, Seed(3, 7))
    assert oracle_eval(eq1.lhs, pt, tables) == oracle_eval(eq1.lhs, pt)


def test_differential_against_fast_evaluator(catalog):
    rng = random.Random(0x5EED)
    entries = list(catalog)
    for _ in range(2000):
        entry = entries[rng.randrange(len(entries))]
        ast = entry.lhs if rng.random() < 0.5 else entry.rhs
        values = {
            p: (rng.randint(0, 4) if p in entry.rank_params else rng.randint(-8, 8))
            for p in entry.free_params
        }
        pt = ParamPoint(values, STANDARD_SEEDS[rng.randrange(len(STANDARD_SEEDS))])
        assert oracle_eval(ast, pt) == eval_side(ast, pt), (entry.name, values)


def test_oracle_module_is_independent_of_fast_paths():
    # layout rule: the oracle may import AST helpers only, never the
    # sequence, ring, or evaluator machinery it cross-checks
    import ast as pyast

    import fibkit.oracle as oracle_module

    source = open(oracle_module.__file__, encoding="utf-8").read()
    banned = {"seq", "zphi", "verify", "symbolic", "cli"}
    for node in pyast.parse(source).body:  # runtime imports are top-level
        if isinstance(node, pyast.ImportFrom) and node.module:
            assert node.module.split(".")[-1] not in banned, node.module


def test_oracle_rejects_bad_input():
    from fibkit import EvalError
    with pytest.raises(EvalError):
        oracle_eval(parse_expr("F(m)^n"), ParamPoint({"m": 1, "n": -2}))
    with pytest.raises(ValueError):
        recurrence_table(0, 1, 5, 4)
