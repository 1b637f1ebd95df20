"""Brute-force oracle: independence, differential agreement, range analysis."""

import ast as python_ast
import itertools
import math
import random
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fibkit import (
    EvalError, ParamPoint, Seed, builtin_catalog, cli, eval_side, lucas, oracle, parse_expr,
    verify,
)
from fibkit.expr import (
    Add, Binom, Lit, Mul, Neg, Pow, Pow5Floor, SeqRef, Sign, Sub, Sum, Sym,
    affine, children, iter_nodes,
)
from fibkit.oracle import (
    OracleTables, evaluator, oracle_eval, pascal_binom, recurrence_table,
)
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


def test_tables_grow_outward_from_the_seed_on_a_miss():
    tables = OracleTables((F_SEED,))
    fn = evaluator(parse_expr("L(n)"), tables)
    assert [fn({"n": n}) for n in (0, 30, -30)] == [[2], [lucas(30)], [lucas(-30)]]
    assert lucas(30) == lucas(-30) == 1_860_498
    # one run of indices, each stepped to once
    assert list(tables.lucas) == [0, 1, *range(2, 31), *range(-1, -31, -1)]


def test_oracle_imports_only_expr_and_errors_at_run_time():
    tree = python_ast.parse(Path(oracle.__file__).read_text())
    typing_only = {id(node) for block in python_ast.walk(tree)
                   if isinstance(block, python_ast.If)
                   and python_ast.unparse(block.test) == "TYPE_CHECKING"
                   for node in python_ast.walk(block)}
    imported = set()
    for node in python_ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, python_ast.ImportFrom):
            package = "fibkit" if node.level else node.module or ""
            module = node.module if node.level else None
            if package.split(".")[0] == "fibkit":
                if module is None and package == "fibkit":
                    imported |= {f"fibkit.{alias.name}" for alias in node.names}
                else:
                    imported.add(f"fibkit.{module}" if node.level else package)
        elif isinstance(node, python_ast.Import):
            imported |= {alias.name for alias in node.names
                         if alias.name.split(".")[0] == "fibkit"}
    assert imported == {"fibkit.expr", "fibkit.errors"}


def test_pascal_matches_multiplicative_binomials():
    for n in range(61):
        for k in range(n + 1):
            assert pascal_binom(n, k) == math.comb(n, k)


def test_pascal_past_the_kept_rows_holds_one_partial_row():
    from fibkit import oracle

    kept = oracle._PASCAL_ROWS_KEPT
    for n in (kept + 1, kept + 44, 3000):
        for k in (0, 1, 2, 7, n // 2, n - 3, n):
            assert pascal_binom(n, k) == math.comb(n, k), (n, k)
    assert pascal_binom(3000, 2) == 4_498_500
    assert len(oracle._pascal_rows) == kept + 1
    assert max(len(row) for row in oracle._pascal_rows) == kept + 1


def test_binom_walks_pascal_once_per_distinct_pair_in_a_batch(monkeypatch):
    walks = []
    walk = oracle.pascal_binom
    monkeypatch.setattr(oracle, "pascal_binom", lambda n, k: walks.append((n, k)) or walk(n, k))
    fn = evaluator(parse_expr("binom(n, k)"), OracleTables((F_SEED,)))
    tops, bottoms = [300, 301, 300, 300, 301], [3, 3, 3, 3, 3]
    assert fn.columns({"n": tops, "k": bottoms}, 5) == \
        [[math.comb(n, k) for n, k in zip(tops, bottoms)]]
    assert walks == [(300, 3), (301, 3)]
    # the last pair, and only it, carries to the next batch
    assert fn.columns({"n": [301, 300], "k": [3, 3]}, 2) == \
        [[math.comb(301, 3), math.comb(300, 3)]]
    assert walks == [(300, 3), (301, 3), (300, 3)]


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


def index_window(node, box, params=None):
    """verify's window over box of one expression, read with params (the
    box's own by default) as its parameters."""
    return verify._window([verify._terms(node, tuple(params or box))], box)


def test_index_range_examples(catalog):
    box = {"p": (-8, 8), "q": (-8, 8), "k": (0, 5)}
    assert index_window(parse_expr("G(p + q*k)"), box) == (-48, 48)
    assert index_window(parse_expr("F(m)"), {"m": (-8, 8)}) == (-8, 8)
    assert index_window(parse_expr("binom(m, 2)"), {"m": (-8, 8)}) is None

    eq1 = catalog.get("Eq1")
    full = {"n": (0, 5), "m": (-8, 8), "p": (-8, 8), "q": (-8, 8)}
    lo, hi = index_window(eq1.lhs, full)
    assert lo <= -48 and hi >= 48


def test_index_window_cancels_a_symbol_read_twice():
    box = {"m": (-8, 8), "q": (-8, 8)}
    assert index_window(parse_expr("F(m + q - q)"), box) == (-8, 8)
    assert index_window(parse_expr("F(2*m - m - 3)"), box) == (-11, 5)
    assert index_window(parse_expr("sum(k, 0, 1000000, F(k - k))"), {}) == (0, 0)
    # bounds that move together: k is m plus an offset in 0..2, and m cancels
    assert index_window(parse_expr("sum(k, m, m + 2, F(k - m))"), box) == (0, 2)
    assert index_window(parse_expr("sum(k, 2*m - 1, 2*m + 1, F(k - m))"), box) == (-9, 9)
    assert index_window(parse_expr("sum(k, m, m - 1, F(k))"), box) is None  # always empty
    # a product of two factors that read symbols is bounded term by term
    assert index_window(parse_expr("F(m*q - m*q)"), box) == (-128, 128)
    # a symbol with no range is named, whether or not it cancels
    with pytest.raises(EvalError, match=r"^no range for parameter 'q'$"):
        index_window(parse_expr("F(m + q - q)"), {"m": (0, 1)}, ("m", "q"))


# The index window of every catalog entry on the default grid of verify --all.
CATALOG_WINDOWS = {
    "Eq1": (-40, 40), "Eq2": (-41, 41), "Eq3": (-40, 40), "Eq4": (-41, 41),
    "Eq8": (-16, 16), "Lemma10": (-16, 16), "Lemma11": (-16, 16), "Lemma12": (-16, 16),
    "Lemma13": (-16, 16), "Eq14": (-16, 16), "Eq16": (-16, 16), "Eq18": (-16, 16),
    "Eq19": (-16, 16), "S3.n1.F-forward": (-16, 16), "S3.n1.L-forward": (-17, 17),
    "S3.n1.F-backward": (-16, 16), "S3.n1.L-backward": (-17, 17),
    "S3.n2.F-forward": (-24, 24), "S3.n2.L-forward": (-25, 25),
    "S3.n2.F-backward": (-24, 24), "S3.n2.L-backward": (-25, 25),
    "S3.n3.F-forward": (-32, 32), "S3.n3.L-forward": (-33, 33),
    "S3.n3.F-backward": (-32, 32), "S3.n3.L-backward": (-33, 33),
    "S3.n4.F-forward": (-40, 40), "S3.n4.L-forward": (-41, 41),
    "S3.n4.F-backward": (-40, 40), "S3.n4.L-backward": (-41, 41),
}


# The index window the sweeps read on that grid, with each entry's shift
# parameter at its value nearest 0, where a line reads its start pairs.
SWEEP_WINDOWS = {
    **{name: (-32, 32) for name in ("Eq1", "Eq3", "S3.n4.F-forward", "S3.n4.F-backward")},
    **{name: (-33, 33) for name in ("Eq2", "Eq4", "S3.n4.L-forward", "S3.n4.L-backward")},
    "Eq8": (-9, 8), **{f"Lemma{i}": (-8, 8) for i in (10, 11, 12, 13)},
    **{f"Eq{i}": (-16, 16) for i in (14, 16, 18, 19)},
    **{f"S3.n{r}.{k}-{d}": (-16, 16) for r in (1, 2) for k in "FL"
       for d in ("forward", "backward")},
    "S3.n2.L-forward": (-17, 17), "S3.n2.L-backward": (-17, 17),
    "S3.n3.F-forward": (-24, 24), "S3.n3.F-backward": (-24, 24),
    "S3.n3.L-forward": (-25, 25), "S3.n3.L-backward": (-25, 25),
}


def test_catalog_windows_on_the_default_grid(catalog):
    args = cli.build_parser().parse_args(["verify", "--all"])
    grids = {entry.name: (verify._grid(entry, spec), spec)
             for entry, spec in ((e, cli._grid_for(e, args)) for e in catalog)}
    assert {name: verify._window(grid.sides, spec.ranges)
            for name, (grid, spec) in grids.items()} == CATALOG_WINDOWS
    assert {name: grid.window for name, (grid, _) in grids.items()} == SWEEP_WINDOWS
    assert len(CATALOG_WINDOWS) == len(SWEEP_WINDOWS) == 29


@pytest.mark.parametrize("text,values,message", [
    ("F(m) + x", {"m": 1}, "symbol 'x' has no value"),
    ("F(m)^n", {"m": 1, "n": -2}, "negative exponent -2 in power"),
    ("pow5floor(n)", {"n": -3}, "pow5floor argument -3 is negative"),
    ("sum(k, n, 0, F(k))", {"n": 3}, "sum bounds 3..0 are inverted"),
    # a sum's terms are one batch: the first term's exponent is named
    ("sum(k, 0, n, F(k)^(k - 2))", {"n": 3}, "negative exponent -2 in power"),
    ("F(m + 9)^n", {"m": 0, "n": -1}, "negative exponent -1 in power"),
])
def test_evaluator_error_messages(text, values, message):
    from fibkit import EvalError
    from fibkit.oracle import evaluator

    fn = evaluator(parse_expr(text), OracleTables((F_SEED,)))
    with pytest.raises(EvalError) as exc_info:
        fn(dict(values))
    assert str(exc_info.value) == message


def test_evaluator_leaves_env_unchanged_and_is_reusable(catalog):
    from fibkit.oracle import evaluator

    eq1 = catalog.get("Eq1")
    tables = OracleTables((Seed(3, 7),))
    fn = evaluator(eq1.lhs, tables)
    env = {"n": 3, "m": 2, "p": -1, "q": 2, "k": 99}
    first = fn(env)
    assert env == {"n": 3, "m": 2, "p": -1, "q": 2, "k": 99}
    assert fn(env) == first == [eval_side(eq1.lhs, ParamPoint(env, Seed(3, 7)))]


@pytest.mark.parametrize("name", ["Eq1", "Eq8"])
def test_evaluator_gives_one_value_per_distinct_seed(catalog, name):
    from fibkit.oracle import evaluator

    entry = catalog.get(name)
    seeds = (Seed(3, 7), F_SEED, Seed(3, 7), Seed(0, 0), Seed(-4, 5))
    distinct = list(dict.fromkeys(seeds))
    tables = OracleTables(seeds)
    assert list(tables.gen) == distinct
    env = {"n": 3, "m": 2, "p": -1, "q": 2}
    for side in (entry.lhs, entry.rhs):
        values = {p: env[p] for p in entry.free_params}
        assert evaluator(side, tables)(dict(values)) == \
            [eval_side(side, ParamPoint(values, seed)) for seed in distinct]
        # a selection keeps the tables and lists its own seeds in order
        chosen = tables.select((Seed(-4, 5), Seed(3, 7), Seed(-4, 5)))
        assert chosen.fib is tables.fib and chosen.gen[Seed(3, 7)] is tables.gen[Seed(3, 7)]
        assert evaluator(side, chosen)(dict(values)) == \
            [eval_side(side, ParamPoint(values, seed)) for seed in (Seed(-4, 5), Seed(3, 7))]


def test_evaluator_refuses_g_in_an_index():
    from fibkit.expr import Add, SeqRef, Sym
    from fibkit.oracle import evaluator

    with pytest.raises(TypeError, match="G read where an index is expected"):
        evaluator(SeqRef("F", Add(Sym("m"), SeqRef("G", Sym("m")))),
                  OracleTables((F_SEED,)))


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


def test_sum_over_a_huge_range_holds_a_bounded_number_of_terms():
    # a million terms, expanded a bounded piece at a time; F(k - k) reads
    # only F(0), so F's table stays at the seed however far k runs
    for body, value, reach in (("F(m)", 2 * 1000001, 3), ("F(k - k)", 0, 1)):
        tables = OracleTables((F_SEED,))
        fn = evaluator(parse_expr(f"sum(k, 0, 1000000, {body})"), tables)
        tracemalloc.start()
        try:
            got = fn({"m": 3})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == [value], body
        assert sorted(tables.fib) == list(range(reach + 1)), body
        assert peak < 2_000_000, body


# (m, n) rows of sum(k, m, n, ...): 5, 0, 3, 0, 0, 1, 4 and 0 terms
PIECE_ROWS = [(0, 4), (3, 2), (-1, 1), (5, 4), (2, 1), (2, 2), (-3, 0), (1, 0)]


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("text", [
    "sum(k, m, n, G(k)*k + m)",                # one column per seed
    "sum(k, m, n, F(k) + m*k)",                # one column for all seeds
    "sum(k, m, n, binom(n, k)*sign(k)*L(m + k))",
])
def test_sum_pieces_split_rows_around_rows_without_terms(monkeypatch, text, chunk):
    ast, seeds = parse_expr(text), (Seed(3, 7), F_SEED)
    fn = evaluator(ast, OracleTables(seeds))
    point_by_point = [fn({"m": m, "n": n}) for m, n in PIECE_ROWS]
    assert point_by_point == [[eval_side(ast, ParamPoint({"m": m, "n": n}, seed))
                                for seed in seeds] for m, n in PIECE_ROWS]
    monkeypatch.setattr(oracle, "_SUM_CHUNK", chunk)
    ms, ns = (list(column) for column in zip(*PIECE_ROWS))
    lengths = [n - m + 1 for m, n in PIECE_ROWS]
    # each piece: a run of rows from row on, at most chunk terms and at
    # least one; together they take every row's terms once, in order
    taken = [0] * len(PIECE_ROWS)
    for row, firsts, counts in oracle._pieces(ms, lengths):
        assert 0 < sum(counts) <= chunk
        for i, (first, count) in enumerate(zip(firsts, counts), row):
            assert first == ms[i] + taken[i]
            taken[i] += count
    assert taken == lengths
    columns = fn.columns({"m": ms, "n": ns}, len(PIECE_ROWS))
    assert [list(values) for values in zip(*columns)] == point_by_point


def _pieces_row_by_row(starts, lengths, chunk):
    """The pieces as oracle._pieces gave them when it stepped through the
    rows one at a time: the reference for the one that bisects."""
    terms = sum(lengths)
    if terms <= chunk:
        if terms:
            yield 0, starts, lengths
        return
    row, firsts, counts, room = 0, [], [], chunk
    for i, (start, count) in enumerate(zip(starts, lengths)):
        firsts.append(start)
        counts.append(0)
        while count >= room:
            counts[-1] += room
            yield row, firsts, counts
            start += room
            count -= room
            row, firsts, counts, room = i, [start], [0], chunk
        counts[-1] += count
        room -= count
    if room < chunk:
        yield row, firsts, counts


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_sum_pieces_match_the_row_by_row_split(data):
    chunk = data.draw(st.sampled_from([1, 3, 4096]))
    longest = data.draw(st.sampled_from([3, 12, 3000]))
    # zero-length rows anywhere, and rows that end exactly at a boundary
    length = st.one_of(st.just(0), st.integers(0, longest), st.sampled_from([chunk, 2 * chunk]))
    lengths = data.draw(st.lists(length, max_size=12))
    starts = data.draw(st.lists(st.integers(-50, 50), min_size=len(lengths),
                                max_size=len(lengths)))
    expected = list(_pieces_row_by_row(starts, lengths, chunk))
    with mock.patch.object(oracle, "_SUM_CHUNK", chunk):
        assert list(oracle._pieces(starts, lengths)) == expected


NAMES = ("m", "n")
CATALOG = builtin_catalog()


def _linear(const, terms):
    node = Lit(const)
    for coeff, name in terms:
        node = Add(node, Sym(name) if coeff == 1 else Mul(Lit(coeff), Sym(name)))
    return node


def _indices(names):
    return st.builds(_linear, st.integers(-3, 3),
                     st.lists(st.tuples(st.integers(-2, 2), st.sampled_from(names)),
                              max_size=2))


def _squares():
    """Squares of small values of NAMES: exponents, pow5floor arguments and
    sum lengths that are never negative."""
    return st.one_of(st.integers(0, 3).map(Lit), st.sampled_from(NAMES).map(Sym)).map(
        lambda node: Mul(node, node))


def _values(names):
    index = _indices(names)
    leaves = st.one_of(
        st.builds(SeqRef, st.sampled_from("FLG"), index),
        st.integers(-3, 3).map(Lit),
        st.sampled_from(names).map(Sym),
        st.builds(Sign, index),
        st.builds(Binom, index, index),
        st.builds(Pow5Floor, _squares()),
    )
    return st.recursive(leaves, lambda children: st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Neg, children),
        st.builds(Pow, children, st.one_of(st.integers(0, 3).map(Lit), _squares())),
    ), max_leaves=5)


def _sum(start, length, body):
    """sum(k, start, start + length - 1, body): empty when length is 0."""
    return Sum("k", start, Add(start, Add(Lit(-1), length)), body)


def _drawn_side():
    # a sum's bounds read the parameters, so they differ from row to row,
    # and a row's sum may be empty
    sums = st.builds(_sum, _indices(NAMES), _squares(), _values(NAMES + ("k",)))
    top = st.one_of(_values(NAMES), sums)
    return st.one_of(top, st.builds(Add, top, sums))


def _catalog_side():
    entries = [entry for entry in CATALOG if set(entry.free_params) <= {"n", "m", "p", "q"}]
    return st.sampled_from(entries).flatmap(
        lambda entry: st.sampled_from((entry.lhs, entry.rhs)))


@given(st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_batch_matches_point_by_point(data):
    ast = data.draw(st.one_of(_drawn_side(), _catalog_side()))
    names = ("n", "m", "p", "q")
    # n from -2: an empty sum at n = -1, inverted bounds at n = -2
    point = st.tuples(st.integers(-2, 4), *(st.integers(-3, 3) for _ in names[1:]))
    rows = data.draw(st.lists(point, min_size=1, max_size=6))
    rows += data.draw(st.lists(st.sampled_from(rows), max_size=3))  # duplicate points
    rows = data.draw(st.permutations(rows))
    seeds = tuple(data.draw(st.lists(
        st.builds(Seed, st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=4)))
    fn = evaluator(ast, OracleTables(seeds))
    batch = {name: list(column) for name, column in zip(names, zip(*rows))}
    # the batch in small pieces too, which split a row's terms
    chunk = mock.patch.object(oracle, "_SUM_CHUNK", data.draw(st.sampled_from([1, 3, 4096])))
    try:
        expected = [fn(dict(zip(names, row))) for row in rows]
    except EvalError:
        with chunk, pytest.raises(EvalError):
            fn.columns(batch, len(rows))
        return
    with chunk:
        columns = fn.columns(batch, len(rows))
    assert len(columns) == len(dict.fromkeys(seeds))
    assert [[column[i] for column in columns] for i in range(len(rows))] == expected


def test_oracle_module_is_independent_of_fast_paths():
    # layout rule: the oracle may import AST helpers only, never the
    # sequence, ring, or evaluator machinery it cross-checks
    import ast as pyast

    import fibkit.oracle as oracle_module

    source = open(oracle_module.__file__, encoding="utf-8").read()
    tree = pyast.parse(source)
    banned = {"seq", "zphi", "verify", "symbolic", "cli"}
    for node in tree.body:  # runtime imports are top-level
        if isinstance(node, pyast.ImportFrom) and node.module:
            assert node.module.split(".")[-1] not in banned, node.module
    # and it generates no code: its evaluator is a tree of plain closures
    names = {node.id for node in pyast.walk(tree) if isinstance(node, pyast.Name)}
    assert not names & {"exec", "eval", "compile"}
    # and its powers are repeated multiplication: no ** operator, no pow()
    assert not [node for node in pyast.walk(tree) if isinstance(node, pyast.Pow)]
    imported = {alias.asname or alias.name for node in pyast.walk(tree)
                if isinstance(node, (pyast.Import, pyast.ImportFrom)) for alias in node.names}
    assert "pow" not in names | imported


def test_oracle_rejects_bad_input():
    from fibkit import EvalError
    with pytest.raises(EvalError):
        oracle_eval(parse_expr("F(m)^n"), ParamPoint({"m": 1, "n": -2}))
    with pytest.raises(ValueError):
        recurrence_table(0, 1, 5, 4)


def _indices_read(node, values):
    """Each sequence index node reads at the point values, every summation
    index value included, each computed by oracle_eval."""
    if isinstance(node, SeqRef):
        yield oracle_eval(node.arg, ParamPoint(values))
    elif isinstance(node, Sum):
        lo, hi = (oracle_eval(bound, ParamPoint(values)) for bound in (node.lo, node.hi))
        for k in range(lo, hi + 1):
            yield from _indices_read(node.body, {**values, node.var: k})
    else:
        for child in children(node):
            yield from _indices_read(child, values)


@given(st.data())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_window_holds_every_index_read_on_the_grid(data):
    """Every index read at every point of a small grid is inside verify's
    window. The window is tight, both its ends read, when no index has a
    rest and no sum's span, hi - lo, reads a parameter; a sum whose span
    does, such as sum(k, 0, m, F(k - m)), lets its index range over the
    union of every point's range, which one point need not read."""
    ast = data.draw(_drawn_side())
    box = {}
    for name in NAMES:
        lo = data.draw(st.integers(-3, 3))
        box[name] = (lo, lo + data.draw(st.integers(0, 2)))
    window = index_window(ast, box)
    read = [index for point in itertools.product(*(range(lo, hi + 1) for lo, hi in box.values()))
            for index in _indices_read(ast, dict(zip(NAMES, point)))]
    if window is None:
        assert read == []
        return
    assert all(window[0] <= index <= window[1] for index in read)
    nodes = list(iter_nodes(ast))
    if not any(affine(n.arg)[2] for n in nodes if isinstance(n, SeqRef)) and not any(
            any(affine(Sub(n.hi, n.lo))[1:]) for n in nodes if isinstance(n, Sum)):
        assert (min(read), max(read)) == window
