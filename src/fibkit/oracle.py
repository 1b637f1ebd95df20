"""Brute-force reference evaluator, kept independent of the fast paths.

Everything here is recomputed from first principles: sequence values come
from stepping the recurrence one index at a time (forwards and backwards
from the seed pair, out to the farthest index read so far), powers from
repeated multiplication (math.prod over repeat(base, exponent), never the
** operator), and binomial coefficients from Pascal's rule. This module
deliberately imports only AST node types and errors: it shares no
arithmetic with seq, zphi, or verify, and no analysis sizes its tables,
so differential disagreement always exposes a real bug on one side.

An evaluator works on columns: given a batch of points, one list of
values per parameter, it gives a side's values at each point on every
seed of its tables at once, one list per seed, and each node's closure
is called once per batch. A node that reads no G gives one column for
all the seeds; a node that reads G gives one column per seed, each read
from that seed's own table. A sum expands its rows into one batch of
(row, k) terms, evaluates its body once on that batch, and adds each
row's terms back into that row; it does so in pieces of at most
_SUM_CHUNK terms, so a sum over a huge range holds a bounded number of
values. A piece is a run of consecutive rows, the first and last of
which may be split with the pieces beside it, and its row sums are
added into that run of the output in one step; when all the terms fit
in one piece, the piece is the rows themselves, so neither the split
nor the adding back steps through the rows in Python. Each row is
computed from its own parameter values alone, except that a batch
computes a binomial once per distinct pair of arguments, and a binom
node keeps its last arguments and value across batches, so a closed
binomial walks Pascal's rule once per evaluator. A call with one
point's values is the batch of that one point.
"""

from __future__ import annotations

import copy
from itertools import accumulate, chain, repeat
from math import prod
from operator import add, floordiv, mul, neg, sub
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import EvalError
from .expr import (
    Add, Binom, Lit, Mul, Neg, Node, Pow, Pow5Floor, SeqRef, Sign, Sub, Sum, Sym,
    free_symbols,
)

if TYPE_CHECKING:  # types only; no runtime dependency on the fast paths
    from .seq import Seed
    from .verify import ParamPoint

__all__ = [
    "OracleTables", "evaluator", "oracle_eval", "pascal_binom", "recurrence_table",
]


class _Recurrence(dict):
    """Index-to-value map for the recurrence seeded G(0) = g0, G(1) = g1,
    holding one run of indices around the seed. A missing index is stepped
    to from the nearer end of the run, by G(n+2) = G(n+1) + G(n) forwards
    and G(n) = G(n+2) - G(n+1) backwards, and the run grows to it; an index
    already held is read as from any dict."""

    def __init__(self, g0: int, g1: int):
        super().__init__(((0, g0), (1, g1)))
        self.lo, self.hi = 0, 1

    def __missing__(self, index: int) -> int:
        if index > self.hi:
            for i in range(self.hi + 1, index + 1):
                self[i] = self[i - 1] + self[i - 2]
            self.hi = index
        else:
            for i in range(self.lo - 1, index - 1, -1):
                self[i] = self[i + 2] - self[i + 1]
            self.lo = index
        return self[index]


def recurrence_table(g0: int, g1: int, lo: int, hi: int) -> dict[int, int]:
    """Index-to-value map for the seeded recurrence over lo..hi inclusive,
    stepped from the seed."""
    if lo > hi:
        raise ValueError(f"recurrence_table requires lo <= hi, got {lo} > {hi}")
    values = _Recurrence(g0, g1)
    return {i: values[i] for i in range(lo, hi + 1)}


# Rows 0.._PASCAL_ROWS_KEPT of Pascal's triangle are kept once built; a
# row past them is stepped to from the last kept row on every call.
_PASCAL_ROWS_KEPT = 256
_pascal_rows: list[list[int]] = [[1]]


def pascal_binom(n: int, k: int) -> int:
    """Binomial coefficient from Pascal's rule; 0 outside 0 <= k <= n.

    Past the kept rows, only the columns 0..min(k, n - k) of one row are
    held while stepping, since column j of a row needs only columns j - 1
    and j of the row above.
    """
    if k < 0 or k > n:
        return 0
    while len(_pascal_rows) <= min(n, _PASCAL_ROWS_KEPT):
        prev = _pascal_rows[-1]
        row = [1]
        for i in range(1, len(prev)):
            row.append(prev[i - 1] + prev[i])
        row.append(1)
        _pascal_rows.append(row)
    if n <= _PASCAL_ROWS_KEPT:
        return _pascal_rows[n][k]
    k = min(k, n - k)
    row = _pascal_rows[_PASCAL_ROWS_KEPT][:k + 1]
    row += [0] * (k + 1 - len(row))
    for _ in range(n - _PASCAL_ROWS_KEPT):
        for j in range(k, 0, -1):
            row[j] += row[j - 1]
    return row[k]


class OracleTables:
    """Recurrence tables for F, L and each distinct seed's G, in the order
    the seeds are first listed. Each holds the run of indices from its
    seed out to the farthest one read so far, and grows on a miss."""

    def __init__(self, seeds: tuple["Seed", ...]):
        self.fib = _Recurrence(0, 1)
        self.lucas = _Recurrence(2, 1)
        self.gen = {s: _Recurrence(s.g0, s.g1) for s in dict.fromkeys(seeds)}

    def select(self, seeds: Iterable["Seed"]) -> "OracleTables":
        """The same tables, with G for the distinct ones of seeds only,
        in the order they are first listed there."""
        chosen = copy.copy(self)
        chosen.gen = {s: self.gen[s] for s in dict.fromkeys(seeds)}
        return chosen


def oracle_eval(ast: Node, pt: "ParamPoint") -> int:
    """Evaluate one identity side at a point using only naive machinery."""
    return evaluator(ast, OracleTables((pt.seed,)))(dict(pt.values))[0]


Columns = Mapping[str, Sequence[int]]


class Evaluator:
    """A side's values over a batch of points.

    columns(cols, size) takes one column per parameter, each holding its
    values at the batch's size points in order, and gives one column per
    seed of the tables, in their order. Calling it with one point's env
    runs the same closures on the batch of that one point and gives the
    point's values, one per seed.
    """

    def __init__(self, columns: Callable[[Columns, int], list[list[int]]]):
        self.columns = columns

    def __call__(self, env: Mapping[str, int]) -> list[int]:
        batch = {name: [value] for name, value in env.items()}
        return [column[0] for column in self.columns(batch, 1)]


def evaluator(ast: Node, tables: OracleTables) -> Evaluator:
    """ast's evaluator on tables' recurrence values for F, L and each
    seed's G, giving one value per seed of tables in their order.

    The tree is walked once, here: each node becomes one closure that
    calls its children's closures, in the order the node reads them, once
    per batch. A node that reads no G gives one column for all seeds; one
    that reads G gives one column per seed.
    """
    gens = list(tables.gen.values())
    fn, per_seed = _build(ast, {"F": tables.fib, "L": tables.lucas}, gens)
    if per_seed:
        return Evaluator(fn)
    width = len(gens)
    return Evaluator(lambda cols, size: [fn(cols, size)] * width)


_OPS = {Add: add, Sub: sub, Mul: mul}

# A sum's terms are evaluated in pieces of at most this many, so that a sum
# over a huge range holds a bounded number of values at a time.
_SUM_CHUNK = 4096


def _pieces(starts: list[int], lengths: list[int]) -> Iterator[tuple[int, list[int], list[int]]]:
    """The terms of a sum whose row i has lengths[i] terms from the index
    starts[i] on, in pieces of at most _SUM_CHUNK terms. A piece is a run
    of consecutive rows: the first row's position, and the first index
    each row takes and how many. A row may be split across pieces, a row
    with no terms takes none, and no piece is empty. When every term fits
    in one piece, the piece is the rows themselves."""
    terms = sum(lengths)
    if terms <= _SUM_CHUNK:
        if terms:
            yield 0, starts, lengths
        return
    row, firsts, counts, room = 0, [], [], _SUM_CHUNK
    for i, (start, count) in enumerate(zip(starts, lengths)):
        firsts.append(start)
        counts.append(0)
        while count >= room:  # the piece fills up in row i
            counts[-1] += room
            yield row, firsts, counts
            start += room
            count -= room
            row, firsts, counts, room = i, [start], [0], _SUM_CHUNK
        counts[-1] += count
        room -= count
    if room < _SUM_CHUNK:
        yield row, firsts, counts


def _index(node: Node, seqs: Mapping[str, Mapping[int, int]],
           gens: list[Mapping[int, int]]) -> Callable[[Columns, int], list[int]]:
    """The closure of an index, exponent, argument or sum bound: one column
    for all seeds, since these never read G."""
    fn, per_seed = _build(node, seqs, gens)
    if per_seed:
        raise TypeError(f"G read where an index is expected: {node!r}")
    return fn


def _build(node: Node, seqs: Mapping[str, Mapping[int, int]],
           gens: list[Mapping[int, int]]) -> tuple[Callable[[Columns, int], Any], bool]:
    """node's closure fn(cols, size), and whether it reads G: then fn gives
    one column per table in gens, else one column for all of them. Each
    row of a column is computed from that row's parameter values alone."""
    if isinstance(node, Lit):
        value = node.value
        return lambda cols, size: [value] * size, False
    if isinstance(node, Sym):
        name = node.name

        def sym(cols: Columns, size: int) -> Sequence[int]:
            try:
                return cols[name]
            except KeyError:
                raise EvalError(f"symbol '{name}' has no value") from None
        return sym, False
    if isinstance(node, Neg):
        operand, per_seed = _build(node.operand, seqs, gens)
        if per_seed:
            return lambda cols, size: [list(map(neg, column))
                                       for column in operand(cols, size)], True
        return lambda cols, size: list(map(neg, operand(cols, size))), False
    if isinstance(node, (Add, Sub, Mul)):
        left, left_each = _build(node.left, seqs, gens)
        right, right_each = _build(node.right, seqs, gens)
        op = _OPS[type(node)]
        if left_each or right_each:
            def each(cols: Columns, size: int) -> list[list[int]]:
                a, b = left(cols, size), right(cols, size)
                return [list(map(op, x, y)) for x, y in
                        zip(a if left_each else repeat(a), b if right_each else repeat(b))]
            return each, True
        return lambda cols, size: list(map(op, left(cols, size), right(cols, size))), False
    if isinstance(node, Pow):
        base, per_seed = _build(node.base, seqs, gens)
        exponent = _index(node.exponent, seqs, gens)

        def power(cols: Columns, size: int) -> Any:
            times = exponent(cols, size)
            if min(times, default=0) < 0:
                first = next(t for t in times if t < 0)
                raise EvalError(f"negative exponent {first} in power")
            factor = base(cols, size)
            if per_seed:
                return [list(map(prod, map(repeat, column, times))) for column in factor]
            return list(map(prod, map(repeat, factor, times)))
        return power, per_seed
    if isinstance(node, SeqRef):
        arg = _index(node.arg, seqs, gens)
        if node.kind == "G":
            def lookup_each(cols: Columns, size: int) -> list[list[int]]:
                idx = arg(cols, size)
                return [list(map(values.__getitem__, idx)) for values in gens]
            return lookup_each, True
        values = seqs[node.kind]
        return lambda cols, size: list(map(values.__getitem__, arg(cols, size))), False
    if isinstance(node, Binom):
        top, bottom = _index(node.top, seqs, gens), _index(node.bottom, seqs, gens)
        # a batch walks Pascal's rule once per distinct pair of arguments,
        # and the last pair carries to the next batch: a closed binom walks
        # it once per evaluator
        last: tuple[Any, int] = (None, 0)

        def binom(cols: Columns, size: int) -> list[int]:
            nonlocal last
            rows = list(zip(top(cols, size), bottom(cols, size)))
            values = dict.fromkeys(rows)
            for args in values:
                values[args] = last[1] if args == last[0] else pascal_binom(*args)
            if rows:
                last = rows[-1], values[rows[-1]]
            return list(map(values.__getitem__, rows))
        return binom, False
    if isinstance(node, Sign):
        arg = _index(node.arg, seqs, gens)
        return lambda cols, size: [1 if v % 2 == 0 else -1 for v in arg(cols, size)], False
    if isinstance(node, Pow5Floor):
        arg = _index(node.arg, seqs, gens)

        def pow5floor(cols: Columns, size: int) -> list[int]:
            values = arg(cols, size)
            if min(values, default=0) < 0:
                first = next(v for v in values if v < 0)
                raise EvalError(f"pow5floor argument {first} is negative")
            return list(map(prod, map(repeat, repeat(5), map(floordiv, values, repeat(2)))))
        return pow5floor, False
    if isinstance(node, Sum):
        var = node.var
        lo, hi = _index(node.lo, seqs, gens), _index(node.hi, seqs, gens)
        body, per_seed = _build(node.body, seqs, gens)
        names = free_symbols(node.body) - {var}
        width = len(gens) if per_seed else 1

        def total(cols: Columns, size: int) -> Any:
            starts, stops = lo(cols, size), hi(cols, size)
            lengths = [stop - start + 1 for start, stop in zip(starts, stops)]
            if min(lengths, default=0) < 0:
                row = next(i for i, length in enumerate(lengths) if length < 0)
                raise EvalError(f"sum bounds {starts[row]}..{stops[row]} are inverted")
            sums = [[0] * size for _ in range(width)]
            for row, firsts, counts in _pieces(starts, lengths):
                rows = slice(row, row + len(counts))
                # the piece's terms as a batch: each row's values, repeated
                # once per term, and the index running over the row's range
                terms = {name: list(chain.from_iterable(map(repeat, cols[name][rows], counts)))
                         for name in names if name in cols}
                ks = list(chain.from_iterable(map(range, firsts, map(add, firsts, counts))))
                terms[var] = ks
                values = body(terms, len(ks))
                ends = list(accumulate(counts))
                slices = list(map(slice, chain((0,), ends), ends))
                for out, column in zip(sums, values if per_seed else (values,)):
                    out[rows] = map(add, out[rows], map(sum, map(column.__getitem__, slices)))
            return sums if per_seed else sums[0]
        return total, per_seed
    raise TypeError(f"unknown node {node!r}")
