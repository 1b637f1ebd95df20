"""Brute-force reference evaluator, kept independent of the fast paths.

Everything here is recomputed from first principles: sequence values come
from stepping the recurrence one index at a time (forwards and backwards
from the seed pair), powers from repeated multiplication, and binomial
coefficients from Pascal's rule. This module deliberately imports only
AST node types and the neutral interval analysis; it shares no
arithmetic with seq, zphi, or verify, so differential disagreement
always exposes a real bug on one side.

An evaluator gives a side's value on every seed of its tables at once. A
node that reads no G has one value for all of them and is computed once
per point; a node that reads G has one value per seed, each from that
seed's own table. Nothing else is shared, across points or across the
steps of a sum, except that a binom node keeps its last arguments and
value, so a closed binomial walks Pascal's rule once per evaluator.
"""

from __future__ import annotations

import copy
from itertools import repeat
from operator import add, mul, sub
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from .errors import EvalError
from .expr import (
    Add, Binom, Lit, Mul, Neg, Node, Pow, Pow5Floor, SeqRef, Sign, Sub, Sum, Sym,
)
from .ranges import index_window, merge_windows, point_intervals

if TYPE_CHECKING:  # types only; no runtime dependency on the fast paths
    from .seq import Seed
    from .verify import ParamPoint

__all__ = [
    "OracleTables", "evaluator", "oracle_eval", "pascal_binom", "recurrence_table",
]


def recurrence_table(g0: int, g1: int, lo: int, hi: int) -> dict[int, int]:
    """Index-to-value map for the seeded recurrence over lo..hi inclusive.

    Built solely by stepping G(n+2) = G(n+1) + G(n) forwards from the seed
    and G(n) = G(n+2) - G(n+1) backwards from it.
    """
    if lo > hi:
        raise ValueError(f"recurrence_table requires lo <= hi, got {lo} > {hi}")
    values = {0: g0, 1: g1}
    a, b = g0, g1
    for i in range(2, hi + 1):
        a, b = b, a + b
        values[i] = b
    a, b = g0, g1
    for i in range(-1, lo - 1, -1):
        a, b = b - a, a
        values[i] = a
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
    """Recurrence tables over indices lo..hi for F, L and each distinct
    seed's G, in the order the seeds are first listed.

    The window must cover every index any checked expression touches;
    ranges.index_window computes that from the AST and the grid.
    """

    def __init__(self, lo: int, hi: int, seeds: tuple["Seed", ...]):
        self.fib = recurrence_table(0, 1, lo, hi)
        self.lucas = recurrence_table(2, 1, lo, hi)
        self.gen = {s: recurrence_table(s.g0, s.g1, lo, hi)
                    for s in dict.fromkeys(seeds)}

    def select(self, seeds: Iterable["Seed"]) -> "OracleTables":
        """The same tables, with G for the distinct ones of seeds only,
        in the order they are first listed there."""
        chosen = copy.copy(self)
        chosen.gen = {s: self.gen[s] for s in dict.fromkeys(seeds)}
        return chosen


def oracle_eval(ast: Node, pt: "ParamPoint") -> int:
    """Evaluate one identity side at a point using only naive machinery."""
    window = merge_windows(index_window(ast, point_intervals(pt.values)), (0, 1))
    assert window is not None
    tables = OracleTables(window[0], window[1], (pt.seed,))
    return evaluator(ast, tables)(dict(pt.values))[0]


Env = dict[str, int]
Evaluator = Callable[[Env], list[int]]


def evaluator(ast: Node, tables: OracleTables) -> Evaluator:
    """fn(env) -> the values of ast, one per seed of tables in their
    order, with env mapping each free symbol to an int, on tables'
    recurrence values for F, L and each seed's G.

    The tree is walked once, here: each node becomes one closure that
    calls its children's closures, in the order the node reads them. A
    node that reads no G gives one int for all seeds; one that reads G
    gives a list, one value per seed.
    """
    gens = list(tables.gen.values())
    fn, per_seed = _build(ast, {"F": tables.fib, "L": tables.lucas}, gens)
    if per_seed:
        return fn
    width = len(gens)
    return lambda env: [fn(env)] * width


_OPS = {Add: add, Sub: sub, Mul: mul}


def _power(factor: int, times: int) -> int:
    result = 1
    for _ in range(times):
        result *= factor
    return result


def _index(node: Node, seqs: Mapping[str, Mapping[int, int]],
           gens: list[Mapping[int, int]]) -> Callable[[Env], int]:
    """The closure of an index, exponent, argument or sum bound: one value
    for all seeds, since these never read G."""
    fn, per_seed = _build(node, seqs, gens)
    if per_seed:
        raise TypeError(f"G read where an index is expected: {node!r}")
    return fn


def _build(node: Node, seqs: Mapping[str, Mapping[int, int]],
           gens: list[Mapping[int, int]]) -> tuple[Callable[[Env], Any], bool]:
    """node's closure, and whether it reads G: then its closure gives a
    list, one value per table in gens, else one int."""
    if isinstance(node, Lit):
        value = node.value
        return lambda env: value, False
    if isinstance(node, Sym):
        name = node.name

        def sym(env: Env) -> int:
            try:
                return env[name]
            except KeyError:
                raise EvalError(f"symbol '{name}' has no value") from None
        return sym, False
    if isinstance(node, Neg):
        operand, per_seed = _build(node.operand, seqs, gens)
        if per_seed:
            return lambda env: [-value for value in operand(env)], True
        return lambda env: -operand(env), False
    if isinstance(node, (Add, Sub, Mul)):
        left, left_each = _build(node.left, seqs, gens)
        right, right_each = _build(node.right, seqs, gens)
        if left_each or right_each:
            op = _OPS[type(node)]

            def each(env: Env) -> list[int]:
                a, b = left(env), right(env)
                return list(map(op, a if left_each else repeat(a),
                                b if right_each else repeat(b)))
            return each, True
        if isinstance(node, Add):
            return lambda env: left(env) + right(env), False
        if isinstance(node, Sub):
            return lambda env: left(env) - right(env), False
        return lambda env: left(env) * right(env), False
    if isinstance(node, Pow):
        base, per_seed = _build(node.base, seqs, gens)
        exponent = _index(node.exponent, seqs, gens)

        def power(env: Env) -> Any:
            times = exponent(env)
            if times < 0:
                raise EvalError(f"negative exponent {times} in power")
            factor = base(env)
            if per_seed:
                return [_power(f, times) for f in factor]
            return _power(factor, times)
        return power, per_seed
    if isinstance(node, SeqRef):
        kind, arg = node.kind, _index(node.arg, seqs, gens)

        def missing(idx: int) -> EvalError:
            return EvalError(f"oracle table window misses index {idx} for {kind}")
        if kind == "G":
            def lookup_each(env: Env) -> list[int]:
                idx = arg(env)
                try:
                    return [values[idx] for values in gens]
                except KeyError:
                    raise missing(idx) from None
            return lookup_each, True
        values = seqs[kind]

        def lookup(env: Env) -> int:
            idx = arg(env)
            try:
                return values[idx]
            except KeyError:
                raise missing(idx) from None
        return lookup, False
    if isinstance(node, Binom):
        top, bottom = _index(node.top, seqs, gens), _index(node.bottom, seqs, gens)
        last, value = None, 0  # a closed binom walks Pascal's rule once

        def binom(env: Env) -> int:
            nonlocal last, value
            args = top(env), bottom(env)
            if args != last:
                last, value = args, pascal_binom(*args)
            return value
        return binom, False
    if isinstance(node, Sign):
        arg = _index(node.arg, seqs, gens)
        return lambda env: 1 if arg(env) % 2 == 0 else -1, False
    if isinstance(node, Pow5Floor):
        arg = _index(node.arg, seqs, gens)

        def pow5floor(env: Env) -> int:
            value = arg(env)
            if value < 0:
                raise EvalError(f"pow5floor argument {value} is negative")
            return _power(5, value // 2)
        return pow5floor, False
    if isinstance(node, Sum):
        var = node.var
        lo, hi = _index(node.lo, seqs, gens), _index(node.hi, seqs, gens)
        body, per_seed = _build(node.body, seqs, gens)
        width = len(gens)

        def total(env: Env) -> Any:
            start, stop = lo(env), hi(env)
            if start > stop + 1:
                raise EvalError(f"sum bounds {start}..{stop} are inverted")
            inner = dict(env)  # one copy per sum; each step rebinds the index
            if per_seed:
                result: Any = [0] * width
                for k in range(start, stop + 1):
                    inner[var] = k
                    result = list(map(add, result, body(inner)))
                return result
            result = 0
            for k in range(start, stop + 1):
                inner[var] = k
                result += body(inner)
            return result
        return total, per_seed
    raise TypeError(f"unknown node {node!r}")
