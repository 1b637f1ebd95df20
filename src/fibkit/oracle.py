"""Brute-force reference evaluator, kept independent of the fast paths.

Everything here is recomputed from first principles: sequence values come
from stepping the recurrence one index at a time (forwards and backwards
from the seed pair), and binomial coefficients come from Pascal's rule.
This module deliberately imports only AST node types and the neutral
interval analysis; it shares no arithmetic with seq, zphi, or verify, so
differential disagreement always exposes a real bug on one side.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

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
    seed's G.

    The window must cover every index any checked expression touches;
    ranges.index_window computes that from the AST and the grid.
    """

    def __init__(self, lo: int, hi: int, seeds: tuple["Seed", ...]):
        self.fib = recurrence_table(0, 1, lo, hi)
        self.lucas = recurrence_table(2, 1, lo, hi)
        self.gen = {s: recurrence_table(s.g0, s.g1, lo, hi)
                    for s in dict.fromkeys(seeds)}


def oracle_eval(ast: Node, pt: "ParamPoint") -> int:
    """Evaluate one identity side at a point using only naive machinery."""
    window = merge_windows(index_window(ast, point_intervals(pt.values)), (0, 1))
    assert window is not None
    tables = OracleTables(window[0], window[1], (pt.seed,))
    return evaluator(ast, tables, pt.seed)(dict(pt.values))


Evaluator = Callable[[dict[str, int]], int]


def evaluator(ast: Node, tables: OracleTables, seed: "Seed") -> Evaluator:
    """fn(env) -> the value of ast, with env mapping each free symbol to
    an int, on tables' recurrence values for F, L and the seed's G.

    The tree is walked once, here: each node becomes one closure that
    calls its children's closures, in the order the node reads them.
    """
    return _build(ast, {"F": tables.fib, "L": tables.lucas, "G": tables.gen[seed]})


def _build(node: Node, seqs: Mapping[str, Mapping[int, int]]) -> Evaluator:
    if isinstance(node, Lit):
        value = node.value
        return lambda env: value
    if isinstance(node, Sym):
        name = node.name

        def sym(env: dict[str, int]) -> int:
            try:
                return env[name]
            except KeyError:
                raise EvalError(f"symbol '{name}' has no value") from None
        return sym
    if isinstance(node, Neg):
        operand = _build(node.operand, seqs)
        return lambda env: -operand(env)
    if isinstance(node, (Add, Sub, Mul)):
        left, right = _build(node.left, seqs), _build(node.right, seqs)
        if isinstance(node, Add):
            return lambda env: left(env) + right(env)
        if isinstance(node, Sub):
            return lambda env: left(env) - right(env)
        return lambda env: left(env) * right(env)
    if isinstance(node, Pow):
        base, exponent = _build(node.base, seqs), _build(node.exponent, seqs)

        def power(env: dict[str, int]) -> int:
            times = exponent(env)
            if times < 0:
                raise EvalError(f"negative exponent {times} in power")
            factor = base(env)
            result = 1
            for _ in range(times):
                result *= factor
            return result
        return power
    if isinstance(node, SeqRef):
        kind, values, arg = node.kind, seqs[node.kind], _build(node.arg, seqs)

        def lookup(env: dict[str, int]) -> int:
            idx = arg(env)
            try:
                return values[idx]
            except KeyError:
                raise EvalError(
                    f"oracle table window misses index {idx} for {kind}") from None
        return lookup
    if isinstance(node, Binom):
        top, bottom = _build(node.top, seqs), _build(node.bottom, seqs)
        return lambda env: pascal_binom(top(env), bottom(env))
    if isinstance(node, Sign):
        arg = _build(node.arg, seqs)
        return lambda env: 1 if arg(env) % 2 == 0 else -1
    if isinstance(node, Pow5Floor):
        arg = _build(node.arg, seqs)

        def pow5floor(env: dict[str, int]) -> int:
            value = arg(env)
            if value < 0:
                raise EvalError(f"pow5floor argument {value} is negative")
            result = 1
            for _ in range(value // 2):
                result *= 5
            return result
        return pow5floor
    if isinstance(node, Sum):
        var = node.var
        lo, hi, body = (_build(child, seqs) for child in (node.lo, node.hi, node.body))

        def total(env: dict[str, int]) -> int:
            start, stop = lo(env), hi(env)
            if start > stop + 1:
                raise EvalError(f"sum bounds {start}..{stop} are inverted")
            inner = dict(env)  # one copy per sum; each step rebinds the index
            result = 0
            for k in range(start, stop + 1):
                inner[var] = k
                result += body(inner)
            return result
        return total
    raise TypeError(f"unknown node {node!r}")
