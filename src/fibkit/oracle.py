"""Brute-force reference evaluator, kept independent of the fast paths.

Everything here is recomputed from first principles: sequence values come
from stepping the recurrence one index at a time (forwards and backwards
from the seed pair), and binomial coefficients come from Pascal's rule.
This module deliberately imports only AST node types and the neutral
interval analysis; it shares no arithmetic with seq, zphi, or verify, so
differential disagreement always exposes a real bug on one side.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from .errors import EvalError
from .expr import (
    Add, Binom, Lit, Mul, Neg, Node, Pow, Pow5Floor, SeqRef, Sign, Sub, Sum, Sym,
)
from .ranges import index_window, merge_windows, point_intervals

if TYPE_CHECKING:  # types only; no runtime dependency on the fast paths
    from .seq import Seed
    from .verify import ParamPoint

__all__ = ["OracleTables", "oracle_eval", "pascal_binom", "recurrence_table"]


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


_pascal_rows: list[list[int]] = [[1]]


def pascal_binom(n: int, k: int) -> int:
    """Binomial coefficient from Pascal's rule; 0 outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    while len(_pascal_rows) <= n:
        prev = _pascal_rows[-1]
        row = [1]
        for i in range(1, len(prev)):
            row.append(prev[i - 1] + prev[i])
        row.append(1)
        _pascal_rows.append(row)
    return _pascal_rows[n][k]


class OracleTables:
    """Recurrence tables over indices lo..hi for F, L and each seed's G.

    The window must cover every index any checked expression touches;
    ranges.index_window computes that from the AST and the grid.
    """

    def __init__(self, lo: int, hi: int, seeds: tuple["Seed", ...]):
        self.fib = recurrence_table(0, 1, lo, hi)
        self.lucas = recurrence_table(2, 1, lo, hi)
        self.gen = {s: recurrence_table(s.g0, s.g1, lo, hi) for s in seeds}


def oracle_eval(ast: Node, pt: "ParamPoint", tables: OracleTables | None = None) -> int:
    """Evaluate one identity side at a point using only naive machinery."""
    if tables is None:
        window = merge_windows(index_window(ast, point_intervals(pt.values)), (0, 1))
        assert window is not None
        tables = OracleTables(window[0], window[1], (pt.seed,))
    seq_tables = {"F": tables.fib, "L": tables.lucas, "G": tables.gen[pt.seed]}
    return _interp(ast, dict(pt.values), seq_tables)


def _interp(node: Node, env: dict[str, int],
            tables: Mapping[str, Mapping[int, int]]) -> int:
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Sym):
        try:
            return env[node.name]
        except KeyError:
            raise EvalError(f"symbol '{node.name}' has no value") from None
    if isinstance(node, Add):
        return _interp(node.left, env, tables) + _interp(node.right, env, tables)
    if isinstance(node, Sub):
        return _interp(node.left, env, tables) - _interp(node.right, env, tables)
    if isinstance(node, Neg):
        return -_interp(node.operand, env, tables)
    if isinstance(node, Mul):
        return _interp(node.left, env, tables) * _interp(node.right, env, tables)
    if isinstance(node, Pow):
        exponent = _interp(node.exponent, env, tables)
        if exponent < 0:
            raise EvalError(f"negative exponent {exponent} in power")
        base = _interp(node.base, env, tables)
        result = 1
        for _ in range(exponent):
            result *= base
        return result
    if isinstance(node, SeqRef):
        idx = _interp(node.arg, env, tables)
        try:
            return tables[node.kind][idx]
        except KeyError:
            raise EvalError(
                f"oracle table window misses index {idx} for {node.kind}") from None
    if isinstance(node, Binom):
        return pascal_binom(_interp(node.top, env, tables),
                            _interp(node.bottom, env, tables))
    if isinstance(node, Sign):
        return 1 if _interp(node.arg, env, tables) % 2 == 0 else -1
    if isinstance(node, Pow5Floor):
        arg = _interp(node.arg, env, tables)
        if arg < 0:
            raise EvalError(f"pow5floor argument {arg} is negative")
        result = 1
        for _ in range(arg // 2):
            result *= 5
        return result
    if isinstance(node, Sum):
        lo = _interp(node.lo, env, tables)
        hi = _interp(node.hi, env, tables)
        if lo > hi + 1:
            raise EvalError(f"sum bounds {lo}..{hi} are inverted")
        total = 0
        for k in range(lo, hi + 1):
            inner = dict(env)
            inner[node.var] = k
            total += _interp(node.body, inner, tables)
        return total
    raise TypeError(f"unknown node {node!r}")
