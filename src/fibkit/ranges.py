"""Interval analysis over identity ASTs.

Computes tight inclusive bounds on every sequence index an expression can
touch while its parameters range over an integer box. Both the fast
evaluator and the brute-force oracle size their lookup tables from this;
the analysis itself contains no sequence or binomial arithmetic, so a bug
here surfaces as a missing table entry, never as two engines agreeing on
a wrong value.
"""

from __future__ import annotations

from typing import Mapping

from .errors import EvalError
from .expr import (
    Add, Binom, Lit, Mul, Neg, Node, Pow, Pow5Floor, SeqRef, Sign, Sub, Sum, Sym, affine,
)

__all__ = ["Interval", "expr_interval", "index_window", "point_intervals", "merge_windows"]

Interval = tuple[int, int]


def point_intervals(values: Mapping[str, int]) -> dict[str, Interval]:
    """Degenerate intervals for a single concrete parameter point."""
    return {name: (v, v) for name, v in values.items()}


def expr_interval(node: Node, env: Mapping[str, Interval]) -> Interval:
    """Bounds of an index expression over the parameter box `env`."""
    if isinstance(node, Lit):
        return (node.value, node.value)
    if isinstance(node, Sym):
        try:
            return env[node.name]
        except KeyError:
            raise EvalError(f"no range for parameter '{node.name}'") from None
    if isinstance(node, Add):
        (a, b), (c, d) = expr_interval(node.left, env), expr_interval(node.right, env)
        return (a + c, b + d)
    if isinstance(node, Sub):
        (a, b), (c, d) = expr_interval(node.left, env), expr_interval(node.right, env)
        return (a - d, b - c)
    if isinstance(node, Neg):
        a, b = expr_interval(node.operand, env)
        return (-b, -a)
    if isinstance(node, Mul):
        (a, b), (c, d) = expr_interval(node.left, env), expr_interval(node.right, env)
        corners = (a * c, a * d, b * c, b * d)
        return (min(corners), max(corners))
    raise EvalError(f"cannot bound non-index expression node {type(node).__name__}")


def _index_interval(node: Node, env: Mapping[str, Interval]) -> Interval:
    """Bounds of an index over the box, tight when it is affine: read as
    const + sum(c * s), each symbol's bounds count once, so a symbol read
    twice cancels. A product of two symbol-reading factors is bounded by
    expr_interval."""
    bounds = expr_interval(node, env)  # raises on a symbol with no range
    const, coeffs, rest = affine(node)
    if rest:
        return bounds
    lo = hi = const
    for name, c in coeffs.items():
        a, b = env[name]
        lo, hi = lo + min(c * a, c * b), hi + max(c * a, c * b)
    return lo, hi


def merge_windows(*windows: Interval | None) -> Interval | None:
    lo, hi = None, None
    for w in windows:
        if w is None:
            continue
        lo = w[0] if lo is None else min(lo, w[0])
        hi = w[1] if hi is None else max(hi, w[1])
    return None if lo is None else (lo, hi)


def index_window(node: Node, env: Mapping[str, Interval]) -> Interval | None:
    """Union of the index intervals of every sequence reference under node.

    Returns None when the expression contains no F/L/G reference. Sum
    variables are bounded by the bounds' own intervals; a sum that is
    empty over the whole box contributes nothing.
    """
    if isinstance(node, SeqRef):
        return _index_interval(node.arg, env)
    if isinstance(node, (Add, Sub, Mul)):
        return merge_windows(index_window(node.left, env),
                             index_window(node.right, env))
    if isinstance(node, Neg):
        return index_window(node.operand, env)
    if isinstance(node, Pow):
        return merge_windows(index_window(node.base, env),
                             index_window(node.exponent, env))
    if isinstance(node, (Sign, Pow5Floor)):
        return index_window(node.arg, env)
    if isinstance(node, Binom):
        return merge_windows(index_window(node.top, env),
                             index_window(node.bottom, env))
    if isinstance(node, Sum):
        lo_iv = expr_interval(node.lo, env)
        hi_iv = expr_interval(node.hi, env)
        if lo_iv[0] > hi_iv[1]:
            return None  # empty for every point in the box
        inner = dict(env)
        inner[node.var] = (lo_iv[0], hi_iv[1])
        return index_window(node.body, inner)
    return None  # Lit, Sym
