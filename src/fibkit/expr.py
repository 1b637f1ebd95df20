"""AST node types for the identity language, plus the canonical printer.

Nodes are frozen dataclasses, so they hash, compare structurally, and can
be shared freely across workers. The general expression tree carries
literals, symbols, +, -, *, integer powers, sequence references F/L/G,
binomials, sign terms (-1)^e, the 5^floor(e/2) node, and one level of
bounded summation.

Index expressions are the restricted sublanguage {literal, symbol, +, -,
unary -, *} used everywhere an integer argument is required: sequence
indices, sum bounds, power exponents, and the arguments of binom, sign,
and pow5floor. The parser enforces the restriction; analyses downstream
(interval windows, affine forms, parity splits) rely on it, and `affine`
is the one reader of an index's constant and coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Union

__all__ = [
    "Lit", "Sym", "Add", "Sub", "Neg", "Mul", "Pow",
    "SeqRef", "Binom", "Sign", "Pow5Floor", "Sum",
    "Node", "SEQ_KINDS",
    "affine", "children", "free_symbols", "height", "iter_nodes",
    "is_index_expr", "to_text",
]

SEQ_KINDS = ("F", "L", "G")


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: "Node"  # index expression; must evaluate >= 0


@dataclass(frozen=True)
class SeqRef:
    kind: str  # one of SEQ_KINDS
    arg: "Node"  # index expression


@dataclass(frozen=True)
class Binom:
    top: "Node"
    bottom: "Node"  # binom(n, k) = 0 outside 0 <= k <= n


@dataclass(frozen=True)
class Sign:
    arg: "Node"  # (-1)^arg; any integer value


@dataclass(frozen=True)
class Pow5Floor:
    arg: "Node"  # 5^floor(arg/2); arg must evaluate >= 0


@dataclass(frozen=True)
class Sum:
    var: str
    lo: "Node"
    hi: "Node"
    body: "Node"


Node = Union[Lit, Sym, Add, Sub, Neg, Mul, Pow, SeqRef, Binom, Sign, Pow5Floor, Sum]

_BINARY = (Add, Sub, Mul)


def children(node: Node) -> tuple[Node, ...]:
    """Direct subtrees in a fixed order: operands left to right, a sum's
    bounds before its body."""
    if isinstance(node, _BINARY):
        return (node.left, node.right)
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, Pow):
        return (node.base, node.exponent)
    if isinstance(node, SeqRef):
        return (node.arg,)
    if isinstance(node, Binom):
        return (node.top, node.bottom)
    if isinstance(node, (Sign, Pow5Floor)):
        return (node.arg,)
    if isinstance(node, Sum):
        return (node.lo, node.hi, node.body)
    return ()


def iter_nodes(node: Node) -> Iterator[Node]:
    """Yield node and every descendant, preorder."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        stack.extend(reversed(children(cur)))


def height(node: Node) -> int:
    """Number of nodes on the longest root-to-leaf path, found without recursion."""
    deepest = 0
    stack = [(node, 1)]
    while stack:
        cur, level = stack.pop()
        deepest = max(deepest, level)
        stack.extend((child, level + 1) for child in children(cur))
    return deepest


def free_symbols(node: Node) -> frozenset[str]:
    """Names of all symbols not bound by an enclosing sum."""
    def walk(n: Node, bound: frozenset[str]) -> frozenset[str]:
        if isinstance(n, Sym):
            return frozenset() if n.name in bound else frozenset((n.name,))
        if isinstance(n, Sum):
            outer = walk(n.lo, bound) | walk(n.hi, bound)
            return outer | walk(n.body, bound | {n.var})
        result: frozenset[str] = frozenset()
        for child in children(n):
            result |= walk(child, bound)
        return result
    return walk(node, frozenset())


def is_index_expr(node: Node) -> bool:
    """True when the subtree uses only literal/symbol/+/-/* arithmetic."""
    return all(isinstance(n, (Lit, Sym, Add, Sub, Neg, Mul)) for n in iter_nodes(node))


# No symbol bound to a value; never mutated.
_UNBOUND: Mapping[str, int] = {}


def affine(node: Node, env: Mapping[str, int] = _UNBOUND,
           ) -> tuple[int, dict[str, int], frozenset[str]]:
    """An index expression as const + sum(coeffs[s] * s) + R, where R reads
    only the symbols in rest: those read by a product whose two factors
    both read symbols. coeffs holds every nonzero coefficient; a symbol
    outside rest changes the value by exactly its coefficient per unit
    step, and when rest is empty the value at 0 is const. A symbol bound
    in env reads as its value, as a literal in its place would.

    One walk over the tree: such a product is recorded in rest, never
    expanded into monomials, and a product scaled by 0 reads nothing.
    """
    if isinstance(node, Lit):
        return node.value, {}, frozenset()
    if isinstance(node, Sym):
        if node.name in env:
            return env[node.name], {}, frozenset()
        return 0, {node.name: 1}, frozenset()
    if isinstance(node, Neg):
        return affine(Mul(Lit(-1), node.operand), env)
    if not isinstance(node, _BINARY):
        raise TypeError(f"unsupported node {type(node).__name__} in an index expression")
    (c1, t1, r1), (c2, t2, r2) = affine(node.left, env), affine(node.right, env)
    if isinstance(node, Mul):
        if (t1 or r1) and (t2 or r2):
            return 0, {}, r1.union(r2, t1, t2)
        if t1 or r1:  # the constant factor first
            (c1, t1, r1), (c2, t2, r2) = (c2, t2, r2), (c1, t1, r1)
        if c1 == 0:
            return 0, {}, frozenset()
        return c1 * c2, {s: c1 * a for s, a in t2.items()}, r2
    sign = 1 if isinstance(node, Add) else -1
    for s, a in t2.items():
        t1[s] = t1.get(s, 0) + sign * a
    return c1 + sign * c2, {s: a for s, a in t1.items() if a}, r1 | r2


# Printer precedence: + and - bind loosest, then *, then unary -, then ^.
_P_ADD, _P_MUL, _P_NEG, _P_POW, _P_ATOM = 1, 2, 3, 4, 5


def _prec(node: Node) -> int:
    if isinstance(node, (Add, Sub)):
        return _P_ADD
    if isinstance(node, Mul):
        return _P_MUL
    if isinstance(node, Neg):
        return _P_NEG
    if isinstance(node, Lit):
        return _P_ATOM if node.value >= 0 else _P_NEG
    if isinstance(node, Pow):
        return _P_POW
    return _P_ATOM


def to_text(node: Node, env: Mapping[str, int] = _UNBOUND) -> str:
    """Canonical text with minimal parentheses; parse(to_text(x)) == x.
    A free symbol bound in env prints as its value."""
    return _fmt(node, 0, env)


def _fmt(node: Node, ctx: int, env: Mapping[str, int]) -> str:
    if isinstance(node, Sym) and node.name in env:
        node = Lit(env[node.name])
    if isinstance(node, Lit):
        s = str(node.value)
    elif isinstance(node, Sym):
        s = node.name
    elif isinstance(node, Add):
        s = f"{_fmt(node.left, _P_ADD, env)} + {_fmt(node.right, _P_ADD + 1, env)}"
    elif isinstance(node, Sub):
        s = f"{_fmt(node.left, _P_ADD, env)} - {_fmt(node.right, _P_ADD + 1, env)}"
    elif isinstance(node, Mul):
        s = f"{_fmt(node.left, _P_MUL, env)}*{_fmt(node.right, _P_MUL + 1, env)}"
    elif isinstance(node, Neg):
        s = f"-{_fmt(node.operand, _P_NEG, env)}"
    elif isinstance(node, Pow):
        s = f"{_fmt(node.base, _P_POW + 1, env)}^{_fmt(node.exponent, _P_POW, env)}"
    elif isinstance(node, SeqRef):
        s = f"{node.kind}({_fmt(node.arg, 0, env)})"
    elif isinstance(node, Binom):
        s = f"binom({_fmt(node.top, 0, env)}, {_fmt(node.bottom, 0, env)})"
    elif isinstance(node, Sign):
        s = f"sign({_fmt(node.arg, 0, env)})"
    elif isinstance(node, Pow5Floor):
        s = f"pow5floor({_fmt(node.arg, 0, env)})"
    elif isinstance(node, Sum):
        inner = {k: v for k, v in env.items() if k != node.var}  # the index shadows
        s = (f"sum({node.var}, {_fmt(node.lo, 0, env)}, {_fmt(node.hi, 0, env)}, "
             f"{_fmt(node.body, 0, inner)})")
    else:
        raise TypeError(f"unknown node {node!r}")
    return f"({s})" if _prec(node) < ctx else s
