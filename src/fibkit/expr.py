"""AST node types for the identity language, plus the canonical printer.

Nodes are immutable records (see record.py): they compare structurally,
and only with nodes of the same type, so Add(a, b) != Sub(a, b); each
node's hash is computed once, when it is built, from its children's
stored hashes; and they pickle, so they can be sent to workers. The
general expression tree carries literals, symbols, +, -, *, integer
powers, sequence references F/L/G, binomials, sign terms (-1)^e, the
5^floor(e/2) node, and one level of bounded summation.

Index expressions are the restricted sublanguage {literal, symbol, +, -,
unary -, *} used everywhere an integer argument is required: sequence
indices, sum bounds, power exponents, and the arguments of binom, sign,
and pow5floor. The parser enforces the restriction; analyses downstream
(interval windows, affine forms, parity splits) rely on it, and `affine`
is the one reader of an index's constant and coefficients.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterator, Mapping

from .record import Record

__all__ = [
    "Lit", "Sym", "Add", "Sub", "Neg", "Mul", "Pow",
    "SeqRef", "Binom", "Sign", "Pow5Floor", "Sum",
    "Node", "SEQ_KINDS",
    "affine", "children", "free_symbols", "iter_nodes", "to_text",
]

SEQ_KINDS = ("F", "L", "G")

_set = object.__setattr__


class Node(Record):
    """Base of the AST node types. `_child_fields` names the fields that
    hold subtrees, in the order `children` gives them."""

    __slots__ = ("_hash",)
    _child_fields: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and self._values() == other._values()

    def __hash__(self) -> int:
        return self._hash


class Lit(Node):
    __slots__ = _fields = ("value",)

    def __init__(self, value: int):
        _set(self, "value", value)
        _set(self, "_hash", hash((Lit, value)))


class Sym(Node):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)
        _set(self, "_hash", hash((Sym, name)))


class Add(Node):
    __slots__ = _fields = _child_fields = ("left", "right")

    def __init__(self, left: Node, right: Node):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_hash", hash((Add, left._hash, right._hash)))


class Sub(Node):
    __slots__ = _fields = _child_fields = ("left", "right")

    def __init__(self, left: Node, right: Node):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_hash", hash((Sub, left._hash, right._hash)))


class Neg(Node):
    __slots__ = _fields = _child_fields = ("operand",)

    def __init__(self, operand: Node):
        _set(self, "operand", operand)
        _set(self, "_hash", hash((Neg, operand._hash)))


class Mul(Node):
    __slots__ = _fields = _child_fields = ("left", "right")

    def __init__(self, left: Node, right: Node):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_hash", hash((Mul, left._hash, right._hash)))


class Pow(Node):
    __slots__ = _fields = _child_fields = ("base", "exponent")

    def __init__(self, base: Node, exponent: Node):
        _set(self, "base", base)
        _set(self, "exponent", exponent)  # index expression; must evaluate >= 0
        _set(self, "_hash", hash((Pow, base._hash, exponent._hash)))


class SeqRef(Node):
    __slots__ = _fields = ("kind", "arg")
    _child_fields = ("arg",)

    def __init__(self, kind: str, arg: Node):
        _set(self, "kind", kind)  # one of SEQ_KINDS
        _set(self, "arg", arg)  # index expression
        _set(self, "_hash", hash((SeqRef, kind, arg._hash)))


class Binom(Node):
    __slots__ = _fields = _child_fields = ("top", "bottom")

    def __init__(self, top: Node, bottom: Node):
        _set(self, "top", top)
        _set(self, "bottom", bottom)  # binom(n, k) = 0 outside 0 <= k <= n
        _set(self, "_hash", hash((Binom, top._hash, bottom._hash)))


class Sign(Node):
    __slots__ = _fields = _child_fields = ("arg",)

    def __init__(self, arg: Node):
        _set(self, "arg", arg)  # (-1)^arg; any integer value
        _set(self, "_hash", hash((Sign, arg._hash)))


class Pow5Floor(Node):
    __slots__ = _fields = _child_fields = ("arg",)

    def __init__(self, arg: Node):
        _set(self, "arg", arg)  # 5^floor(arg/2); arg must evaluate >= 0
        _set(self, "_hash", hash((Pow5Floor, arg._hash)))


class Sum(Node):
    __slots__ = _fields = ("var", "lo", "hi", "body")
    _child_fields = ("lo", "hi", "body")

    def __init__(self, var: str, lo: Node, hi: Node, body: Node):
        _set(self, "var", var)
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "body", body)
        _set(self, "_hash", hash((Sum, var, lo._hash, hi._hash, body._hash)))


_BINARY = frozenset((Add, Sub, Mul))


def _getter(fields: tuple[str, ...]) -> Callable[[Node], tuple[Node, ...]]:
    """A node's fields named in fields, as a tuple."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:
        get = attrgetter(*fields)
        return lambda node: (get(node),)
    return lambda node: ()


_CHILDREN = {cls: _getter(cls._child_fields)
             for cls in (Lit, Sym, Add, Sub, Neg, Mul, Pow,
                         SeqRef, Binom, Sign, Pow5Floor, Sum)}


def children(node: Node) -> tuple[Node, ...]:
    """Direct subtrees in a fixed order: operands left to right, a sum's
    bounds before its body."""
    return _CHILDREN[type(node)](node)


def iter_nodes(node: Node) -> Iterator[Node]:
    """Yield node and every descendant, preorder."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        stack.extend(reversed(_CHILDREN[type(cur)](cur)))


def free_symbols(node: Node) -> frozenset[str]:
    """Names of all symbols not bound by an enclosing sum."""
    def walk(n: Node, bound: frozenset[str]) -> frozenset[str]:
        kind = type(n)
        if kind is Sym:
            return frozenset() if n.name in bound else frozenset((n.name,))
        if kind is Sum:
            outer = walk(n.lo, bound) | walk(n.hi, bound)
            return outer | walk(n.body, bound | {n.var})
        result: frozenset[str] = frozenset()
        for child in _CHILDREN[kind](n):
            result |= walk(child, bound)
        return result
    return walk(node, frozenset())


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
    kind = type(node)
    if kind is Lit:
        return node.value, {}, frozenset()
    if kind is Sym:
        if node.name in env:
            return env[node.name], {}, frozenset()
        return 0, {node.name: 1}, frozenset()
    if kind is Neg:
        const, coeffs, rest = affine(node.operand, env)
        return -const, {s: -a for s, a in coeffs.items()}, rest
    if kind not in _BINARY:
        raise TypeError(f"unsupported node {kind.__name__} in an index expression")
    (c1, t1, r1), (c2, t2, r2) = affine(node.left, env), affine(node.right, env)
    if kind is Mul:
        if (t1 or r1) and (t2 or r2):
            return 0, {}, r1.union(r2, t1, t2)
        if t1 or r1:  # the constant factor first
            (c1, t1, r1), (c2, t2, r2) = (c2, t2, r2), (c1, t1, r1)
        if c1 == 0:
            return 0, {}, frozenset()
        return c1 * c2, {s: c1 * a for s, a in t2.items()}, r2
    sign = 1 if kind is Add else -1
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
