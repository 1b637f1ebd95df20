"""Recursive-descent parser for the identity language.

Grammar (infix, standard precedence: ^ binds tightest, then unary -, then
*, then + and -; '==' separates the two sides of an identity):

    identity := expr '==' expr
    expr     := term (('+' | '-') term)*
    term     := unary ('*' unary)*
    unary    := '-' unary | power
    power    := atom ('^' power)?
    atom     := INT | INT NAME-power (adjacent, e.g. "2p") | symbol
              | 'F' '(' index ')' | 'L' '(' index ')' | 'G' '(' index ')'
              | 'binom' '(' index ',' index ')'
              | 'sign' '(' index ')' | 'pow5floor' '(' index ')'
              | 'sum' '(' symbol ',' index ',' index ',' expr ')'
              | '(' expr ')'

index arguments, sum bounds, and power exponents are restricted to the
{INT, symbol, +, -, *} sublanguage (see expr.is_index_expr). Sums do not
nest. '#' starts a comment running to end of line.

Input is bounded by MAX_DEPTH: the parser refuses to nest deeper (each
parenthesis, call or exponent is one level), and the AST of a side may
be no higher (a flat chain of n operators is n levels), so that the
recursive walkers downstream stay within the interpreter's stack. A
constant subexpression, one that reads no parameter, summation index or
G, may have at most MAX_DIGITS decimal digits; its size is bounded from
its constant arguments before anything computes it.
"""

from __future__ import annotations

import math

from .errors import ParseError, UnboundSymbolError
from .expr import (
    Add, Binom, Lit, Mul, Neg, Node, Pow, Pow5Floor, SeqRef, Sign, Sub, Sum,
    Sym, children, free_symbols, height, is_index_expr, iter_nodes, to_text,
)
from .record import Record
from .seq import fib, lucas

__all__ = ["tokenize", "parse_expr", "parse_identity_sides", "check_identity_scope",
           "RESERVED", "MAX_DEPTH", "MAX_DIGITS", "Token"]

MAX_DEPTH = 64

# Longest integer, in decimal digits, that a constant subexpression may
# have and that the command line converts to text.
MAX_DIGITS = 2_000_000

# A constant of at most this many digits is computed while sizes are
# bounded, so that later bounds start from its exact value.
_EXACT_DIGITS = 1_000

RESERVED = frozenset({"F", "L", "G", "binom", "sign", "pow5floor", "sum"})

_OPERATORS = ("==", "+", "-", "*", "^", "(", ")", ",")

_DIGITS = frozenset("0123456789")
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CONT = _NAME_START | _DIGITS


class Token(Record):
    __slots__ = _fields = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        object.__setattr__(self, "kind", kind)  # "INT" | "NAME" | one of _OPERATORS | "EOF"
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "col", col)

    @property
    def end_col(self) -> int:
        return self.col + len(self.text)


def tokenize(text: str) -> list[Token]:
    """Split source text into tokens, tracking 1-based line/column positions."""
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _NAME_START:
            j = i
            while j < n and text[j] in _NAME_CONT:
                j += 1
            tokens.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch == "=" and i + 1 < n and text[i + 1] == "=":
            tokens.append(Token("==", "==", line, col))
            i += 2
            col += 2
            continue
        if ch in "+-*^(),":
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.in_sum = False
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"unexpected {self._describe(tok)}", {kind})
        return self.advance()

    @staticmethod
    def _describe(tok: Token) -> str:
        return "end of input" if tok.kind == "EOF" else f"token {tok.text!r}"

    def fail(self, message: str, expected: set[str] = frozenset()) -> None:
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col, frozenset(expected))

    # expression levels -------------------------------------------------

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "*":
            self.advance()
            node = Mul(node, self.unary())
        return node

    def unary(self) -> Node:
        signs = 0
        while self.peek().kind == "-":
            self.advance()
            signs += 1
        node = self.power()
        for _ in range(signs):
            # canonical: no Neg around literals
            node = Lit(-node.value) if isinstance(node, Lit) else Neg(node)
        return node

    def power(self) -> Node:
        # every recursive path of the grammar passes through here
        self.depth += 1
        try:
            if self.depth > MAX_DEPTH:
                self.fail(f"expression nests more than {MAX_DEPTH} levels deep")
            base = self.atom()
            if self.peek().kind == "^":
                caret = self.advance()
                exponent = self.power()
                self._require_index(exponent, caret, "power exponent")
                return Pow(base, exponent)
            return base
        finally:
            self.depth -= 1

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            lit = Lit(int(tok.text))
            nxt = self.peek()
            # adjacent integer-symbol product, e.g. "2p" in "n+2p"
            if nxt.kind == "NAME" and nxt.line == tok.line and nxt.col == tok.end_col:
                return Mul(lit, self.power())
            return lit
        if tok.kind == "NAME":
            if tok.text in RESERVED:
                return self.call()
            self.advance()
            return Sym(tok.text)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        self.fail(f"unexpected {self._describe(tok)}", {"INT", "NAME", "(", "-"})
        raise AssertionError("unreachable")

    def call(self) -> Node:
        head = self.advance()
        self.expect("(")
        name = head.text
        if name in ("F", "L", "G"):
            arg = self._index_arg(head, f"{name}() index")
            self.expect(")")
            return SeqRef(name, arg)
        if name == "binom":
            top = self._index_arg(head, "binom() argument")
            self.expect(",")
            bottom = self._index_arg(head, "binom() argument")
            self.expect(")")
            return Binom(top, bottom)
        if name == "sign":
            arg = self._index_arg(head, "sign() exponent")
            self.expect(")")
            return Sign(arg)
        if name == "pow5floor":
            arg = self._index_arg(head, "pow5floor() argument")
            self.expect(")")
            return Pow5Floor(arg)
        if name == "sum":
            if self.in_sum:
                raise ParseError("nested sums are not supported", head.line, head.col)
            var_tok = self.expect("NAME")
            if var_tok.text in RESERVED:
                raise ParseError(f"'{var_tok.text}' is reserved and cannot bind a sum",
                                 var_tok.line, var_tok.col)
            self.expect(",")
            lo = self._index_arg(head, "sum lower bound")
            self.expect(",")
            hi = self._index_arg(head, "sum upper bound")
            self.expect(",")
            self.in_sum = True
            try:
                body = self.expr()
            finally:
                self.in_sum = False
            self.expect(")")
            return Sum(var_tok.text, lo, hi, body)
        raise AssertionError(f"unhandled reserved name {name}")

    def _index_arg(self, at: Token, what: str) -> Node:
        node = self.expr()
        self._require_index(node, at, what)
        return node

    def _require_index(self, node: Node, at: Token, what: str) -> None:
        if not is_index_expr(node):
            raise ParseError(
                f"{what} must be built from integers, parameters, +, -, *",
                at.line, at.col)


def _check_height(node: Node) -> Node:
    if height(node) > MAX_DEPTH:
        raise ParseError(f"expression tree is more than {MAX_DEPTH} levels high")
    return node


def parse_expr(text: str) -> Node:
    """Parse a single expression; raises ParseError on malformed input."""
    parser = _Parser(tokenize(text))
    node = parser.expr()
    if parser.peek().kind != "EOF":
        parser.fail(f"unexpected {parser._describe(parser.peek())} after expression",
                    {"EOF"})
    return _check_height(node)


def parse_identity_sides(text: str) -> tuple[Node, Node]:
    """Parse "lhs == rhs" into the two side ASTs."""
    parser = _Parser(tokenize(text))
    lhs = parser.expr()
    parser.expect("==")
    rhs = parser.expr()
    if parser.peek().kind != "EOF":
        parser.fail(f"unexpected {parser._describe(parser.peek())} after identity",
                    {"EOF"})
    return _check_height(lhs), _check_height(rhs)


_LOG10_PHI = math.log10((1 + math.sqrt(5)) / 2)


# Past this many factors, a log10 bound is taken as infinite: each factor
# is at least 2 or phi, so the value has over 10^14 digits.
_HUGE = 10 ** 15


def _log10(value: int) -> float:
    return math.log10(abs(value)) if abs(value) > 1 else 0.0


def _times(count: int, log10: float) -> float:
    """count * log10 for log10 >= log10(phi), without overflowing a float."""
    return count * log10 if count < _HUGE else math.inf


def _binom_log10(n: int, k: int) -> float:
    """An upper bound on log10 binom(n, k) for 0 <= k <= n: the entropy
    bound n^n / (k^k (n - k)^(n - k))."""
    j = min(k, n - k)
    if j == 0:
        return 0.0
    if j >= _HUGE:  # binom(n, j) >= 2^j
        return math.inf
    # (n - j) ln(n / (n - j)) is below j
    rest = (n - j) * math.log1p(j / (n - j)) if n < _HUGE else j
    return (j * (math.log(n) - math.log(j)) + rest) / math.log(10)


def _constant_size(node: Node) -> tuple[float, int | None] | None:
    """(bound, value) of a constant node: an upper bound on log10 of its
    magnitude, 0 when that is at most 1, and its exact value when it is
    index arithmetic or small; None when the node reads a symbol or G, is
    a sum, or raises when evaluated.

    Sizes are found bottom-up from the children's, and a node whose bound
    allows more than MAX_DIGITS digits is refused before its value is
    computed.
    """
    kids = [_constant_size(child) for child in children(node)]
    kind = type(node)
    if kind is Lit:
        return _log10(node.value), node.value
    if None in kids or kind is Sym or kind is Sum or (kind is SeqRef and node.kind == "G"):
        return None
    bounds = [b for b, _ in kids]
    values = [v for _, v in kids]
    a, b = (values + [None])[:2]
    if kind is Neg:
        bound, compute = bounds[0], lambda: -a
    elif kind is Mul:
        bound, compute = bounds[0] + bounds[1], lambda: a * b
    elif kind is Add or kind is Sub:
        bound = max(bounds) + math.log10(2)
        compute = (lambda: a + b) if kind is Add else (lambda: a - b)
    elif kind is Sign:
        return 0.0, -1 if a & 1 else 1
    elif kind is SeqRef:
        bound = _times(abs(a), _LOG10_PHI) + math.log10(2)
        compute = (lambda: fib(a)) if node.kind == "F" else (lambda: lucas(a))
    elif kind is Binom:
        if not 0 <= b <= a:
            return 0.0, 0
        bound, compute = _binom_log10(a, b), lambda: math.comb(a, b)
    elif kind is Pow5Floor:
        if a < 0:
            return None
        bound, compute = _times(a // 2, math.log10(5)), lambda: 5 ** (a // 2)
    else:  # Pow; a is the base, b the exponent
        if b < 0:
            return None
        bound, compute = 0.0 if bounds[0] == 0 else _times(b, bounds[0]), lambda: a ** b
    if bound >= MAX_DIGITS:
        text = to_text(node)
        size = (f"up to {math.floor(bound) + 1:,}" if bound < math.inf
                else "more than 10^14")
        raise ParseError(f"constant {text if len(text) <= 60 else text[:57] + '...'} "
                         f"has {size} decimal digits, over the {MAX_DIGITS:,}-digit limit")
    # a value over _EXACT_DIGITS stays unknown unless it is +, -, * of
    # known values, which cost about as much as reading them
    if None in values or (bound >= _EXACT_DIGITS and kind not in (Add, Sub, Neg, Mul)):
        return bound, None
    value = compute()
    return _log10(value), value


def check_identity_scope(lhs: Node, rhs: Node, params: tuple[str, ...]) -> None:
    """Reject reserved or repeated parameters, undeclared symbols, shadowing
    sums, and constants over MAX_DIGITS digits."""
    declared: set[str] = set()
    for p in params:
        if p in RESERVED:
            raise ParseError(f"parameter name '{p}' is reserved")
        if p in declared:
            raise ParseError(f"parameter '{p}' is declared twice")
        declared.add(p)
    for side in (lhs, rhs):
        for name in sorted(free_symbols(side)):
            if name not in declared:
                raise UnboundSymbolError(name)
        for node in iter_nodes(side):
            if type(node) is Sum and node.var in declared:
                raise ParseError(
                    f"sum variable '{node.var}' shadows a declared parameter")
        _constant_size(side)
