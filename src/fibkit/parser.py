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
recursive walkers downstream stay within the interpreter's stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, UnboundSymbolError
from .expr import (
    Add, Binom, Lit, Mul, Neg, Node, Pow, Pow5Floor, SeqRef, Sign, Sub, Sum,
    Sym, free_symbols, height, is_index_expr, iter_nodes,
)

__all__ = ["tokenize", "parse_expr", "parse_identity_sides", "check_identity_scope",
           "RESERVED", "MAX_DEPTH", "Token"]

MAX_DEPTH = 64

RESERVED = frozenset({"F", "L", "G", "binom", "sign", "pow5floor", "sum"})

_OPERATORS = ("==", "+", "-", "*", "^", "(", ")", ",")

_DIGITS = frozenset("0123456789")
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CONT = _NAME_START | _DIGITS


@dataclass(frozen=True)
class Token:
    kind: str  # "INT" | "NAME" | one of _OPERATORS | "EOF"
    text: str
    line: int
    col: int

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


def check_identity_scope(lhs: Node, rhs: Node, params: tuple[str, ...]) -> None:
    """Reject undeclared symbols, reserved parameter names, and shadowing sums."""
    for p in params:
        if p in RESERVED:
            raise ParseError(f"parameter name '{p}' is reserved")
    declared = frozenset(params)
    for side in (lhs, rhs):
        for name in sorted(free_symbols(side)):
            if name not in declared:
                raise UnboundSymbolError(name)
        for node in iter_nodes(side):
            if isinstance(node, Sum) and node.var in declared:
                raise ParseError(
                    f"sum variable '{node.var}' shadows a declared parameter")
