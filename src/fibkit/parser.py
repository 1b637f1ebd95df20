"""Parser for the identity language: one pass over the tokens builds each
side, and one walk per side checks its symbols and constants.

Grammar (infix, standard precedence: ^ binds tightest, then unary -, then
*, then + and -; '==' separates the two sides of an identity):

    identity := expr '==' expr
    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := '-'* power
    power    := atom ('^' power)?
    atom     := INT | INT NAME-power (adjacent, e.g. "2p") | symbol
              | 'F' '(' index ')' | 'L' '(' index ')' | 'G' '(' index ')'
              | 'binom' '(' index ',' index ')'
              | 'sign' '(' index ')' | 'pow5floor' '(' index ')'
              | 'sum' '(' symbol ',' index ',' index ',' expr ')'
              | '(' expr ')'

index arguments, sum bounds, and power exponents are restricted to the
{INT, symbol, +, -, *} sublanguage. Sums do not nest. '#' starts a
comment running to end of line; INT is [0-9]+ and a name is
[A-Za-z_][A-Za-z_0-9]*, ASCII only.

The two binary levels are parsed by precedence climbing (Pratt, *Top
down operator precedence*, 1973) in one loop, so a factor costs one call.
Tokens are (kind, text, offset) tuples; a line and column are computed
from the offset only for an error. The parser counts the nodes it builds
outside the index language, so an index argument is checked without
walking it, and carries each subtree's height up with the subtree.

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
import sys

from .errors import ParseError, UnboundSymbolError
from .expr import (
    Add, Binom, Lit, Mul, Neg, Node, Pow, Pow5Floor, SeqRef, Sign, Sub, Sum, Sym,
    children, to_text,
)
from .seq import fib, lucas

__all__ = ["tokenize", "parse_expr", "parse_identity_sides", "check_identity_scope",
           "RESERVED", "MAX_DEPTH", "MAX_DIGITS"]

MAX_DEPTH = 64

# Longest integer, in decimal digits, that a constant subexpression may
# have and that the command line converts to text.
MAX_DIGITS = 2_000_000

# A constant of at most this many digits is computed while sizes are
# bounded, so that later bounds start from its exact value.
_EXACT_DIGITS = 1_000

RESERVED = frozenset({"F", "L", "G", "binom", "sign", "pow5floor", "sum"})

_DIGITS = frozenset("0123456789")
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CONT = _NAME_START | _DIGITS

# A token: its kind ("INT", "NAME", "EOF", or the operator itself), its
# text, and the offset of its first character.
_Token = tuple[str, str, int]


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of text[offset]."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def tokenize(text: str) -> list[_Token]:
    """Split source text into (kind, text, offset) tokens, the last of kind
    "EOF". A hand-written loop: in a fresh interpreter it runs faster than
    compiling and running a regular expression for the same tokens."""
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in _NAME_START:
            j = i + 1
            while j < n and text[j] in _NAME_CONT:
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
        elif ch in "+-*^(),":
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isspace():
            i += 1
        elif ch in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
        elif ch == "=" and text.startswith("=", i + 1):
            tokens.append(("==", "==", i))
            i += 2
        elif ch == "#":
            end = text.find("\n", i)
            if end < 0:  # the text ends in a comment: end of input is where it starts
                n = i
                break
            i = end
        else:
            raise ParseError(f"unexpected character {ch!r}", *_position(text, i))
    tokens.append(("EOF", "", n))
    return tokens


_NOT_INDEX = "{} must be built from integers, parameters, +, -, *"

# What the one argument of each one-argument call is, for its errors.
_ARGUMENT = {"F": "F() index", "L": "L() index", "G": "G() index",
             "sign": "sign() exponent", "pow5floor": "pow5floor() argument"}


def _describe(tok: _Token) -> str:
    return "end of input" if tok[0] == "EOF" else f"token {tok[1]!r}"


class _Parser:
    """One parse of one text. Each parsing method returns a subtree and its
    height; `calls` counts the nodes built outside the index language."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.in_sum = False
        self.depth = 0
        self.calls = 0

    def fail(self, message: str, expected: frozenset[str] = frozenset(),
             at: _Token | None = None) -> None:
        tok = self.tokens[self.pos] if at is None else at
        raise ParseError(message, *_position(self.text, tok[2]), frozenset(expected))

    def expect(self, kind: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            self.fail(f"unexpected {_describe(tok)}", {kind})
        self.pos += 1
        return tok

    def finish(self, what: str) -> None:
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.fail(f"unexpected {_describe(tok)} after {what}", {"EOF"})

    def expr(self) -> tuple[Node, int]:
        """Terms joined by + and -, each a product of factors, both left
        associative: a two-level precedence climb."""
        tokens = self.tokens
        left = None
        while True:
            node, height = self.factor()
            while tokens[self.pos][0] == "*":
                self.pos += 1
                right, right_height = self.factor()
                node = Mul(node, right)
                height = (height if height > right_height else right_height) + 1
            if left is not None:
                node = join(left, node)
                height = (left_height if left_height > height else height) + 1
            kind = tokens[self.pos][0]
            if kind != "+" and kind != "-":
                return node, height
            self.pos += 1
            left, left_height, join = node, height, Add if kind == "+" else Sub

    def factor(self, signed: bool = True) -> tuple[Node, int]:
        """'-'* power when signed, else a power alone (an exponent, or the
        name of "2p")."""
        tokens = self.tokens
        signs = 0
        if signed:
            while tokens[self.pos][0] == "-":
                self.pos += 1
                signs += 1
        # every recursive path of the grammar passes through here
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(f"expression nests more than {MAX_DEPTH} levels deep")
        tok = tokens[self.pos]
        kind = tok[0]
        if kind == "NAME":
            if tok[1] in RESERVED:
                node, height = self.call(tok)
            else:
                self.pos += 1
                node, height = Sym(tok[1]), 1
        elif kind == "INT":
            self.pos += 1
            try:
                node, height = Lit(int(tok[1])), 1
            except ValueError:  # over the interpreter's int-to-str limit
                self.fail(f"integer literal has {len(tok[1]):,} digits, over the "
                          f"interpreter's {sys.get_int_max_str_digits():,}-digit limit",
                          at=tok)
            after = tokens[self.pos]
            # adjacent integer-symbol product, e.g. "2p" in "n+2p"
            if after[0] == "NAME" and after[2] == tok[2] + len(tok[1]):
                right, right_height = self.factor(False)
                node, height = Mul(node, right), right_height + 1
        elif kind == "(":
            self.pos += 1
            node, height = self.expr()
            self.expect(")")
        else:
            self.fail(f"unexpected {_describe(tok)}", {"INT", "NAME", "(", "-"})
        if tokens[self.pos][0] == "^":
            caret = tokens[self.pos]
            self.pos += 1
            calls = self.calls
            exponent, exponent_height = self.factor(False)
            if self.calls != calls:
                self.fail(_NOT_INDEX.format("power exponent"), at=caret)
            node = Pow(node, exponent)
            height = (height if height > exponent_height else exponent_height) + 1
            self.calls += 1
        self.depth -= 1
        if signs:
            # canonical: no Neg around literals
            if type(node) is Lit:
                if signs & 1:
                    node = Lit(-node.value)
            else:
                for _ in range(signs):
                    node = Neg(node)
                height += signs
        return node, height

    def call(self, head: _Token) -> tuple[Node, int]:
        self.pos += 1
        self.expect("(")
        name = head[1]
        if name == "sum":
            return self.sum(head)
        if name == "binom":
            top, top_height = self.index(head, "binom() argument")
            self.expect(",")
            bottom, height = self.index(head, "binom() argument")
            node = Binom(top, bottom)
            height = top_height if top_height > height else height
        else:
            arg, height = self.index(head, _ARGUMENT[name])
            node = (Sign(arg) if name == "sign" else Pow5Floor(arg) if name == "pow5floor"
                    else SeqRef(name, arg))
        self.expect(")")
        self.calls += 1
        return node, height + 1

    def sum(self, head: _Token) -> tuple[Node, int]:
        if self.in_sum:
            self.fail("nested sums are not supported", at=head)
        var = self.expect("NAME")
        if var[1] in RESERVED:
            self.fail(f"'{var[1]}' is reserved and cannot bind a sum", at=var)
        self.expect(",")
        lo, lo_height = self.index(head, "sum lower bound")
        self.expect(",")
        hi, hi_height = self.index(head, "sum upper bound")
        self.expect(",")
        self.in_sum = True
        body, height = self.expr()
        self.in_sum = False
        self.expect(")")
        self.calls += 1
        return Sum(var[1], lo, hi, body), max(lo_height, hi_height, height) + 1

    def index(self, head: _Token, what: str) -> tuple[Node, int]:
        """An index argument of the call at head: refused if parsing it
        built a node outside the index language, one more in `calls`."""
        calls = self.calls
        node, height = self.expr()
        if self.calls != calls:
            self.fail(_NOT_INDEX.format(what), at=head)
        return node, height


def _check_height(node: Node, height: int) -> Node:
    if height > MAX_DEPTH:
        raise ParseError(f"expression tree is more than {MAX_DEPTH} levels high")
    return node


def parse_expr(text: str) -> Node:
    """Parse a single expression; raises ParseError on malformed input."""
    parser = _Parser(text)
    node, height = parser.expr()
    parser.finish("expression")
    return _check_height(node, height)


def parse_identity_sides(text: str) -> tuple[Node, Node]:
    """Parse "lhs == rhs" into the two side ASTs."""
    parser = _Parser(text)
    lhs, lhs_height = parser.expr()
    parser.expect("==")
    rhs, rhs_height = parser.expr()
    parser.finish("identity")
    return _check_height(lhs, lhs_height), _check_height(rhs, rhs_height)


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


def _constant(node: Node, kind: type, sizes: list[tuple[float, int | None]],
              ) -> tuple[float, int | None] | None:
    """(bound, value) of a node whose children are all constant, from their
    sizes: an upper bound on log10 of its magnitude, 0 when that is at
    most 1, and its exact value when it is index arithmetic or small; None
    when the node is G, or raises when evaluated.

    A node whose bound allows more than MAX_DIGITS digits is refused
    before its value is computed.
    """
    if kind is SeqRef and node.kind == "G":
        return None
    bounds = [b for b, _ in sizes]
    values = [v for _, v in sizes]
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


def _scan(side: Node) -> tuple[set[str], list[Sum], ParseError | None]:
    """One walk over a side: its free symbols, its sums in preorder, and the
    first constant subexpression over MAX_DIGITS digits, found bottom-up as
    `_constant` sizes each constant node from its children."""
    free: set[str] = set()
    sums: list[Sum] = []
    too_large: list[ParseError] = []
    bound: list[str] = []  # the variables of the sums around the node

    def walk(node: Node) -> tuple[float, int | None] | None:
        kind = type(node)
        if kind is Sym:
            if node.name not in bound:
                free.add(node.name)
            return None
        if kind is Lit:
            return _log10(node.value), node.value
        if kind is Sum:
            sums.append(node)
            walk(node.lo)
            walk(node.hi)
            bound.append(node.var)
            walk(node.body)
            bound.pop()
            return None
        sizes = [*map(walk, children(node))]
        if None in sizes or too_large:
            return None
        try:
            return _constant(node, kind, sizes)
        except ParseError as exc:
            too_large.append(exc)
            return None

    walk(side)
    return free, sums, too_large[0] if too_large else None


def check_identity_scope(lhs: Node, rhs: Node, params: tuple[str, ...]) -> None:
    """Reject reserved or repeated parameters, undeclared symbols, shadowing
    sums, and constants over MAX_DIGITS digits, in that order, on the
    left side and then on the right."""
    declared: set[str] = set()
    for p in params:
        if p in RESERVED:
            raise ParseError(f"parameter name '{p}' is reserved")
        if p in declared:
            raise ParseError(f"parameter '{p}' is declared twice")
        declared.add(p)
    for side in (lhs, rhs):
        free, sums, too_large = _scan(side)
        unbound = free - declared
        if unbound:
            raise UnboundSymbolError(min(unbound))
        for node in sums:
            if node.var in declared:
                raise ParseError(
                    f"sum variable '{node.var}' shadows a declared parameter")
        if too_large is not None:
            raise too_large
