"""Parser: grammar, precedence, errors, and print round-trips."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibkit import (
    GridSpec, ParseError, UnboundSymbolError, parse_expr, parse_identity, prove_symbolic,
    to_text, verify_grid,
)
from fibkit.expr import (
    Add, Binom, Lit, Mul, Neg, Pow, Pow5Floor, SeqRef, Sign, Sub, Sum, Sym, children,
)
from fibkit.parser import MAX_DEPTH


def test_precedence_pow_over_mul_over_add():
    assert parse_expr("1 + 2*3") == Add(Lit(1), Mul(Lit(2), Lit(3)))
    assert parse_expr("2*3^2") == Mul(Lit(2), Pow(Lit(3), Lit(2)))
    assert parse_expr("-3^2") == Neg(Pow(Lit(3), Lit(2)))
    assert parse_expr("-2*m") == Mul(Lit(-2), Sym("m"))


def test_left_associativity():
    assert parse_expr("a - b - c") == Sub(Sub(Sym("a"), Sym("b")), Sym("c"))
    assert parse_expr("a - (b - c)") == Sub(Sym("a"), Sub(Sym("b"), Sym("c")))


def test_negative_literals_fold():
    assert parse_expr("-5") == Lit(-5)
    assert parse_expr("a - -5") == Sub(Sym("a"), Lit(-5))


def test_sequence_refs_and_functions():
    assert parse_expr("F(m + 1)") == SeqRef("F", Add(Sym("m"), Lit(1)))
    assert parse_expr("binom(n, k)") == Binom(Sym("n"), Sym("k"))
    assert parse_expr("sign(n*m)") == Sign(Mul(Sym("n"), Sym("m")))
    assert parse_expr("pow5floor(n)") == Pow5Floor(Sym("n"))


def test_sum_node():
    node = parse_expr("sum(k, 0, n, G(k))")
    assert node == Sum("k", Lit(0), Sym("n"), SeqRef("G", Sym("k")))


def test_adjacent_integer_symbol_multiplication():
    assert parse_expr("n + 2p") == parse_expr("n + 2*p")
    assert parse_expr("G(n - 2m + 1)") == parse_expr("G(n - 2*m + 1)")
    assert parse_expr("2p^2") == Mul(Lit(2), Pow(Sym("p"), Lit(2)))
    # only physical adjacency counts: a space keeps "2 p" an error
    with pytest.raises(ParseError):
        parse_expr("2 p")


def test_spec_example_identities_parse():
    trivial = parse_identity("G(p) == G(p)", name="t", params=("p",))
    assert trivial.lhs == trivial.rhs == SeqRef("G", Sym("p"))

    eq1 = parse_identity(
        "sum(k,0,n, binom(n,k)*sign(k)*F(m)^k*F(m+q)^(n-k)*G(p+q*k)) "
        "== sign(n*m)*F(q)^n*G(p-n*m)",
        name="Eq1", params=("n", "m", "p", "q"))
    assert isinstance(eq1.lhs, Sum)
    assert eq1.rank_params == ("n",)

    eq8 = parse_identity("F(m+1)*F(n) + F(m)*F(n-1) == F(n+m)",
                         name="Eq8", params=("m", "n"))
    assert not eq8.is_rank_parametric


def test_syntax_error_carries_position_and_expectations():
    with pytest.raises(ParseError) as exc_info:
        parse_expr("F(m")
    err = exc_info.value
    assert err.line == 1 and err.col == 4
    assert ")" in err.expected

    with pytest.raises(ParseError) as exc_info:
        parse_expr("1 + ")
    assert exc_info.value.expected >= {"INT", "NAME", "("}


def test_unbound_symbol_is_named():
    with pytest.raises(UnboundSymbolError) as exc_info:
        parse_identity("F(m) == F(z)", name="x", params=("m",))
    assert exc_info.value.symbol == "z"


def test_sum_variable_is_bound_only_in_body():
    parse_identity("sum(k, 0, n, F(k)) == F(n + 2) - 1",
                   name="x", params=("n",))
    with pytest.raises(UnboundSymbolError):
        # k leaks outside the sum
        parse_identity("sum(k, 0, n, F(k)) + F(k) == F(n)",
                       name="x", params=("n",))
    with pytest.raises(ParseError):
        # bounds cannot use the variable they bind
        parse_identity("sum(k, k, n, F(k)) == F(n)", name="x", params=("n",))


def test_nested_sums_rejected():
    with pytest.raises(ParseError, match="nested"):
        parse_expr("sum(k, 0, n, sum(j, 0, k, F(j)))")


def test_sum_shadowing_parameter_rejected():
    with pytest.raises(ParseError, match="shadows"):
        parse_identity("sum(n, 0, m, F(n)) == F(m)", name="x", params=("m", "n"))


def test_parameter_declared_twice_rejected():
    with pytest.raises(ParseError, match="^parameter 'm' is declared twice$"):
        parse_identity("F(m + 1) == F(m) + F(m - 1)", name="x", params=("m", "p", "m"))


def test_reserved_words_need_call_syntax():
    with pytest.raises(ParseError):
        parse_expr("F + 1")
    with pytest.raises(ParseError):
        parse_identity("F(m) == F(m)", name="x", params=("m", "sum"))


def test_index_restriction_enforced():
    with pytest.raises(ParseError, match="integers, parameters"):
        parse_expr("F(F(m))")
    with pytest.raises(ParseError, match="integers, parameters"):
        parse_expr("F(m)^F(2)")
    with pytest.raises(ParseError, match="integers, parameters"):
        parse_expr("sign(F(m))")


@pytest.mark.parametrize("text", [
    "(" * 3000 + "F(m)" + ")" * 3000,
    " + ".join(["F(m)"] * 5000),
    "-" * 3000 + "F(m)",
])
def test_deep_or_long_input_rejected(text):
    with pytest.raises(ParseError, match="levels"):
        parse_expr(text)


def _height(node):
    """Number of nodes on the longest root-to-leaf path."""
    return 1 + max(map(_height, children(node)), default=0)


def test_input_at_depth_limit_accepted():
    # MAX_DEPTH - 1 terms: MAX_DEPTH - 2 additions over G over m
    terms = MAX_DEPTH - 1
    entry = parse_identity(" + ".join(["G(m)"] * terms) + f" == {terms}*G(m)",
                           name="long", params=("m",))
    assert _height(entry.lhs) == MAX_DEPTH
    assert parse_expr(to_text(entry.lhs)) == entry.lhs
    # the recursive walkers downstream handle the deepest accepted tree
    assert verify_grid(entry, GridSpec({"m": (-2, 2)}), use_oracle=True).passed
    assert prove_symbolic(entry).passed
    with pytest.raises(ParseError, match="levels"):
        parse_expr(to_text(entry.lhs) + " + G(m)")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python has no int-to-str digit limit")
def test_literal_over_the_int_to_str_limit_is_a_parse_error():
    limit = sys.get_int_max_str_digits()
    message = (f"2:3: integer literal has {limit + 1:,} digits, "
               f"over the interpreter's {limit:,}-digit limit")
    with pytest.raises(ParseError, match=f"^{message}$") as exc_info:
        parse_expr("m +\n  " + "7" * (limit + 1))
    assert (exc_info.value.line, exc_info.value.col) == (2, 3)
    assert parse_expr("7" * limit) == Lit(int("7" * limit))


def test_double_equals_required():
    with pytest.raises(ParseError):
        parse_identity("F(m) = F(m)", name="x", params=("m",))


# --- round-trip properties ---------------------------------------------------

PARAMS = ("m", "n", "p", "q")

_literals = st.integers(min_value=-9, max_value=20).map(Lit)
_symbols = st.sampled_from(PARAMS).map(Sym)


def _compose(children):
    non_literal = children.filter(lambda node: not isinstance(node, Lit))
    return st.one_of(
        st.tuples(children, children).map(lambda t: Add(*t)),
        st.tuples(children, children).map(lambda t: Sub(*t)),
        st.tuples(children, children).map(lambda t: Mul(*t)),
        non_literal.map(Neg),
    )


index_exprs = st.recursive(st.one_of(_literals, _symbols), _compose, max_leaves=6)

_calls = st.one_of(
    st.tuples(st.sampled_from(("F", "L", "G")), index_exprs).map(lambda t: SeqRef(*t)),
    st.tuples(index_exprs, index_exprs).map(lambda t: Binom(*t)),
    index_exprs.map(Sign),
    index_exprs.map(Pow5Floor),
)

_exponents = st.one_of(st.integers(0, 4).map(Lit), _symbols)


def _compose_general(children):
    non_literal = children.filter(lambda node: not isinstance(node, Lit))
    return st.one_of(
        st.tuples(children, children).map(lambda t: Add(*t)),
        st.tuples(children, children).map(lambda t: Sub(*t)),
        st.tuples(children, children).map(lambda t: Mul(*t)),
        non_literal.map(Neg),
        st.tuples(children, _exponents).map(lambda t: Pow(*t)),
    )


general_exprs = st.recursive(st.one_of(_literals, _symbols, _calls),
                             _compose_general, max_leaves=10)

sum_exprs = st.builds(
    Sum,
    st.just("k"),
    index_exprs,
    index_exprs,
    st.recursive(
        st.one_of(_literals, st.sampled_from(PARAMS + ("k",)).map(Sym), _calls),
        _compose_general, max_leaves=8),
)


@given(st.one_of(general_exprs, sum_exprs))
@settings(max_examples=300)
def test_roundtrip_random_asts(ast):
    assert parse_expr(to_text(ast)) == ast


def test_roundtrip_catalog_entries(catalog):
    for entry in catalog:
        assert parse_expr(to_text(entry.lhs)) == entry.lhs
        assert parse_expr(to_text(entry.rhs)) == entry.rhs


@given(st.text(max_size=60))
@settings(max_examples=400)
def test_fuzz_text_never_crashes(text):
    try:
        parse_expr(text)
    except ParseError:
        pass


@given(st.lists(st.sampled_from(
    ["F", "L", "G", "sum", "binom", "sign", "pow5floor",
     "m", "n", "k", "0", "1", "17", "+", "-", "*", "^", "(", ")", ",", "=="]),
    max_size=25))
@settings(max_examples=400)
def test_fuzz_token_soup_never_crashes(tokens):
    try:
        parse_expr(" ".join(tokens))
    except ParseError:
        pass


@pytest.mark.parametrize("constant,size", [
    ("10^2000000", "up to 2,000,001"),
    ("F(10000000)", "up to 2,089,877"),
    ("(2^1000000)^7", "up to 2,107,210"),
    ("F(1" + "0" * 400 + ")", "more than 10^14"),
    ("2^(1" + "0" * 400 + ")", "more than 10^14"),
    ("binom(1" + "0" * 400 + ", 1" + "0" * 399 + ")", "more than 10^14"),
])
def test_constant_over_the_digit_limit_is_refused(constant, size):
    message = f"has {size} decimal digits, over the 2,000,000-digit limit"
    with pytest.raises(ParseError, match=re.escape(message) + "$"):
        parse_identity(f"F(m) + {constant} == F(m)", name="huge", params=("m",))


@pytest.mark.parametrize("constant", [
    "10^1999999", "F(9000000)", "binom(6000000, 3000000)", "F(2)^100000000",
    "(3 - 3)^100000000", "sign(7)^100000000", "binom(1" + "0" * 400 + ", 3)",
    "binom(5, 7)^100000000", "2^(0 - 100000000)", "m^100000000", "G(1)^100000000",
])
def test_constant_within_the_digit_limit_is_accepted(constant):
    # the last four are not constants the bound covers: a power with a
    # negative exponent is an evaluation error, and m or G(1) varies
    parse_identity(f"F(m) + {constant} == F(m)", name="fine", params=("m",))


DATA = Path(__file__).parent / "data"


def test_parser_reproduces_the_corpus():
    # parser_corpus.json pins the parser's ASTs and errors on about 400
    # inputs; tests/data/parser_corpus.py regenerates it
    spec = importlib.util.spec_from_file_location("parser_corpus", DATA / "parser_corpus.py")
    corpus_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus_module)
    corpus = json.loads((DATA / "parser_corpus.json").read_text(encoding="utf-8"))
    assert len(corpus) > 300
    differ = [case for case in corpus if corpus_module.outcome(case) != case["result"]]
    assert not differ, f"{len(differ)} cases differ, first {differ[0]['text']!r}"
