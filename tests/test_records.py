"""Value semantics of the AST nodes and records: equality, hashing, repr,
immutability and pickling."""

import pickle

import pytest

from fibkit import (
    CatalogError, Failure, GoldenInt, GridError, GridSpec, Seed, VerifyReport,
    builtin_catalog, parse_expr, parse_identity,
)
from fibkit.catalog import Catalog
from fibkit.expr import (
    Add, Binom, Lit, Mul, Neg, Pow, Pow5Floor, SeqRef, Sign, Sub, Sum, Sym, children,
)

TEXT = "sum(k, 0, n, binom(n, k)*F(m)^k*(-1)^k*sign(k)*pow5floor(2*k)) - G(-m + 1)"


def test_equal_trees_are_equal_and_hash_alike():
    a, b = parse_expr(TEXT), parse_expr(TEXT)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert parse_expr("F(m + 1)") != parse_expr("F(m + 2)")


def test_same_fields_under_different_types_are_unequal():
    x, y = Sym("x"), Sym("y")
    for one, other in [(Add(x, y), Sub(x, y)), (Add(x, y), Mul(x, y)),
                       (Sign(x), Pow5Floor(x)), (Sign(x), Neg(x)),
                       (Pow(x, y), Binom(x, y)), (Lit(1), Sym(1))]:
        assert one != other and not one == other
    assert Lit(1) != 1 and Seed(0, 1) != (0, 1)
    assert len({Add(x, y), Sub(x, y), Mul(x, y)}) == 3


def test_repr_names_each_field():
    node = parse_expr("F(m)^k")
    assert repr(node) == ("Pow(base=SeqRef(kind='F', arg=Sym(name='m')), "
                          "exponent=Sym(name='k'))")
    assert repr(Sum("k", Lit(0), Sym("n"), Lit(1))) == (
        "Sum(var='k', lo=Lit(value=0), hi=Sym(name='n'), body=Lit(value=1))")
    assert repr(Seed(3, 7)) == "Seed(g0=3, g1=7)"
    assert repr(GoldenInt(3, 5)) == "GoldenInt(3, 5)"
    assert repr(Catalog(())) == "Catalog(entries=())"


def test_children_follow_field_order():
    k, n, body = Lit(0), Sym("n"), Mul(Sym("k"), Lit(2))
    assert children(Sum("k", k, n, body)) == (k, n, body)
    assert children(SeqRef("G", n)) == (n,)
    assert children(Pow(n, k)) == (n, k)
    assert children(Lit(3)) == children(Sym("m")) == ()


def test_fields_cannot_be_assigned_or_deleted():
    identity = builtin_catalog().get("Eq1")
    spec = GridSpec({"m": (0, 1)})
    for record, field in [(Add(Lit(1), Lit(2)), "left"), (Lit(1), "value"),
                          (Seed(0, 1), "g0"), (identity, "name"), (spec, "seeds"),
                          (GoldenInt(1, 2), "a"), (Failure((), None, 1, 2), "lhs"),
                          (builtin_catalog(), "entries")]:
        with pytest.raises(AttributeError, match=f"'{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert identity.name == "Eq1"


def test_pickle_round_trips():
    identity = builtin_catalog().get("Eq1")
    spec = GridSpec({"n": (0, 2), "m": (-1, 1)}, (Seed(3, 7), Seed(0, 1)))
    report = VerifyReport("Eq1", "Eq(1)", "grid", {"m": [0, 1]}, 8,
                          [Failure((("m", 0),), Seed(3, 7), 5, 4)], 1.5)
    for value in (identity.lhs, identity.rhs, identity, spec, Seed(-4, 5),
                  report, GoldenInt(2, -3)):
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is type(value) and copy == value
    for value in (identity.lhs, identity, Seed(-4, 5), GoldenInt(2, -3)):
        assert hash(pickle.loads(pickle.dumps(value))) == hash(value)
    assert pickle.loads(pickle.dumps(identity)).rank_params == ("n",)


def test_records_compare_the_same_fields_as_before():
    # Identity ignores its cached rank_params; Catalog ignores its name index
    text = "sum(k, 0, n, F(k)) == F(n + 2) - 1"
    first = parse_identity(text, name="t", params=("n",))
    assert first.rank_params == ("n",)
    second = parse_identity(text, name="t", params=("n",))
    assert first == second and hash(first) == hash(second)
    assert first != parse_identity(text, name="t", params=("n",), paper_tag="x")
    assert Catalog((first,)) == Catalog((second,))
    # a report may be changed after it is made, so it has no hash
    report = VerifyReport("t", "", "grid", {}, 1)
    assert report.failures == [] and report == VerifyReport("t", "", "grid", {}, 1)
    report.elapsed_ms = 2.0
    assert report != VerifyReport("t", "", "grid", {}, 1)
    with pytest.raises(TypeError):
        hash(report)


def test_validation_errors_keep_their_text():
    with pytest.raises(CatalogError, match="duplicate identity name 'Eq1'"):
        Catalog((builtin_catalog().get("Eq1"),) * 2)
    with pytest.raises(GridError, match="empty range 2..1 for parameter 'm'"):
        GridSpec({"m": (2, 1)})
    with pytest.raises(GridError, match="GridSpec needs at least one seed"):
        GridSpec({"m": (0, 1)}, ())
