"""Catalog contents, stanza file IO, and the expanded-example relabeling map."""

import pickle
import sys

import pytest

from fibkit import catalog as catalog_module
from fibkit import (
    Catalog, CatalogError, Identity, format_catalog, load_catalog_file, parse_catalog,
    parse_identity, section3_source,
)

EXPECTED_NAMES = (
    ["Eq1", "Eq2", "Eq3", "Eq4", "Eq8",
     "Lemma10", "Lemma11", "Lemma12", "Lemma13",
     "Eq14", "Eq16", "Eq18", "Eq19"]
    + [f"S3.n{r}.{fam}" for r in (1, 2, 3, 4)
       for fam in ("F-forward", "L-forward", "F-backward", "L-backward")]
)


def test_catalog_has_29_uniquely_named_entries(catalog):
    assert len(catalog) == 29
    assert sorted(catalog.names()) == sorted(EXPECTED_NAMES)
    assert len(set(catalog.names())) == 29


def test_lookup_by_name_and_paper_tag(catalog):
    assert catalog.lookup("Eq1")[0] is catalog.get("Eq1")
    assert catalog.lookup("Eq(1)")[0] is catalog.get("Eq1")
    assert catalog.lookup("Eq(11)")[0] is catalog.get("Lemma11")
    assert catalog.lookup("definitely-not-there") == ()


def test_lookup_section3_example(catalog):
    entry = catalog.get("S3.n2.L-forward")
    assert entry.text == (
        "L(m + p)^2*G(n) - 2*L(m)*L(m + p)*G(n + p) + L(m)^2*G(n + 2*p)"
        " == 5*F(p)^2*(G(n - 2*m + 1) - G(n - 2*m - 1))"
    )


def test_rank_parametric_entries(catalog):
    flagship = ("Eq1", "Eq2", "Eq3", "Eq4")
    for entry in catalog:
        if entry.name in flagship:
            assert entry.rank_params == ("n",)
        else:
            assert not entry.is_rank_parametric, entry.name


def test_rank_params_walk_both_sides_once(monkeypatch):
    walked = []
    real = catalog_module.iter_nodes
    monkeypatch.setattr(catalog_module, "iter_nodes",
                        lambda node: walked.append(node) or real(node))
    text = "sum(k, 0, n, F(k)*G(m + k)) == G(m + n + 1) - G(m + 1)"
    first = parse_identity(text, name="t", params=("n", "m"))
    assert first.rank_params == first.rank_params == ("n",)
    assert first.is_rank_parametric
    assert walked == [first.lhs, first.rhs]
    # the cache is no field: equality, hashing and pickling see the same Identity
    fresh = parse_identity(text, name="t", params=("n", "m"))
    assert fresh == first and hash(fresh) == hash(first)
    for copy in (pickle.loads(pickle.dumps(first)), pickle.loads(pickle.dumps(fresh))):
        assert copy == first and hash(copy) == hash(first)
        assert copy.rank_params == ("n",)


def test_paper_tags(catalog):
    assert catalog.get("Eq8").paper_tag == "Eq(8)"
    assert catalog.get("Eq14").paper_tag == "Eq(14)"
    assert catalog.get("S3.n3.F-backward").paper_tag == "Eq(3)@n=3"


def test_format_parse_roundtrip(catalog):
    text = format_catalog(catalog)
    again = parse_catalog(text)
    assert again.names() == catalog.names()
    for a, b in zip(catalog, again):
        assert a == b


def test_section3_source_mapping():
    assert section3_source("S3.n2.L-forward") == ("Eq2", 2, {"m": "m", "p": "n", "q": "p"})
    assert section3_source("S3.n4.F-backward")[0:2] == ("Eq3", 4)
    with pytest.raises(CatalogError):
        section3_source("Eq8")


def test_duplicate_names_rejected():
    entry = parse_identity("F(m) == F(m)", name="dup", params=("m",))
    with pytest.raises(CatalogError, match="duplicate"):
        Catalog((entry, entry))


def test_stanza_errors():
    with pytest.raises(CatalogError, match="missing key"):
        parse_catalog("name: x\nparams: m\npaper: t\n")
    with pytest.raises(CatalogError, match="unknown key"):
        parse_catalog("name: x\nbogus: 1\n")
    with pytest.raises(CatalogError, match="duplicate key"):
        parse_catalog("name: x\nname: y\n")
    with pytest.raises(CatalogError, match="expected 'key: value'"):
        parse_catalog("just some text\n")
    with pytest.raises(CatalogError, match="unbound"):
        parse_catalog("name: x\nparams: m\npaper: t\nidentity: F(z) == F(m)\n")


def test_comments_and_blank_lines_are_ignored():
    text = (
        "# leading comment\n\n"
        "name: a\nparams: m\npaper: t1\nidentity: F(m) == F(m)  # trailing\n"
        "\n\n# between\n"
        "name: b\nparams: m\npaper: t2\nidentity: L(m) == L(m)\n"
    )
    cat = parse_catalog(text)
    assert cat.names() == ("a", "b")


def test_a_comment_line_does_not_split_a_stanza():
    text = ("name: x\n# note\nparams: m\n   # indented note\npaper: t\n"
            "identity: F(m) == F(m)\n# after\n \t\nname: y\nparams: m\npaper: u\n"
            "identity: L(m) == L(m)\n")
    assert parse_catalog(text).names() == ("x", "y")
    # only a blank line ends a stanza, so a comment line is no separator
    with pytest.raises(CatalogError, match="^<catalog>:6: duplicate key 'name'"):
        parse_catalog("name: x\nparams: m\npaper: t\nidentity: F(m) == F(m)\n"
                      "# next\nname: y\n")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python has no int-to-str digit limit")
def test_a_literal_over_the_digit_limit_is_a_catalog_error(tmp_path):
    limit = sys.get_int_max_str_digits()
    literal = "9" * (limit + 1)
    path = tmp_path / "long.cat"
    path.write_text("# a long literal\n\nname: x\nparams: m\npaper: t\n"
                    f"identity: F(m) == F(m) + {literal}\n", encoding="utf-8")
    with pytest.raises(CatalogError) as exc_info:
        load_catalog_file(str(path))
    assert str(exc_info.value) == (
        f"{path}:3: in identity 'x': 1:16: integer literal has {limit + 1:,} digits, "
        f"over the interpreter's {limit:,}-digit limit")


def test_identity_text_property(catalog):
    entry = catalog.get("Eq8")
    assert entry.text == "F(m + 1)*F(n) + F(m)*F(n - 1) == F(n + m)"
    assert isinstance(entry, Identity)
