"""Symbolic prover: parity-case Binet proofs with formal seeds."""

import pytest

from fibkit import SymbolicError, parse_identity, prove_symbolic
from fibkit.zphi import LaurentPoly


def test_eq14_passes_all_eight_parity_cases(catalog):
    report = prove_symbolic(catalog.get("Eq14"))
    assert report.passed
    assert report.total == 8
    assert report.mode == "symbolic"


def test_lemma11_passes_four_parity_cases(catalog):
    report = prove_symbolic(catalog.get("Lemma11"))
    assert report.passed
    assert report.total == 4


@pytest.mark.parametrize("name", ["Eq8", "Lemma10", "Lemma12", "Lemma13",
                                  "Eq16", "Eq18", "Eq19"])
def test_base_identities_prove(catalog, name):
    assert prove_symbolic(catalog.get(name)).passed


@pytest.mark.parametrize("name", ["Eq1", "Eq2", "Eq3", "Eq4"])
@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_flagships_prove_at_fixed_rank(catalog, name, rank):
    report = prove_symbolic(catalog.get(name), {"n": rank})
    assert report.passed, [f.lhs for f in report.failures]
    assert report.total == 8
    assert report.grid["fixed"] == {"n": rank}


def test_section3_entries_prove(catalog):
    for entry in catalog:
        if entry.name.startswith("S3."):
            assert prove_symbolic(entry).passed, entry.name


def test_corrupted_identity_fails_with_residual(catalog):
    bad = parse_identity(
        "F(m + q)*F(p) - 2*F(m)*F(p + q) == sign(m)*F(q)*F(p - m)",
        name="Eq14-coeff2", params=("m", "p", "q"))
    report = prove_symbolic(bad)
    assert not report.passed
    for failure in report.failures:
        assert failure.seed is None
        assert failure.rhs == "0"
        assert failure.lhs != "0"   # printed residual polynomial
        assert "splus" in failure.lhs or "szero" in failure.lhs or "X" in failure.lhs


def test_rank_must_be_fixed(catalog):
    with pytest.raises(SymbolicError, match="must be fixed"):
        prove_symbolic(catalog.get("Eq1"))
    with pytest.raises(SymbolicError, match=">= 0"):
        prove_symbolic(catalog.get("Eq1"), {"n": -1})


def test_fixing_unknown_parameter_rejected(catalog):
    with pytest.raises(SymbolicError, match="no parameter"):
        prove_symbolic(catalog.get("Eq8"), {"q": 1})


def test_non_affine_argument_is_named():
    twisted = parse_identity("F(m*p) == F(m*p)", name="twisted", params=("m", "p"))
    with pytest.raises(SymbolicError, match="not affine"):
        prove_symbolic(twisted)


def test_bare_parameter_value_rejected():
    naked = parse_identity("F(m)*p == F(m)*p", name="naked", params=("m", "p"))
    with pytest.raises(SymbolicError, match="bare value"):
        prove_symbolic(naked)


def test_parameter_dependent_exponent_rejected():
    bad = parse_identity("F(1)^m == F(1)^m", name="symexp", params=("m",))
    with pytest.raises(SymbolicError, match="free parameter"):
        prove_symbolic(bad)


def test_proof_is_seed_universal_via_formal_scalars(catalog):
    # a G identity that only holds for the Fibonacci seed must fail
    bad = parse_identity("G(m + 1) == F(m) + G(m)", name="seedbound", params=("m",))
    report = prove_symbolic(bad)
    assert not report.passed


def test_more_than_three_free_parameters_rejected():
    wide = parse_identity("F(a + b + c + d) == F(a + b + c + d)",
                          name="wide", params=("a", "b", "c", "d"))
    with pytest.raises(SymbolicError, match="at most 3"):
        prove_symbolic(wide)
    # fixing one parameter brings it back in range
    assert prove_symbolic(wide, {"d": 2}).passed


def test_seed_poly_algebra():
    # the seed scalars are the last two symbols of the prover's polynomial
    one = LaurentPoly.monomial((0, 0, 0))
    splus = LaurentPoly.monomial((0, 1, 0))
    szero = LaurentPoly.monomial((0, 0, 1))
    combo = splus * szero + one
    assert not combo.is_zero()
    assert (combo - combo).is_zero()
    assert combo ** 2 == combo * combo
    assert (splus * szero).terms == LaurentPoly.monomial((0, 1, 1)).terms
    half = LaurentPoly.monomial((0, 0, 0), 1, 2)
    assert half + half == one
