"""Symbolic prover: Binet proofs with sign symbols and formal seeds."""

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fibkit import (
    GridSpec, Identity, InternalFault, Seed, SymbolicError, cli, parse_identity,
    prove_symbolic, symbolic,
)
from fibkit.expr import Lit, Mul, Pow, SeqRef, Sign, Sym
from fibkit.verify import verify_grid
from fibkit.zphi import PHI, GoldenInt, LaurentPoly, _make


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
    with pytest.raises(SymbolicError, match=r"^F\(m\*p\): index is not affine in the "
                                            r"free parameters \(product of parameters\)$"):
        prove_symbolic(twisted)


@pytest.mark.parametrize("text", ["F(m + 0*p*q) == F(m)", "F(m)^(0*p) == 1",
                                  "sign(0*m*p + p*(q - q))*F(m) == F(m)"])
def test_products_that_vanish_read_no_parameter(text):
    # a product scaled by 0, or with a factor that cancels, is 0 wherever
    # it appears: in an index, an exponent or a sign
    assert prove_symbolic(parse_identity(text, name="t", params=("m", "p", "q"))).passed


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


_ADDITION4 = "F(a + b + c + d) == F(a + b + 1)*F(c + d) + F(a + b)*F(c + d - 1)"


def test_more_than_three_free_parameters_prove():
    wide = parse_identity(_ADDITION4, name="wide", params=("a", "b", "c", "d"))
    report = prove_symbolic(wide)
    assert report.passed
    assert report.total == 16
    assert report.grid["axes"] == {"X": "a", "Y": "b", "Z": "c", "X4": "d"}
    fixed = prove_symbolic(wide, {"d": 2})
    assert fixed.passed
    assert fixed.total == 8


def test_fourth_parameter_sign_variant_fails_where_two_are_odd():
    lhs, rhs = _ADDITION4.split(" == ")
    off = parse_identity(f"{lhs} + sign(a*b) == {rhs} + 1", name="wide-off",
                         params=("a", "b", "c", "d"))
    report = prove_symbolic(off)
    assert report.total == 16
    assert _points(report) == [(("a", 1), ("b", 1), ("c", c), ("d", d))
                               for c in (0, 1) for d in (0, 1)]
    assert {f.lhs for f in report.failures} == {"(-2+0φ)"}


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


# --- sign symbols ---------------------------------------------------------------

def _points(report):
    return [f.point for f in report.failures]


def test_non_affine_sign_expands_over_parity_classes():
    # (-1)^(m*q) is 1 unless both are odd: 2*sign(m*q) = 1 + s_m + s_q - s_m*s_q
    ident = parse_identity("2*sign(m*q) == 1 + sign(m) + sign(q) - sign(m + q)",
                           name="bilinear", params=("m", "q"))
    report = prove_symbolic(ident)
    assert report.passed
    assert report.total == 4


def test_non_affine_sign_variant_fails_only_where_both_are_odd():
    ident = parse_identity(
        "2*sign(m*q) == 3 + sign(m) + sign(q) - sign(m + q) - 2*sign(m*q)",
        name="bilinear-off", params=("m", "q"))
    report = prove_symbolic(ident)
    assert _points(report) == [(("m", 1), ("q", 1))]
    assert report.failures[0].lhs == "(-4+0φ)"


def test_false_identity_fails_exactly_its_parity_classes():
    # Cassini: F(x)^2 - F(x - 1)*F(x + 1) = -(-1)^x, so the residual is
    # 2 - (-1)^m - (-1)^q, zero only where m and q are both even
    ident = parse_identity(
        "F(m)^2 + F(q)^2 == F(m - 1)*F(m + 1) + F(q - 1)*F(q + 1) - 2",
        name="cassini-off", params=("m", "q"))
    report = prove_symbolic(ident)
    assert _points(report) == [(("m", 0), ("q", 1)), (("m", 1), ("q", 0)),
                               (("m", 1), ("q", 1))]
    assert [f.lhs for f in report.failures] == ["(2+0φ)", "(2+0φ)", "(4+0φ)"]
    one_class = parse_identity("F(m)^2 == F(m - 1)*F(m + 1) - 1", name="cassini-odd",
                               params=("m",))
    assert _points(prove_symbolic(one_class)) == [(("m", 1),)]


# --- soundness against the grid -----------------------------------------------------

@st.composite
def _index(draw, names):
    const = draw(st.integers(-3, 3))
    terms = draw(st.lists(st.tuples(st.integers(-2, 2), st.sampled_from(names)),
                          max_size=2))
    return " + ".join([str(const), *(f"{a}*{x}" for a, x in terms)])


@st.composite
def _factor(draw, names, free):
    """(lhs text, rhs text, exact): the rhs is a rewrite of the lhs that holds
    everywhere, or, when not exact, only where one parameter is even."""
    i = draw(_index(names))
    kind = draw(st.sampled_from(["F", "L", "G", "sign", "bilinear"]))
    exact = draw(st.booleans())
    off = "" if exact else f" + {draw(st.sampled_from(names))}"
    if kind == "F":
        pair = f"F({i})", f"sign({i} + 1{off})*F(-({i}))"
    elif kind == "L":
        pair = f"L({i})", f"sign({i}{off})*L(-({i}))"
    elif kind == "G":
        pair = f"G({i})", f"sign(0{off})*G({i})"
    elif kind == "sign":
        pair = f"sign({i})", f"sign({i}{off})"
    else:
        x, y = draw(st.sampled_from(free)), draw(st.sampled_from(free))
        pair = f"sign({x}*{y} + {i})", f"sign({y}*{x} + {i}{off})"
    power = draw(st.integers(1, 3))
    if power > 1:
        pair = tuple(f"({side})^{power}" for side in pair)
    return (*pair, exact)


@st.composite
def _term(draw, names, free):
    factors = draw(st.lists(_factor(names, free), min_size=1, max_size=2))
    c = draw(st.integers(-3, 3).filter(bool))
    lhs = "*".join([str(c), *(f[0] for f in factors)])
    rhs = "*".join([str(c), *(f[1] for f in factors)])
    return lhs, rhs, all(f[2] for f in factors)


@st.composite
def _parity_identities(draw):
    """A random prover-admissible identity, and whether it holds everywhere."""
    free = draw(st.lists(st.sampled_from(("m", "p", "q", "a", "b")), min_size=1,
                         max_size=5, unique=True))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            hi = draw(st.integers(0, 3))
            lhs, rhs, exact = draw(_term((*free, "k"), free))
            terms.append((f"sum(k, 0, {hi}, {lhs})", f"sum(k, 0, {hi}, {rhs})", exact))
        else:
            terms.append(draw(_term(free, free)))
    text = " + ".join(t[0] for t in terms) + " == " + " + ".join(t[1] for t in terms)
    ident = parse_identity(text, name="drawn", params=free)
    return ident, all(t[2] for t in terms)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_parity_identities())
def test_prover_fails_every_parity_class_the_grid_fails(drawn):
    ident, exact = drawn
    params = ident.free_params
    grid = verify_grid(ident, GridSpec({p: (-3, 3) for p in params},
                                       seeds=(Seed(0, 1), Seed(2, 1))))
    proof = prove_symbolic(ident)
    assert proof.total == 2 ** len(params)
    grid_classes = {tuple((p, v & 1) for p, v in f.point) for f in grid.failures}
    assert grid_classes <= set(_points(proof)), ident.text
    if exact:
        assert proof.passed, ident.text


# --- resource bounds ------------------------------------------------------------------

def test_sum_range_is_refused_before_its_loop(tmp_path, capsys):
    path = tmp_path / "huge_sum.cat"
    path.write_text("name: huge\nparams: m\npaper: huge\n"
                    "identity: sum(k, 0, 1000000000, F(m + k)) == F(m)\n")
    started = time.perf_counter()
    code = cli.main(["prove", "--all", "--file", str(path)])
    _, err = capsys.readouterr()
    assert code == 2
    assert time.perf_counter() - started < 1
    assert err == ("fibkit: error: sum(k, 0, 1000000000, F(m + k)): the proof "
                   "needs more than 1,000 summation terms\n")


@pytest.mark.parametrize("identity,code,err", [
    # a closed power is its integer, 1, not a Binet expansion to the 10^8th
    ("F(m) + F(1)^100000000 == F(m) + 1", 0, ""),
    # a closed base far from 0 needs no table of the indices below it
    ("F(m) + (F(1)*F(1000000))^2 == F(m) + F(1000000)^2", 0, ""),
    # a closed sum is still expanded term by term, under MAX_SUM_TERMS
    ("F(m) + sum(k, 0, 1000000000000, 1)^2 == F(m) + 1", 2,
     "fibkit: error: sum(k, 0, 1000000000000, 1): the proof needs more than 1,000 "
     "summation terms\n"),
    # a closed power that raises keeps the prover's message
    ("F(m) + (F(1)^(0 - 1))^2 == F(m)", 2,
     "fibkit: error: power exponent -1 is negative\n"),
], ids=["power", "far", "sum", "error"])
def test_closed_power_is_folded_under_a_memory_cap(tmp_path, run_fibkit, identity, code, err):
    path = tmp_path / "closed.cat"
    path.write_text(f"name: closed\nparams: m\npaper: t\nidentity: {identity}\n")
    status, _, stderr = run_fibkit("prove", "--file", str(path))
    assert (status, stderr) == (code, err)


@pytest.mark.parametrize("coeff,den,text", [
    (PHI, 1, "(0+1φ)/1"),             # a phi part
    (GoldenInt(7, 0), 2, "(7+0φ)/2"),  # a remainder from the denominator
], ids=["phi", "fraction"])
def test_closed_base_that_is_no_integer_is_an_internal_fault(monkeypatch, coeff, den, text):
    # every sequence reference rewrites to this closed polynomial; patching
    # the cached builder itself keeps its cache out of the way
    monkeypatch.setattr(symbolic, "_binet", lambda kind, const, coeffs: LaurentPoly.monomial(
        (0,) * (2 * len(coeffs) + 2), coeff, den, len(coeffs)))
    power = parse_identity("F(m) + F(1)^2 == F(m) + 1", name="power", params=("m",))
    with pytest.raises(InternalFault) as info:
        prove_symbolic(power)
    assert str(info.value) == f"F(1)^2: the closed base {text} is not an integer"


def test_power_closed_by_fixed_parameters_keeps_the_digit_limit():
    # F(3)^p has about 3*10^7 digits at p = 10^8: the parser never saw it
    power = parse_identity("F(m)^p == F(m)^p", name="power", params=("m", "p"))
    assert prove_symbolic(power, {"m": 3, "p": 1000}).passed
    with pytest.raises(SymbolicError, match=r"^F\(3\)\^100000000: the proof needs a "
                                            r"constant over the 2,000,000-digit limit$"):
        prove_symbolic(power, {"m": 3, "p": 100_000_000})


@pytest.mark.parametrize("lhs,err", [
    (SeqRef("F", SeqRef("F", Sym("m"))), "F() index: unsupported node SeqRef"),
    (Pow(SeqRef("F", Sym("m")), SeqRef("L", Lit(1))), "power exponent: unsupported node SeqRef"),
    (Sign(Mul(Sym("m"), Pow(Sym("m"), Lit(2)))), "sign() exponent: unsupported node Pow"),
], ids=["index", "exponent", "sign"])
def test_hand_built_index_names_its_unsupported_node(lhs, err):
    identity = Identity("hand", lhs, Lit(0), ("m",))
    with pytest.raises(SymbolicError) as info:
        prove_symbolic(identity)
    assert str(info.value) == f"{err} in an index expression"


def test_sum_limit_counts_every_sum_of_a_proof(monkeypatch):
    monkeypatch.setattr(symbolic, "MAX_SUM_TERMS", 5)
    two = parse_identity("sum(k, 0, 2, F(m + k)) + sum(j, 0, 2, L(m)) == F(m)",
                         name="two", params=("m",))
    with pytest.raises(SymbolicError, match=r"^sum\(j, 0, 2, L\(m\)\): the proof needs "
                                            r"more than 5 summation terms$"):
        prove_symbolic(two)
    monkeypatch.setattr(symbolic, "MAX_SUM_TERMS", 6)
    assert not prove_symbolic(two).passed


def test_power_is_refused_before_the_product_over_budget(monkeypatch):
    products = []
    real_mul = LaurentPoly.__mul__

    def counting_mul(a, b):
        products.append(len(a.terms) * len(b.terms))
        return real_mul(a, b)

    # F(m) has 2 terms: squaring it costs 4 products, squaring that 9 more
    monkeypatch.setattr(symbolic, "MAX_TERM_PRODUCTS", 12)
    monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
    cube = parse_identity("F(m)^3000 == F(m)^3000", name="cube", params=("m",))
    with pytest.raises(SymbolicError, match=r"^F\(m\)\^3000: the proof needs more "
                                            r"than 12 term products$"):
        prove_symbolic(cube)
    assert products[-1] == 4    # the 3x3 square was never computed


def test_long_node_is_named_in_brief(monkeypatch):
    monkeypatch.setattr(symbolic, "MAX_TERM_PRODUCTS", 0)
    ident = parse_identity("(F(m + 1) + F(m + 2) + F(m + 3) + F(m + 4) + F(m + 5) + F(m + 6))^2"
                           " == 0", name="long", params=("m",))
    with pytest.raises(SymbolicError) as info:
        prove_symbolic(ident)
    assert str(info.value) == ("(F(m + 1) + F(m + 2) + F(m + 3) + F(m + 4) + F(m + 5) + F..."
                               ": the proof needs more than 0 term products")


def _wide(count):
    return [f"a{i}" for i in range(count)]


@pytest.mark.parametrize("params,identity", [
    # 2^16 parity cases, each specialized from a nonzero residual
    (_wide(16), f"F({' + '.join(_wide(16))}) + sign(a0*a1) == F({' + '.join(_wide(16))})"),
    # 2^14 parity classes of one sign() that is not affine
    (_wide(16), f"sign({'*'.join(_wide(14))})*F(a15) == F(a15)"),
], ids=["cases", "sign-classes"])
def test_parity_cases_are_charged_to_the_budget(tmp_path, capsys, params, identity):
    path = tmp_path / "wide.cat"
    path.write_text(f"name: wide\nparams: {' '.join(params)}\npaper: wide\n"
                    f"identity: {identity}\n")
    started = time.perf_counter()
    code = cli.main(["prove", "--file", str(path)])
    _, err = capsys.readouterr()
    assert code == 2
    assert time.perf_counter() - started < 1
    assert err.endswith(": the proof needs more than 100,000 term products\n")


def test_budget_edge_lies_between_ranks_42_and_43(capsys):
    # Eq1 takes 97,621 term products at rank 42; at rank 43 F(m)^41 would pass 100,000
    assert cli.main(["prove", "--id", "Eq1", "--n", "42"]) == 0
    assert cli.main(["prove", "--id", "Eq1", "--n", "43"]) == 2
    _, err = capsys.readouterr()
    assert err == ("fibkit: error: F(m)^41: the proof needs more than 100,000 "
                   "term products\n")


def test_budget_admits_the_flagships_at_rank_32(catalog):
    # the largest of Eq1..Eq4 at rank 32 takes 45,876 term products
    report = prove_symbolic(catalog.get("Eq2"), {"n": 32})
    assert report.passed



# --- cost model and caches ------------------------------------------------------------

def test_cost_model_is_pinned_and_independent_of_the_caches(monkeypatch, catalog):
    calls = []
    real_charge = symbolic._Rewriter.charge

    def counting_charge(self, products, what, env):
        calls.append(products)
        return real_charge(self, products, what, env)

    def charges_by_entry():
        # the 57 proofs of `prove --all --n 0..7`
        charges = {}
        for entry in catalog:
            for rank in range(8) if entry.rank_params else [None]:
                calls.clear()
                prove_symbolic(entry, {p: rank for p in entry.rank_params})
                charges[entry.name, rank] = (len(calls), sum(calls))
        return charges

    monkeypatch.setattr(symbolic._Rewriter, "charge", counting_charge)
    symbolic._binet.cache_clear()
    symbolic._scalar.cache_clear()
    symbolic._powers.clear()
    cold = charges_by_entry()
    warm = charges_by_entry()  # every Binet, constant and power polynomial cached
    assert len(cold) == 57
    assert sum(count for count, _ in cold.values()) == 1_634
    assert sum(total for _, total in cold.values()) == 13_804  # before the width factor
    assert warm == cold


def test_cached_polynomials_are_unchanged_by_the_proofs_that_use_them(catalog, monkeypatch):
    def prove_all():
        for entry in catalog:
            assert prove_symbolic(entry, {p: 3 for p in entry.rank_params}).passed

    # in three free parameters: F(m), L(m), and the zero and the half every proof uses
    cached = [(symbolic._binet, ("F", 0, (1, 0, 0))), (symbolic._binet, ("L", 0, (1, 0, 0))),
              (symbolic._scalar, ((0, 0, 0), 0, 1)), (symbolic._scalar, ((0, 0, 0), 1, 2))]
    polys = [cache(*args) for cache, args in cached]
    # and every power the catalog raises at rank 3, kept by a first round of proofs
    monkeypatch.setattr(symbolic, "_powers", {})
    prove_all()
    powers = {key: (power, dict(power._terms)) for key, (power, _) in symbolic._powers.items()}
    assert powers
    prove_all()
    for (cache, args), poly in zip(cached, polys):
        assert cache(*args) is poly
        fresh = cache.__wrapped__(*args)
        assert (poly.terms, poly.den) == (fresh.terms, fresh.den)
    assert symbolic._powers.keys() == powers.keys()
    for key, (power, terms) in powers.items():
        assert symbolic._powers[key][0] is power and power._terms == terms
        *shape, base_terms, e = key
        fresh = _make(*shape, dict(base_terms)) ** e
        assert (power.terms, power.den) == (fresh.terms, fresh.den)


def test_caches_hold_at_most_their_cap(tmp_path, capsys):
    # cap + 1 distinct F(m + k), as many distinct constants k, and as many powers F(m + k)^2
    cap = max(symbolic._binet.cache_info().maxsize, symbolic._scalar.cache_info().maxsize)
    assert cap == symbolic._CACHED
    path = tmp_path / "many.cat"
    path.write_text(f"name: many\nparams: m\npaper: t\nidentity: "
                    f"sum(k, 0, {cap}, F(m + k) + k*F(m) + F(m + k)^2 - F(m + k)^2) == "
                    f"F(m + {cap + 2}) - F(m + 1) + {cap * (cap + 1) // 2}*F(m)\n")
    assert cli.main(["prove", "--file", str(path)]) == 0
    for cache in (symbolic._binet, symbolic._scalar):
        info = cache.cache_info()
        assert info.currsize == info.maxsize
    assert len(symbolic._powers) == cap


def test_large_polynomials_are_not_kept_past_their_proof(monkeypatch):
    built = []
    phi_pow, signed = symbolic.phi_pow, symbolic._signed
    monkeypatch.setattr(symbolic, "phi_pow", lambda n: built.append(n) or phi_pow(n))
    monkeypatch.setattr(symbolic, "_signed", lambda naxes, signs, value, den:
                        built.append(value) or signed(naxes, signs, value, den))
    far = parse_identity("F(m + 5000)*2^5000 + F(m + 1) == F(m + 5000)*2^5000 + F(m + 1)",
                         name="far", params=("m",))
    assert prove_symbolic(far).passed
    built.clear()
    assert prove_symbolic(far).passed
    # F(m + 1), 2 and the rest come from the caches; F(m + 5000) is built
    # once per proof, 2^5000 at each use
    assert built == [5000, 2 ** 5000, 2 ** 5000]


def test_budget_refusals_are_the_same_with_a_cold_and_a_warm_power_cache(monkeypatch):
    powers = parse_identity("F(m)^5 + L(m + 1)^3*F(m)^5 == F(m)^5 + L(m + 1)^3*F(m)^5",
                            name="powers", params=("m",))
    full = symbolic.MAX_TERM_PRODUCTS

    def outcome(budget, warm):
        monkeypatch.setattr(symbolic, "_powers", {})
        if warm:  # every power kept by a proof under the full budget
            assert prove_symbolic(powers).passed
        monkeypatch.setattr(symbolic, "MAX_TERM_PRODUCTS", budget)
        try:
            return prove_symbolic(powers).passed
        except SymbolicError as exc:
            return str(exc)
        finally:
            monkeypatch.setattr(symbolic, "MAX_TERM_PRODUCTS", full)

    # the proof charges 172 term products; each side raises both powers, and
    # the second side's are kept from the first even in a cold cache
    budgets = range(173)
    cold = [outcome(budget, False) for budget in budgets]
    assert [outcome(budget, True) for budget in budgets] == cold
    assert cold[-1] is True and all(isinstance(text, str) for text in cold[:-1])
    assert ({text.split(":")[0] for text in cold[:-1]}
            == {"F(m)^5", "L(m + 1)^3", "L(m + 1)^3*F(m)^5"})


@pytest.mark.parametrize("identity,kept", [
    ("(2^1000*F(m))^2", 1),  # numerators of about 2,000 bits, 6,015 in all
    ("(2^3000*F(m))^2", 0),  # a result with numerators past 4,096 bits
    ("(2^5000*F(m))^2", 0),  # a base with numerators past 4,096 bits
    ("F(m)^63", 1),          # 64 terms
    ("F(m)^64", 0),          # 65 terms
    # 41 terms with numerators of about 2,440 bits each, 200,000 in all
    ("(2^60*F(m))^40", 0),
], ids=["small", "large-result", "large-base", "cap-terms", "past-cap-terms", "large-in-all"])
def test_large_powers_are_not_kept(monkeypatch, identity, kept):
    monkeypatch.setattr(symbolic, "_powers", {})
    power = parse_identity(f"{identity} == {identity}", name="power", params=("m",))
    assert prove_symbolic(power).passed
    assert len(symbolic._powers) == kept
