"""Golden-ratio ring arithmetic, Binet formulas, Laurent polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibkit import (
    GoldenInt, InternalFault, LaurentPoly, binet_fib, binet_lucas, fib, lucas, phi_pow,
)
from fibkit.zphi import ONE, PHI, SQRT5

golden = st.builds(GoldenInt, st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))


@given(golden, golden, golden)
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(golden, golden)
def test_conjugation_is_a_homomorphism(x, y):
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()


def test_conj_sends_phi_to_one_minus_phi():
    assert PHI.conj() == GoldenInt(1, -1) == ONE - PHI


def test_phi_times_one_minus_phi_is_minus_one():
    assert PHI * (ONE - PHI) == GoldenInt(-1, 0)


@given(golden)
def test_norm_formula(x):
    n = x * x.conj()
    assert n.b == 0
    assert n.a == x.a ** 2 + x.a * x.b - x.b ** 2
    assert x.norm() == n.a


def test_sqrt5_squares_to_five():
    assert SQRT5 * SQRT5 == GoldenInt(5, 0)
    assert SQRT5 == 2 * PHI - 1


@pytest.mark.parametrize("n,expected", [
    (0, GoldenInt(1, 0)),
    (5, GoldenInt(3, 5)),
    (-1, GoldenInt(-1, 1)),
])
def test_phi_pow_values(n, expected):
    assert phi_pow(n) == expected


def test_phi_pow_negative_one_is_inverse():
    assert phi_pow(-1) * PHI == ONE


def test_phi_pow_coefficient_law():
    for n in range(-200, 201):
        z = phi_pow(n)
        assert z == GoldenInt(fib(n - 1), fib(n))
        assert 2 * z.a + z.b == binet_lucas(n)


@pytest.mark.parametrize("n,expected", [(1, 1), (12, 144), (-6, -8)])
def test_binet_fib_values(n, expected):
    assert binet_fib(n) == expected


@pytest.mark.parametrize("n,expected", [(0, 2), (7, 29), (-3, -4)])
def test_binet_lucas_values(n, expected):
    assert binet_lucas(n) == expected


def test_binet_agrees_with_sequence_engine():
    for n in range(-200, 201):
        assert binet_fib(n) == fib(n)
        assert binet_lucas(n) == lucas(n)


def test_binet_residue_is_internal_fault(monkeypatch):
    # a broken conjugate leaves phi^n - psi^n off the line k*sqrt(5)
    monkeypatch.setattr(GoldenInt, "conj", lambda z: GoldenInt(z.a + z.b, 1 - z.b))
    with pytest.raises(InternalFault, match="residue"):
        binet_fib(5)
    with pytest.raises(InternalFault, match="phi component"):
        binet_lucas(5)


def test_laurent_denominator_arithmetic():
    one = LaurentPoly.monomial((0, 0))
    half = LaurentPoly.monomial((0, 0), 1, 2)
    inv_sqrt5 = LaurentPoly.monomial((0, 0), SQRT5, 5)
    assert half + half == one
    assert inv_sqrt5 * LaurentPoly.monomial((0, 0), SQRT5) == one
    assert inv_sqrt5 * inv_sqrt5 == LaurentPoly.monomial((0, 0), 1, 5)
    assert (half - half).is_zero()
    with pytest.raises(ValueError):
        LaurentPoly(2, den=0)


def test_laurent_text_reduces_by_gcd():
    x = LaurentPoly.monomial((1, 0), GoldenInt(4, -6), 10)
    assert x.text("XY") == "[(2-3φ)*X^1]/5"
    assert LaurentPoly.monomial((0, -1), 6, 3).text("XY") == "(2+0φ)*Y^-1"
    assert LaurentPoly(2).text("XY") == "0"


def test_laurent_cancellation_to_zero():
    x = LaurentPoly.monomial((1, 0, 0))
    y = LaurentPoly.monomial((0, 1, 0))
    assert ((x + y) - (x + y)).is_zero()
    assert (x + y) - (x + y) == LaurentPoly(3)


def test_laurent_inverse_symbols():
    x = LaurentPoly.monomial((1, 0, 0))
    x_inv = LaurentPoly.monomial((-1, 0, 0))
    assert x * x_inv == LaurentPoly.monomial((0, 0, 0))


def test_laurent_square_with_sign_scalar():
    # (X + s*X^-1)^2 = X^2 + 2s + s^2 X^-2 with s = -1
    s = -1
    x = LaurentPoly.monomial((1, 0, 0))
    term = x + LaurentPoly.monomial((-1, 0, 0), s)
    expected = (LaurentPoly.monomial((2, 0, 0))
                + LaurentPoly.monomial((0, 0, 0), 2 * s)
                + LaurentPoly.monomial((-2, 0, 0), s * s))
    assert term ** 2 == expected
    assert term ** 0 == LaurentPoly.monomial((0, 0, 0))


def test_laurent_zero_coefficients_are_pruned():
    p = LaurentPoly(3, {(1, 2, 3): GoldenInt(0, 0)})
    assert p.is_zero()
    q = LaurentPoly.monomial((0, 0, 1), 3) * LaurentPoly.monomial((0, 0, 0), 0)
    assert q.terms == {}


def test_laurent_repr_is_deterministic():
    p = LaurentPoly(3, {(1, 0, -2): ONE, (-1, 0, 0): PHI})
    reordered = LaurentPoly(3, dict(reversed(list(p.terms.items()))))
    rescaled = LaurentPoly(3, {e: c * 4 for e, c in p.terms.items()}, 4)
    assert p.text("XYZ") == reordered.text("XYZ") == rescaled.text("XYZ")
    assert repr(p) == repr(reordered)


small_golden = st.builds(GoldenInt, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def laurent_pairs(draw):
    """Two small polynomials over the same symbols: two ordinary symbols,
    then none or two sign symbols (exponent 0 or 1)."""
    nsigns = draw(st.sampled_from([0, 2]))
    key = st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                    *[st.integers(0, 1)] * nsigns)
    poly = st.builds(lambda terms, den: LaurentPoly(2 + nsigns, terms, den, nsigns),
                     st.dictionaries(key, small_golden, max_size=4),
                     st.sampled_from([1, 2, 5, 10]))
    return draw(poly), draw(poly)


@given(laurent_pairs())
def test_laurent_product_commutes_and_cubes(pair):
    p, q = pair
    assert ((p * q) - (q * p)).is_zero()
    assert p ** 3 == p * p * p
    # sign exponents stay 0 or 1 through products
    assert all(0 <= x <= 1 for e in (p * q).terms for x in e[2:])


def test_sign_symbol_squares_to_one():
    sigma = LaurentPoly.monomial((0, 1), nsigns=1)
    one = LaurentPoly.monomial((0, 0), nsigns=1)
    assert sigma * sigma == one
    assert (sigma * sigma).terms == one.terms
    assert sigma ** 3 == sigma
    # X * sigma times X^-1 * sigma leaves no symbol at all
    x_sigma = LaurentPoly.monomial((1, 1), nsigns=1)
    assert (x_sigma * LaurentPoly.monomial((-1, 1), 3, nsigns=1)).terms == {(0, 0): ONE * 3}


def test_specialize_sets_signs_and_merges():
    # X*sigma + X + 2*sigma*tau over 1/2, with sigma, tau the sign symbols
    p = (LaurentPoly.monomial((1, 1, 0), 1, 2, nsigns=2)
         + LaurentPoly.monomial((1, 0, 0), 1, 2, nsigns=2)
         + LaurentPoly.monomial((0, 1, 1), 2, 2, nsigns=2))
    assert p.specialize((0, 0)).terms == {(1,): ONE * 2, (0,): ONE * 2}
    assert p.specialize((1, 0)).terms == {(0,): ONE * -2}   # the X terms cancel
    assert p.specialize((1, 1)).terms == {(0,): ONE * 2}
    assert p.specialize((1, 0)).den == 2 and p.specialize((1, 0)).nsigns == 0
    with pytest.raises(ValueError):
        p.specialize((0,))


@given(laurent_pairs(), st.tuples(st.integers(0, 1), st.integers(0, 1)))
def test_specializing_a_product_is_the_product_of_specializations(pair, bits):
    p, q = pair
    bits = bits[:p.nsigns]
    assert (p * q).specialize(bits) == p.specialize(bits) * q.specialize(bits)
    assert (p + q).specialize(bits) == p.specialize(bits) + q.specialize(bits)


# --- packed terms against a tuple-keyed reference ----------------------------

def _reference(poly):
    """A polynomial's terms as exponent tuple -> (a, b), the exact values of
    a + b*phi over the denominator."""
    return {e: (Fraction(c.a, poly.den), Fraction(c.b, poly.den))
            for e, c in poly.terms.items()}


def _ref_add(x, y):
    out = dict(x)
    for e, (a, b) in y.items():
        c, d = out.pop(e, (0, 0))
        if a + c or b + d:
            out[e] = (a + c, b + d)
    return out


def _ref_mul(x, y, nsigns):
    out = {}
    for e1, (a, b) in x.items():
        for e2, (c, d) in y.items():
            cut = len(e1) - nsigns
            e = (*(u + v for u, v in zip(e1[:cut], e2[:cut])),
                 *((u + v) % 2 for u, v in zip(e1[cut:], e2[cut:])))
            out = _ref_add(out, {e: (a * c + b * d, a * d + b * c + b * d)})
    return out


def _ref_specialize(x, bits):
    out = {}
    for e, (a, b) in x.items():
        cut = len(e) - len(bits)
        if sum(s * t for s, t in zip(e[cut:], bits)) % 2:
            a, b = -a, -b
        out = _ref_add(out, {e[:cut]: (a, b)})
    return out


# small exponents collide, ones near 2^15 overflow a 16-bit field when two
# are added, and ones up to 2^80 need fields of 128 bits
axis_exponent = st.one_of(st.integers(-2, 2), st.integers(-2**15 - 2, 2**15 + 2),
                          st.integers(-2**80, 2**80))


@st.composite
def wide_laurent_pairs(draw):
    nsigns = draw(st.sampled_from([0, 2]))
    key = st.tuples(axis_exponent, axis_exponent, *[st.integers(0, 1)] * nsigns)
    poly = st.builds(lambda terms, den: LaurentPoly(2 + nsigns, terms, den, nsigns),
                     st.dictionaries(key, small_golden, max_size=5),
                     st.sampled_from([1, 2, 5, 10]))
    return draw(poly), draw(poly)


@given(wide_laurent_pairs(), st.tuples(st.integers(0, 1), st.integers(0, 1)))
def test_laurent_arithmetic_matches_a_tuple_keyed_reference(pair, bits):
    p, q = pair
    x, y = _reference(p), _reference(q)
    assert _reference(p + q) == _ref_add(x, y)
    assert _reference(p - q) == _ref_add(x, {e: (-a, -b) for e, (a, b) in y.items()})
    product = _ref_mul(x, y, p.nsigns)
    assert _reference(p * q) == product
    assert _reference(p * q * p) == _ref_mul(product, x, p.nsigns)
    bits = bits[:p.nsigns]
    assert _reference(p.specialize(bits)) == _ref_specialize(x, bits)
    assert _reference((p * q).specialize(bits)) == _ref_specialize(product, bits)


def test_exponents_past_a_field_widen_instead_of_wrapping():
    top = 2**15 - 1
    x = LaurentPoly.monomial((top, -top, 1), nsigns=1)
    assert (x * x).terms == {(2 * top, -2 * top, 0): ONE}
    assert (x ** 5).terms == {(5 * top, -5 * top, 1): ONE}
    huge = LaurentPoly.monomial((10**30, 0, 0), 3, nsigns=1)
    assert (huge * x + x).terms == {(10**30 + top, -top, 1): ONE * 3, (top, -top, 1): ONE}
    assert (huge * huge).text("XYs") == "(9+0φ)*X^2000000000000000000000000000000"


def test_laurent_rejects_exponents_that_do_not_fit_its_symbols():
    with pytest.raises(ValueError):
        LaurentPoly(2, {(0, 2): ONE}, nsigns=1)      # a sign exponent of 2
    with pytest.raises(ValueError):
        LaurentPoly(3, {(0, 1): ONE})               # two exponents for three symbols
    with pytest.raises(ValueError):
        LaurentPoly(1, nsigns=2)
