"""Exact arithmetic in the golden-ratio ring Z[phi].

Elements are stored as a + b*phi with integer a, b, where phi^2 = phi + 1.
The conjugate swaps phi and 1 - phi, and phi * (1 - phi) = -1, which makes
phi a unit: negative powers stay inside the ring. sqrt(5) is the element
2*phi - 1, so the Binet formulas evaluate with no floating point at all.

LaurentPoly adds sparse Laurent polynomials in any number of invertible
formal symbols over Q(phi), the last of which may be sign symbols
(sigma^2 = 1); it is the canonical-form carrier for the symbolic identity
prover.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import add, and_, mul
from typing import Callable, Mapping, Sequence, TypeVar, Union

from .errors import InternalFault

__all__ = [
    "GoldenInt",
    "LaurentPoly",
    "PHI",
    "ONE",
    "SQRT5",
    "phi_pow",
    "binet_fib",
    "binet_lucas",
]

Scalar = Union["GoldenInt", int]


@dataclass(frozen=True)
class GoldenInt:
    """Ring element a + b*phi of Z[phi]."""

    a: int
    b: int

    def __add__(self, other: Scalar) -> GoldenInt:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GoldenInt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> GoldenInt:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GoldenInt(self.a - other.a, self.b - other.b)

    def __rsub__(self, other: Scalar) -> GoldenInt:
        return -self + other

    def __neg__(self) -> GoldenInt:
        return GoldenInt(-self.a, -self.b)

    def __mul__(self, other: Scalar) -> GoldenInt:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # (a + b phi)(c + d phi) = ac + bd + (ad + bc + bd) phi, from phi^2 = phi + 1
        a, b, c, d = self.a, self.b, other.a, other.b
        bd = b * d
        return GoldenInt(a * c + bd, a * d + b * c + bd)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> GoldenInt:
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, ONE)

    def conj(self) -> GoldenInt:
        """Galois conjugate, sending phi to 1 - phi."""
        return GoldenInt(self.a + self.b, -self.b)

    def norm(self) -> int:
        """Field norm self * conj(self) = a^2 + a*b - b^2, a rational integer."""
        return self.a * self.a + self.a * self.b - self.b * self.b

    def inverse(self) -> GoldenInt:
        """Inverse within Z[phi]; defined only for units (norm +-1)."""
        n = self.norm()
        if n == 1:
            return self.conj()
        if n == -1:
            return -self.conj()
        raise ZeroDivisionError(f"{self!r} is not a unit of Z[phi] (norm {n})")

    def __repr__(self) -> str:
        return f"GoldenInt({self.a}, {self.b})"

    def __str__(self) -> str:
        return f"{self.a}{self.b:+}φ"


_Ring = TypeVar("_Ring", "GoldenInt", "LaurentPoly")


def _power(base: _Ring, n: int, one: _Ring,
           times: Callable[[_Ring, _Ring], _Ring] = mul) -> _Ring:
    """base ** n for n >= 0 by square-and-multiply; `one` is the ring's unit
    and `times` its product."""
    result = one
    while n:
        if n & 1:
            result = times(result, base)
        n >>= 1
        if n:
            base = times(base, base)
    return result


def _coerce(value: Scalar) -> GoldenInt:
    if isinstance(value, GoldenInt):
        return value
    if isinstance(value, int):
        return GoldenInt(value, 0)
    return NotImplemented


ONE = GoldenInt(1, 0)
PHI = GoldenInt(0, 1)
SQRT5 = GoldenInt(-1, 2)  # sqrt(5) = 2*phi - 1


def phi_pow(n: int) -> GoldenInt:
    """phi^n for any integer n; equals F(n-1) + F(n)*phi.

    phi is a unit (norm -1), so negative powers remain in Z[phi] with
    phi^-1 = phi - 1.
    """
    return PHI ** n


def binet_fib(n: int) -> int:
    """F(n) evaluated through the exact Binet formula (phi^n - (1-phi)^n)/sqrt(5).

    phi^n - (1-phi)^n must be k*sqrt(5) = -k + 2k*phi for a rational
    integer k, which is F(n); any other shape is an InternalFault, not a
    rounding concern.
    """
    z = phi_pow(n)
    diff = z - z.conj()
    k = -diff.a
    if diff.b != 2 * k:
        raise InternalFault(f"Binet F({n}) left residue ({diff})/sqrt(5)")
    return k


def binet_lucas(n: int) -> int:
    """L(n) evaluated through the exact Binet formula phi^n + (1-phi)^n."""
    z = phi_pow(n)
    value = z + z.conj()
    if value.b != 0:
        raise InternalFault(f"Binet L({n}) left phi component {value}")
    return value.a


Exps = tuple[int, ...]


class LaurentPoly:
    """Sparse Laurent polynomial in `nsyms` invertible symbols over Q(phi).

    Terms map exponent tuples (one entry per symbol, any integer) to
    GoldenInt numerators, and one positive integer `den` divides the whole
    polynomial; the prover's denominators are products of 2s and 5s. No
    zero numerator is stored, so the polynomial is zero exactly when no
    term is left, and the zero test never divides. Numerators are reduced
    against the denominator only when the polynomial is turned into text.

    The last `nsigns` symbols are sign symbols, each a sigma with
    sigma^2 = 1 such as (-1)^x. Their exponents are 0 or 1: a product adds
    them mod 2, and nothing else changes them. `specialize` sets them to
    +-1. With no sign symbols the polynomial is an ordinary Laurent
    polynomial.
    """

    __slots__ = ("nsyms", "terms", "den", "nsigns")

    def __init__(self, nsyms: int, terms: Mapping[Exps, GoldenInt] | None = None,
                 den: int = 1, nsigns: int = 0):
        if den < 1:
            raise ValueError(f"LaurentPoly denominator must be positive, got {den}")
        self.nsyms = nsyms
        self.terms = {e: c for e, c in (terms or {}).items() if c.a or c.b}
        self.den = den
        self.nsigns = nsigns

    @classmethod
    def monomial(cls, exps: Exps, coeff: Scalar = 1, den: int = 1,
                 nsigns: int = 0) -> LaurentPoly:
        """coeff/den times the product of symbol i raised to exps[i]; the
        last `nsigns` exponents are those of sign symbols, each 0 or 1."""
        return cls(len(exps), {tuple(exps): _coerce(coeff)}, den, nsigns)

    def is_zero(self) -> bool:
        return not self.terms

    def _rescaled(self, den: int) -> dict[Exps, GoldenInt]:
        """Numerators over `den`, a multiple of self.den."""
        if den == self.den:
            return self.terms
        scale = den // self.den
        return {e: c * scale for e, c in self.terms.items()}

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        den = self.den if self.den == other.den else lcm(self.den, other.den)
        merged = dict(self._rescaled(den))
        for e, c in other._rescaled(den).items():
            merged[e] = merged[e] + c if e in merged else c
        return LaurentPoly(self.nsyms, merged, den, self.nsigns)

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly(self.nsyms, {e: -c for e, c in self.terms.items()},
                           self.den, self.nsigns)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        # exponents add; sign exponents then keep their low bit (x & -1 == x)
        low = (-1,) * (self.nsyms - self.nsigns) + (1,) * self.nsigns
        product: dict[Exps, GoldenInt] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(and_, map(add, e1, e2), low))
                c = c1 * c2
                product[e] = product[e] + c if e in product else c
        return LaurentPoly(self.nsyms, product, self.den * other.den, self.nsigns)

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            raise ValueError("LaurentPoly power requires n >= 0")
        return _power(self, n, LaurentPoly.monomial((0,) * self.nsyms,
                                                    nsigns=self.nsigns))

    def specialize(self, bits: Sequence[int]) -> LaurentPoly:
        """This polynomial with sign symbol i set to (-1)^bits[i].

        The sign symbols are dropped: a term is negated when its sign
        exponents meet odd bits an odd number of times, and terms whose
        other exponents agree are merged.
        """
        if len(bits) != self.nsigns:
            raise ValueError(f"{len(bits)} parity bits for {self.nsigns} sign symbols")
        cut = self.nsyms - self.nsigns
        out: dict[Exps, GoldenInt] = {}
        for e, c in self.terms.items():
            if sum(map(mul, e[cut:], bits)) & 1:
                c = -c
            e = e[:cut]
            out[e] = out[e] + c if e in out else c
        return LaurentPoly(cut, out, self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None  # type: ignore[assignment]

    def text(self, names: Sequence[str]) -> str:
        """Reduced text with `names` for the symbols, in exponent order, so
        equal polynomials print alike whatever their term order or scale."""
        if not self.terms:
            return "0"
        g = gcd(self.den, *(x for c in self.terms.values() for x in (c.a, c.b)))
        parts = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
            mono = "*".join(f"{name}^{e}" for name, e in zip(names, exps) if e)
            coeff = f"({GoldenInt(c.a // g, c.b // g)})"
            parts.append(f"{coeff}*{mono}" if mono else coeff)
        body = " + ".join(parts)
        den = self.den // g
        return body if den == 1 else f"[{body}]/{den}"

    def __repr__(self) -> str:
        return f"LaurentPoly({self.text([f'x{i}' for i in range(self.nsyms)])})"
