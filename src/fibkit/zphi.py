"""Exact arithmetic in the golden-ratio ring Z[phi].

Elements are stored as a + b*phi with integer a, b, where phi^2 = phi + 1.
The conjugate swaps phi and 1 - phi, and phi * (1 - phi) = -1, which makes
phi a unit: negative powers stay inside the ring. sqrt(5) is the element
2*phi - 1, so the Binet formulas evaluate with no floating point at all.

LaurentPoly adds sparse Laurent polynomials in any number of invertible
formal symbols over Q(phi), the last of which may be sign symbols
(sigma^2 = 1); it is the canonical-form carrier for the symbolic identity
prover. Its terms are packed (Monagan and Pearce, CASC 2007): each
exponent vector is one int key of fixed-width fields, widened when a
product's exponents would not fit, and each numerator a plain int pair,
so a term product is one key addition and an inline Z[phi] product.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence, TypeVar, Union

from .errors import InternalFault
from .record import Record

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


class GoldenInt(Record):
    """Ring element a + b*phi of Z[phi]."""

    __slots__ = _fields = ("a", "b")

    def __init__(self, a: int, b: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

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
    """base ** n for n >= 0 by square-and-multiply, with `times` the ring's
    product. The result starts as the power of base at n's lowest set bit,
    so no product is by the unit; `one`, the ring's unit, is the result
    only for n = 0."""
    if not n:
        return one
    while not n & 1:
        base = times(base, base)
        n >>= 1
    result = base
    n >>= 1
    while n:
        base = times(base, base)
        if n & 1:
            result = times(result, base)
        n >>= 1
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
Pair = tuple[int, int]  # (a, b) for the numerator a + b*phi

# Bits per axis field of a packed key before any widening: room for
# exponents up to 2^15 - 1 in size.
_WIDTH = 16
_BITS = frozenset((0, 1))


def _fit(reach: int, width: int) -> int:
    """`width`, doubled as often as needed for its fields to hold every
    exponent of size at most `reach`."""
    while reach >= 1 << (width - 1):
        width *= 2
    return width


@lru_cache(maxsize=256)
def _layout(naxes: int, nsigns: int, width: int) -> tuple[int, int]:
    """(offset, mask) of packed keys with `naxes` axis fields of `width`
    bits above `nsigns` two-bit sign fields: the offset holds the bias
    2^(width-1) in every axis field, and the mask clears the high bit of
    every sign field."""
    low = 2 * nsigns
    offset = sum(1 << (width - 1) << (low + width * i) for i in range(naxes))
    carries = sum(2 << (2 * j) for j in range(nsigns))
    return offset, ((1 << (low + width * naxes)) - 1) ^ carries


def _pack(exps: Exps, naxes: int, width: int) -> int:
    key = 0
    bias = 1 << (width - 1)
    for e in reversed(exps[:naxes]):
        key = key << width | (e + bias)
    for s in reversed(exps[naxes:]):
        key = key << 2 | s
    return key


def _unpack(key: int, naxes: int, nsigns: int, width: int) -> Exps:
    signs = []
    for _ in range(nsigns):
        signs.append(key & 1)
        key >>= 2
    bias, field = 1 << (width - 1), (1 << width) - 1
    axes = []
    for _ in range(naxes):
        axes.append((key & field) - bias)
        key >>= width
    return (*axes, *signs)


def _accumulate(out: dict[int, Pair], terms: Iterable[tuple[int, Pair]]
                ) -> dict[int, Pair]:
    """`out` with `terms` added in, term by term; a sum of zero is removed."""
    get = out.get
    for k, (a, b) in terms:
        old = get(k)
        if old is None:
            out[k] = (a, b)
        elif old[0] + a or old[1] + b:
            out[k] = (old[0] + a, old[1] + b)
        else:
            del out[k]
    return out


def _make(nsyms: int, nsigns: int, den: int, width: int, reach: int,
          terms: dict[int, Pair]) -> LaurentPoly:
    """A polynomial from packed terms, none of them zero."""
    poly = object.__new__(LaurentPoly)
    poly.nsyms, poly.nsigns, poly.den = nsyms, nsigns, den
    poly._width, poly._reach, poly._terms = width, reach, terms
    return poly


def _signed(naxes: int, signs: Sequence[int], value: int, den: int) -> LaurentPoly:
    """value/den times sign symbol j to the power signs[j], each 0 or 1,
    made packed without the constructor's checks: no axis is raised, so
    its one key holds the bias in every axis field of the narrowest width."""
    key = _layout(naxes, len(signs), _WIDTH)[0] + sum(s << 2 * j for j, s in enumerate(signs))
    return _make(naxes + len(signs), len(signs), den, _WIDTH, 0,
                 {key: (value, 0)} if value else {})


def _sum(polys: Sequence[LaurentPoly]) -> LaurentPoly:
    """The sum of one or more polynomials in the same symbols, added into
    one dict: the first one's terms copied, in the widest fields and over
    the lcm of the denominators, then each other one's added in."""
    first = polys[0]
    den = lcm(*[p.den for p in polys])
    width = max([p._width for p in polys])
    merged = dict(first._scaled(den, width))
    for p in polys[1:]:
        _accumulate(merged, p._scaled(den, width).items())
    return _make(first.nsyms, first.nsigns, den, width, max([p._reach for p in polys]),
                 merged)


class LaurentPoly:
    """Sparse Laurent polynomial in `nsyms` invertible symbols over Q(phi).

    Terms map exponent vectors (one entry per symbol, any integer) to
    numerators in Z[phi], and one positive integer `den` divides the whole
    polynomial; the prover's denominators are products of 2s and 5s. No
    zero numerator is stored, so the polynomial is zero exactly when no
    term is left, and the zero test never divides. Numerators are reduced
    against the denominator only when the polynomial is turned into text.

    The last `nsigns` symbols are sign symbols, each a sigma with
    sigma^2 = 1 such as (-1)^x. Their exponents are 0 or 1: a product adds
    them mod 2, and nothing else changes them. `specialize` sets them to
    +-1. With no sign symbols the polynomial is an ordinary Laurent
    polynomial. The other symbols are its axes.

    Inside, a term is one int key and an int pair (a, b) for its numerator
    a + b*phi. The key packs the exponent vector: sign symbol j in the
    two-bit field at bit 2j, then axis i in the `width`-bit field above
    them at bit 2*nsigns + width*i, holding its exponent plus the bias
    2^(width-1). Multiplying two terms adds their keys, subtracts one
    bias per axis, and masks off the high bit of each sign field, which
    leaves each sign exponent mod 2. Each polynomial keeps its reach, a
    bound on its largest axis exponent in size, below 2^(width-1); a
    product whose factors' reaches add up past that is done in wider
    fields (each doubling the last), so no field ever carries into the
    next and no exponent is too large. `terms` unpacks the keys into
    exponent tuples with GoldenInt numerators.
    """

    __slots__ = ("nsyms", "nsigns", "den", "_width", "_reach", "_terms")

    def __init__(self, nsyms: int, terms: Mapping[Exps, GoldenInt] | None = None,
                 den: int = 1, nsigns: int = 0):
        if den < 1:
            raise ValueError(f"LaurentPoly denominator must be positive, got {den}")
        if not 0 <= nsigns <= nsyms:
            raise ValueError(f"{nsigns} sign symbols among {nsyms} symbols")
        naxes = nsyms - nsigns
        terms = terms or {}
        for e in terms:
            if len(e) != nsyms or not _BITS.issuperset(e[naxes:]):
                raise ValueError(f"exponents {e} are not {nsyms} with the last "
                                 f"{nsigns}, of sign symbols, each 0 or 1")
        kept = [(e, c) for e, c in terms.items() if c.a or c.b]
        reach = max(map(abs, chain.from_iterable(e[:naxes] for e, _ in kept)), default=0)
        width = _fit(reach, _WIDTH)
        self.nsyms, self.nsigns, self.den = nsyms, nsigns, den
        self._width, self._reach = width, reach
        self._terms = {_pack(e, naxes, width): (c.a, c.b) for e, c in kept}

    @classmethod
    def monomial(cls, exps: Exps, coeff: Scalar = 1, den: int = 1,
                 nsigns: int = 0) -> LaurentPoly:
        """coeff/den times the product of symbol i raised to exps[i]; the
        last `nsigns` exponents are those of sign symbols, each 0 or 1."""
        return cls(len(exps), {tuple(exps): _coerce(coeff)}, den, nsigns)

    @property
    def terms(self) -> dict[Exps, GoldenInt]:
        """A fresh mapping from each term's exponent tuple to its numerator."""
        naxes, width = self.nsyms - self.nsigns, self._width
        return {_unpack(k, naxes, self.nsigns, width): GoldenInt(a, b)
                for k, (a, b) in self._terms.items()}

    def __len__(self) -> int:
        """The number of terms."""
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def _at(self, width: int) -> dict[int, Pair]:
        """The packed terms, re-packed in fields of `width` >= self._width bits."""
        if width == self._width:
            return self._terms
        naxes, nsigns = self.nsyms - self.nsigns, self.nsigns
        return {_pack(_unpack(k, naxes, nsigns, self._width), naxes, width): c
                for k, c in self._terms.items()}

    def _scaled(self, den: int, width: int) -> dict[int, Pair]:
        """The packed terms in fields of `width` bits, with numerators over
        `den`, a multiple of self.den."""
        terms = self._at(width)
        if den == self.den:
            return terms
        scale = den // self.den
        return {k: (a * scale, b * scale) for k, (a, b) in terms.items()}

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _sum((self, other))

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> LaurentPoly:
        return _make(self.nsyms, self.nsigns, self.den, self._width, self._reach,
                     {k: (-a, -b) for k, (a, b) in self._terms.items()})

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        reach = self._reach + other._reach
        width = _fit(reach, max(self._width, other._width))
        offset, mask = _layout(self.nsyms - self.nsigns, self.nsigns, width)
        right = list(other._at(width).items())
        product: dict[int, Pair] = {}
        get = product.get
        for k1, (a, b) in self._at(width).items():
            k1 -= offset
            for k2, (c, d) in right:
                # (a + b phi)(c + d phi) = ac + bd + (ad + bc + bd) phi
                k = (k1 + k2) & mask
                bd = b * d
                old = get(k)
                if old is None:
                    product[k] = (a * c + bd, a * d + b * c + bd)
                else:
                    product[k] = (old[0] + a * c + bd, old[1] + a * d + b * c + bd)
        if not all(map(any, product.values())):
            product = {k: c for k, c in product.items() if any(c)}
        return _make(self.nsyms, self.nsigns, self.den * other.den, width, reach, product)

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
        odd = sum(1 << (2 * j) for j, bit in enumerate(bits) if bit & 1)
        low = 2 * self.nsigns
        out = _accumulate({}, ((k >> low, (-a, -b) if (k & odd).bit_count() & 1 else (a, b))
                               for k, (a, b) in self._terms.items()))
        return _make(self.nsyms - self.nsigns, 0, self.den, self._width, self._reach, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None  # type: ignore[assignment]

    def text(self, names: Sequence[str]) -> str:
        """Reduced text with `names` for the symbols, in exponent order, so
        equal polynomials print alike whatever their term order or scale."""
        terms = self.terms
        if not terms:
            return "0"
        g = gcd(self.den, *(x for c in terms.values() for x in (c.a, c.b)))
        parts = []
        for exps in sorted(terms):
            c = terms[exps]
            mono = "*".join(f"{name}^{e}" for name, e in zip(names, exps) if e)
            coeff = f"({GoldenInt(c.a // g, c.b // g)})"
            parts.append(f"{coeff}*{mono}" if mono else coeff)
        body = " + ".join(parts)
        den = self.den // g
        return body if den == 1 else f"[{body}]/{den}"

    def __repr__(self) -> str:
        return f"LaurentPoly({self.text([f'x{i}' for i in range(self.nsyms)])})"
