"""Symbolic identity proofs over all integer parameters at fixed rank.

Every sequence reference is rewritten through the exact Binet forms into
Laurent monomials in one invertible symbol per remaining free parameter
(the symbol stands for phi raised to that parameter). The conjugate root
satisfies (1 - phi)^e = (-1)^e * phi^(-e), and each free parameter x
brings a sign symbol sigma = (-1)^x with sigma^2 = 1 into the same
polynomial: (1 - phi)^(c + a*x) carries sigma^(a mod 2), and sign() of an
affine argument is one signed monomial. sign() of any other argument is
expanded over the parity classes of the parameters it reads. Indices,
exponents and bounds are read by expr.affine, and a power whose base has
no symbol left is its integer's power, not a Binet expansion.

G references expand through G(e) = [(G(-1)+G(1)) F(e) + G(0) L(e)] / 2
with the two seed combinations kept as formal scalars, so a PASS is
universal over seeds as well. The seed scalars are two more symbols of
the same Laurent polynomial. Each distinct F, L or G reference is built
once per proof, directly as its Binet monomials: two for F and L, four
for G.

The difference of the two sides is built once. It is multilinear in the
sign symbols, so it is zero exactly when it vanishes at every point of
{+-1}^r: a zero difference passes all 2^r parity cases, whose union
covers all integers. Otherwise the difference is specialized at each
parity case, and the cases where it does not vanish fail with that
residual.

Any number of parameters may stay free: the work that grows as 2^r, the
parity-class expansion of sign() and the per-case specialization, is
charged to the term-product budget, which refuses a proof too wide.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Mapping

from .catalog import Identity
from .errors import InternalFault, SymbolicError
from .expr import (
    Add, Binom, Lit, Mul, Neg, Node, Pow, Pow5Floor, SeqRef, Sign, Sub, Sum, Sym,
    affine, free_symbols, iter_nodes, substitute, to_text,
)
from .parser import MAX_DIGITS, _times
from .verify import Failure, VerifyReport, _bi
from .zphi import SQRT5, GoldenInt, LaurentPoly, _power, phi_pow

__all__ = ["MAX_SUM_TERMS", "MAX_TERM_PRODUCTS", "prove_symbolic"]

# Bounds on one proof's work, each checked before the work it bounds: the
# summation terms expanded over all of its sums, and the term-by-term
# products of all of its products, powers and parity cases.
MAX_SUM_TERMS = 1_000
MAX_TERM_PRODUCTS = 100_000

# Symbol names in residual text: one per free parameter (X, Y, Z, then X4,
# X5, ...), then the two seeds.
_AXIS_NAMES = "XYZ"
_SEED_NAMES = ("splus", "szero")


# --- index expressions ------------------------------------------------------

def _index(node: Node, what: str) -> tuple[int, dict[str, int], frozenset[str]]:
    """expr.affine of an index expression, where a hand-built identity may
    put any node: affine's TypeError names the first outside index arithmetic."""
    try:
        return affine(node)
    except TypeError as exc:
        raise SymbolicError(f"{what}: {exc}") from None


def _constant(node: Node, what: str) -> int:
    """The value of an index expression that reads no free parameter."""
    const, coeffs, rest = _index(node, what)
    if coeffs or rest:  # the first parameter, in reading order
        bad = next(n for n in iter_nodes(node) if isinstance(n, Sym))
        raise SymbolicError(f"{what} depends on free parameter '{bad.name}'")
    return const


# --- Binet rewriting with sign symbols ---------------------------------------

def _brief(what: Node | str) -> str:
    """A node's text, or a text, cut short enough for an error message."""
    text = what if isinstance(what, str) else to_text(what)
    return text if len(text) <= 60 else text[:57] + "..."


def _closed_value(poly: LaurentPoly, node: Node) -> int | None:
    """The integer `poly` stands for when it has no symbol left, else None.
    Such a base is built from integers alone, so a phi part or a fraction
    left in it is a fault of the prover's."""
    if len(poly) > 1:  # two terms differ in some exponent
        return None
    terms = poly.terms
    if any(map(any, terms)):
        return None
    c = next(iter(terms.values()), GoldenInt(0, 0))
    value, rest = divmod(c.a, poly.den)
    if c.b or rest:
        raise InternalFault(f"{_brief(node)}: the closed base ({c})/{poly.den} "
                            f"is not an integer")
    return value


class _Rewriter:
    """The polynomials of one proof, under its resource bounds.

    Polynomials have one symbol per free parameter (its axis), then the
    seed scalars splus = G(-1) + G(1) and szero = G(0), then one sign
    symbol (-1)^x per free parameter x, in the same order as the axes.
    """

    __slots__ = ("free", "nsyms", "width", "half", "seqs", "products", "sum_terms")

    def __init__(self, free: tuple[str, ...]):
        self.free = free
        self.nsyms = 2 * len(free) + 2
        self.width = (self.nsyms + 7) // 8
        self.half = self.constant(1, 2)
        self.seqs: dict[tuple[str, int, tuple[int, ...]], LaurentPoly] = {}
        self.products = 0
        self.sum_terms = 0

    def monomial(self, exps: Mapping[int, int], coeff: int | GoldenInt = 1,
                 den: int = 1) -> LaurentPoly:
        """coeff/den times symbol i to the power exps[i], for each i in exps."""
        return LaurentPoly.monomial(
            tuple(exps.get(i, 0) for i in range(self.nsyms)), coeff, den, len(self.free))

    def constant(self, value: int | GoldenInt, den: int = 1) -> LaurentPoly:
        return self.monomial({}, value, den)

    def sign_slot(self, param: str) -> int:
        return len(self.free) + 2 + self.free.index(param)

    def seq_poly(self, kind: str, arg: Node) -> LaurentPoly:
        const, terms, rest = _index(arg, f"{kind}() index")
        if rest:
            raise SymbolicError(f"{kind}({to_text(arg)}): index is not affine in the "
                                f"free parameters (product of parameters)")
        coeffs = tuple(terms.get(p, 0) for p in self.free)
        key = (kind, const, coeffs)
        poly = self.seqs.get(key)
        if poly is None:
            poly = self.seqs[key] = self.binet(kind, const, coeffs)
        return poly

    def binet(self, kind: str, const: int, coeffs: tuple[int, ...]) -> LaurentPoly:
        """F, L or G at the index const + sum(coeffs[i] * x_i), built as its
        Binet monomials. Monomials whose exponents agree, as they do for a
        closed index, are merged."""
        root = phi_pow(const)
        # phi^e = phi^c * prod X^a, (1 - phi)^e = conj(phi^c) * prod (-1)^(a*x) * X^(-a)
        plus = (coeffs, (0,) * len(coeffs), root)
        minus = (tuple(-a for a in coeffs), tuple(a & 1 for a in coeffs), root.conj())
        # seed exponents (splus, szero) -> the weights of phi^e and (1 - phi)^e
        if kind == "F":    # (phi^e - (1 - phi)^e) / sqrt(5), 1/sqrt(5) = sqrt(5)/5
            weights, den = {(0, 0): (SQRT5, -SQRT5)}, 5
        elif kind == "L":  # phi^e + (1 - phi)^e
            weights, den = {(0, 0): (1, 1)}, 1
        else:              # G(e) = [splus * F(e) + szero * L(e)] / 2
            weights, den = {(1, 0): (SQRT5, -SQRT5), (0, 1): (5, 5)}, 10
        merged: dict[tuple[int, ...], GoldenInt] = {}
        for seeds, pair in weights.items():
            for (axes, signs, z), w in zip((plus, minus), pair):
                exps = (*axes, *seeds, *signs)
                merged[exps] = merged[exps] + z * w if exps in merged else z * w
        return LaurentPoly(self.nsyms, merged, den, len(self.free))

    def sign_poly(self, node: Sign) -> LaurentPoly:
        """(-1)^arg: one signed monomial when arg is affine in the free
        parameters, otherwise the sum, over the parity classes b of the
        parameters arg reads, of its value in class b times the class's
        indicator prod (1 + (-1)^b_i * sigma_i) / 2."""
        const, terms, rest = _index(node.arg, "sign() exponent")
        if not rest:
            exps = {self.sign_slot(p): a & 1 for p, a in terms.items()}
            return self.monomial(exps, -1 if const & 1 else 1)
        read = [p for p in self.free if p in free_symbols(node.arg)]
        poly = self.constant(0)
        for bits in itertools.product((0, 1), repeat=len(read)):
            value = _constant(substitute(node.arg, dict(zip(read, bits))),
                              "sign() exponent")
            term = self.constant(-1 if value & 1 else 1)
            for p, b in zip(read, bits):
                sigma = self.monomial({self.sign_slot(p): 1}, -1 if b else 1, 2)
                term = self.product(term, self.half + sigma, node)
            poly = poly + term
        return poly

    def charge(self, products: int, what: Node | str) -> None:
        """Count `products` term products, refused before they are done if
        they would take the proof past MAX_TERM_PRODUCTS. Each one costs
        `width`, the symbol count in units of eight rounded up, since a
        term's work grows with it: one unit up to three free parameters."""
        self.products += products * self.width
        if self.products > MAX_TERM_PRODUCTS:
            raise SymbolicError(
                f"{_brief(what)}: the proof needs more than "
                f"{MAX_TERM_PRODUCTS:,} term products")

    def product(self, a: LaurentPoly, b: LaurentPoly, node: Node) -> LaurentPoly:
        self.charge(len(a) * len(b), node)
        return a * b

    def to_poly(self, node: Node) -> LaurentPoly:
        if isinstance(node, Lit):
            return self.constant(node.value)
        if isinstance(node, Sym):
            raise SymbolicError(
                f"parameter '{node.name}' appears as a bare value; the prover "
                f"handles parameters only inside indices, exponents, and signs")
        if isinstance(node, Add):
            return self.to_poly(node.left) + self.to_poly(node.right)
        if isinstance(node, Sub):
            return self.to_poly(node.left) - self.to_poly(node.right)
        if isinstance(node, Neg):
            return -self.to_poly(node.operand)
        if isinstance(node, Mul):
            return self.product(self.to_poly(node.left), self.to_poly(node.right), node)
        if isinstance(node, Pow):
            e = _constant(node.exponent, "power exponent")
            if e < 0:
                raise SymbolicError(f"power exponent {e} is negative")
            base = self.to_poly(node.base)
            value = _closed_value(base, node)
            if value is not None:  # no symbol left: an integer's power
                # the parser's digit limit, also for a power closed by fixed parameters
                if abs(value) > 1 and _times(e, math.log10(abs(value))) >= MAX_DIGITS:
                    raise SymbolicError(f"{_brief(node)}: the proof needs a constant "
                                        f"over the {MAX_DIGITS:,}-digit limit")
                return self.constant(value ** e)
            return _power(base, e, self.constant(1), lambda a, b: self.product(a, b, node))
        if isinstance(node, SeqRef):
            return self.seq_poly(node.kind, node.arg)
        if isinstance(node, Binom):
            top = _constant(node.top, "binom() argument")
            bottom = _constant(node.bottom, "binom() argument")
            return self.constant(_bi(top, bottom))
        if isinstance(node, Sign):
            return self.sign_poly(node)
        if isinstance(node, Pow5Floor):
            e = _constant(node.arg, "pow5floor() argument")
            if e < 0:
                raise SymbolicError(f"pow5floor argument {e} is negative")
            return self.constant(5 ** (e // 2))
        if isinstance(node, Sum):
            lo = _constant(node.lo, "sum lower bound")
            hi = _constant(node.hi, "sum upper bound")
            if lo > hi + 1:
                raise SymbolicError(f"sum bounds {lo}..{hi} are inverted")
            self.sum_terms += hi + 1 - lo
            if self.sum_terms > MAX_SUM_TERMS:
                raise SymbolicError(
                    f"{_brief(node)}: the proof needs more than "
                    f"{MAX_SUM_TERMS:,} summation terms")
            acc = self.constant(0)
            for k in range(lo, hi + 1):
                acc = acc + self.to_poly(substitute(node.body, {node.var: k}))
            return acc
        raise TypeError(f"unknown node {node!r}")


def prove_symbolic(identity: Identity, fixed: Mapping[str, int] | None = None,
                   ) -> VerifyReport:
    """Prove an identity for every integer value of its free parameters.

    Rank parameters (sum bounds) must be pinned through `fixed`; other
    parameters may optionally be pinned too, and any number may stay free.
    A PASS certifies the identity for all integer values of the free
    parameters and every integer seed at the fixed rank.
    """
    fixed = dict(fixed or {})
    for name in fixed:
        if name not in identity.free_params:
            raise SymbolicError(
                f"'{identity.name}' has no parameter '{name}' to fix")
    for rank in identity.rank_params:
        if rank not in fixed:
            raise SymbolicError(
                f"rank parameter '{rank}' of '{identity.name}' must be fixed "
                f"for a symbolic proof")
        if fixed[rank] < 0:
            raise SymbolicError(f"rank parameter '{rank}' must be >= 0")
    free = tuple(p for p in identity.free_params if p not in fixed)

    started = time.perf_counter()
    rewriter = _Rewriter(free)
    residual = (rewriter.to_poly(substitute(identity.lhs, fixed))
                - rewriter.to_poly(substitute(identity.rhs, fixed)))
    axes = [*_AXIS_NAMES[:len(free)], *(f"X{i}" for i in range(4, len(free) + 1))]
    names = (*axes, *_SEED_NAMES)

    # a polynomial multilinear in the sign symbols is zero exactly when it
    # vanishes at every point of {+-1}^r, so a zero residual passes every case
    failures: list[Failure] = []
    if not residual.is_zero():
        cases = f"{identity.name} over 2^{len(free)} parity cases"
        for bits in itertools.product((0, 1), repeat=len(free)):
            rewriter.charge(len(residual), cases)
            case = residual.specialize(bits)
            if not case.is_zero():
                failures.append(Failure(
                    point=tuple(zip(free, bits)),
                    seed=None,
                    lhs=case.text(names),
                    rhs="0",
                ))

    elapsed = (time.perf_counter() - started) * 1000.0
    return VerifyReport(
        identity=identity.name,
        paper_tag=identity.paper_tag,
        mode="symbolic",
        grid={
            "fixed": dict(sorted(fixed.items())),
            "parity_params": list(free),
            "axes": dict(zip(axes, free)),
        },
        total=2 ** len(free),
        failures=failures,
        elapsed_ms=elapsed,
    )
