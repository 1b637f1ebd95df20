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
once per process, directly as its Binet monomials: two for F and L, four
for G, and so is each constant; both are kept in bounded caches, and no
polynomial is changed once made, so a proof reads the same whatever the
process proved before. A sum expands with its index bound in place:
indices and exponents are read with the values bound so far, never
copied.

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
from functools import lru_cache
from typing import Mapping

from .catalog import Identity
from .errors import InternalFault, SymbolicError
from .expr import (
    Add, Binom, Lit, Mul, Neg, Node, Pow, Pow5Floor, SeqRef, Sign, Sub, Sum, Sym,
    affine, free_symbols, iter_nodes, to_text,
)
from .parser import MAX_DIGITS, _times
from .verify import Failure, VerifyReport, _bi
from .zphi import SQRT5, GoldenInt, LaurentPoly, _power, _signed, phi_pow

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

# Entries each of the Binet and the constant cache holds at most. A Binet
# polynomial whose index constant is past _CACHED_BITS in size, or a
# constant with more bits than that, has numerators of thousands of digits
# or more and is not kept past its proof, so the caches stay within a few
# megabytes.
_CACHED = 256
_CACHED_BITS = 4096


# --- index expressions ------------------------------------------------------

def _index(node: Node, what: str, env: Mapping[str, int],
           ) -> tuple[int, dict[str, int], frozenset[str]]:
    """expr.affine of an index expression with the names bound in env read
    as their values, where a hand-built identity may put any node:
    affine's TypeError names the first outside index arithmetic."""
    try:
        return affine(node, env)
    except TypeError as exc:
        raise SymbolicError(f"{what}: {exc}") from None


def _constant(node: Node, what: str, env: Mapping[str, int]) -> int:
    """The value of an index expression that reads no free parameter."""
    const, coeffs, rest = _index(node, what, env)
    if coeffs or rest:  # the first unbound parameter, in reading order
        bad = next(n for n in iter_nodes(node) if isinstance(n, Sym) and n.name not in env)
        raise SymbolicError(f"{what} depends on free parameter '{bad.name}'")
    return const


# --- Binet rewriting with sign symbols ---------------------------------------

def _brief(what: Node | str, env: Mapping[str, int]) -> str:
    """A node's text with the values bound in env, or a text, cut short
    enough for an error message."""
    text = what if isinstance(what, str) else to_text(what, env)
    return text if len(text) <= 60 else text[:57] + "..."


@lru_cache(maxsize=_CACHED)
def _binet(kind: str, const: int, coeffs: tuple[int, ...]) -> LaurentPoly:
    """F, L or G at the index const + sum(coeffs[i] * x_i), in the symbols
    of a proof with len(coeffs) free parameters, built as its Binet
    monomials. Monomials whose exponents agree, as they do for a closed
    index, are merged."""
    nfree = len(coeffs)
    root = phi_pow(const)
    # phi^e = phi^c * prod X^a, (1 - phi)^e = conj(phi^c) * prod (-1)^(a*x) * X^(-a)
    plus = (coeffs, (0,) * nfree, root)
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
    return LaurentPoly(2 * nfree + 2, merged, den, nfree)


@lru_cache(maxsize=_CACHED)
def _scalar(signs: tuple[int, ...], value: int, den: int) -> LaurentPoly:
    """value/den times the sign symbol of free parameter i to the power
    signs[i], 0 or 1, in the symbols of a proof with len(signs) free
    parameters: a constant when no sign is raised."""
    return _signed(len(signs) + 2, signs, value, den)


def _closed_value(poly: LaurentPoly, node: Node, env: Mapping[str, int]) -> int | None:
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
        raise InternalFault(f"{_brief(node, env)}: the closed base ({c})/{poly.den} "
                            f"is not an integer")
    return value


class _Rewriter:
    """The polynomials of one proof, under its resource bounds.

    Polynomials have one symbol per free parameter (its axis), then the
    seed scalars splus = G(-1) + G(1) and szero = G(0), then one sign
    symbol (-1)^x per free parameter x, in the same order as the axes.
    Each node is read with env, the values bound so far: the fixed
    parameters and the index of each enclosing sum.
    """

    __slots__ = ("free", "width", "unsigned", "half", "seqs", "products", "sum_terms")

    def __init__(self, free: tuple[str, ...]):
        self.free = free
        self.width = (2 * len(free) + 2 + 7) // 8
        self.unsigned = (0,) * len(free)
        self.half = self.constant(1, 2)
        self.seqs: dict[tuple[str, int, tuple[int, ...]], LaurentPoly] = {}
        self.products = 0
        self.sum_terms = 0

    def constant(self, value: int, den: int = 1) -> LaurentPoly:
        build = _scalar if value.bit_length() <= _CACHED_BITS else _scalar.__wrapped__
        return build(self.unsigned, value, den)

    def signed(self, value: int, signs: Mapping[str, int], den: int = 1) -> LaurentPoly:
        """value/den times (-1)^(a*x) for each free parameter x with a = signs[x]."""
        parity = list(self.unsigned)
        for p, a in signs.items():
            parity[self.free.index(p)] = a & 1
        return _scalar(tuple(parity), value, den)

    def seq_poly(self, kind: str, arg: Node, env: Mapping[str, int]) -> LaurentPoly:
        const, terms, rest = _index(arg, f"{kind}() index", env)
        if rest:
            raise SymbolicError(f"{kind}({to_text(arg, env)}): index is not affine in "
                                f"the free parameters (product of parameters)")
        key = (kind, const, tuple(terms.get(p, 0) for p in self.free))
        poly = self.seqs.get(key)
        if poly is None:  # a far index is shared within the proof, not kept past it
            build = _binet if abs(const) <= _CACHED_BITS else _binet.__wrapped__
            poly = self.seqs[key] = build(*key)
        return poly

    def sign_poly(self, node: Sign, env: Mapping[str, int]) -> LaurentPoly:
        """(-1)^arg: one signed monomial when arg is affine in the free
        parameters, otherwise the sum, over the parity classes b of the
        parameters arg reads, of its value in class b times the class's
        indicator prod (1 + (-1)^b_i * sigma_i) / 2."""
        const, terms, rest = _index(node.arg, "sign() exponent", env)
        if not rest:
            return self.signed(-1 if const & 1 else 1, terms)
        read = [p for p in self.free if p in free_symbols(node.arg) and p not in env]
        poly = self.constant(0)
        for bits in itertools.product((0, 1), repeat=len(read)):
            value = _constant(node.arg, "sign() exponent", {**env, **dict(zip(read, bits))})
            term = self.constant(-1 if value & 1 else 1)
            for p, b in zip(read, bits):
                sigma = self.signed(-1 if b else 1, {p: 1}, 2)
                term = self.product(term, self.half + sigma, node, env)
            poly = poly + term
        return poly

    def charge(self, products: int, what: Node | str, env: Mapping[str, int]) -> None:
        """Count `products` term products, refused before they are done if
        they would take the proof past MAX_TERM_PRODUCTS. Each one costs
        `width`, the symbol count in units of eight rounded up, since a
        term's work grows with it: one unit up to three free parameters.
        A refused node is named with the values bound in env."""
        self.products += products * self.width
        if self.products > MAX_TERM_PRODUCTS:
            raise SymbolicError(
                f"{_brief(what, env)}: the proof needs more than "
                f"{MAX_TERM_PRODUCTS:,} term products")

    def product(self, a: LaurentPoly, b: LaurentPoly, node: Node,
                env: Mapping[str, int]) -> LaurentPoly:
        self.charge(len(a) * len(b), node, env)
        return a * b

    def to_poly(self, node: Node, env: Mapping[str, int]) -> LaurentPoly:
        if isinstance(node, Lit):
            return self.constant(node.value)
        if isinstance(node, Sym):
            if node.name in env:
                return self.constant(env[node.name])
            raise SymbolicError(
                f"parameter '{node.name}' appears as a bare value; the prover "
                f"handles parameters only inside indices, exponents, and signs")
        if isinstance(node, Add):
            return self.to_poly(node.left, env) + self.to_poly(node.right, env)
        if isinstance(node, Sub):
            return self.to_poly(node.left, env) - self.to_poly(node.right, env)
        if isinstance(node, Neg):
            return -self.to_poly(node.operand, env)
        if isinstance(node, Mul):
            return self.product(self.to_poly(node.left, env),
                                self.to_poly(node.right, env), node, env)
        if isinstance(node, Pow):
            e = _constant(node.exponent, "power exponent", env)
            if e < 0:
                raise SymbolicError(f"power exponent {e} is negative")
            base = self.to_poly(node.base, env)
            value = _closed_value(base, node, env)
            if value is not None:  # no symbol left: an integer's power
                # the parser's digit limit, also for a power closed by fixed parameters
                if abs(value) > 1 and _times(e, math.log10(abs(value))) >= MAX_DIGITS:
                    raise SymbolicError(f"{_brief(node, env)}: the proof needs a constant "
                                        f"over the {MAX_DIGITS:,}-digit limit")
                return self.constant(value ** e)
            return _power(base, e, self.constant(1),
                          lambda a, b: self.product(a, b, node, env))
        if isinstance(node, SeqRef):
            return self.seq_poly(node.kind, node.arg, env)
        if isinstance(node, Binom):
            top = _constant(node.top, "binom() argument", env)
            bottom = _constant(node.bottom, "binom() argument", env)
            return self.constant(_bi(top, bottom))
        if isinstance(node, Sign):
            return self.sign_poly(node, env)
        if isinstance(node, Pow5Floor):
            e = _constant(node.arg, "pow5floor() argument", env)
            if e < 0:
                raise SymbolicError(f"pow5floor argument {e} is negative")
            return self.constant(5 ** (e // 2))
        if isinstance(node, Sum):
            lo = _constant(node.lo, "sum lower bound", env)
            hi = _constant(node.hi, "sum upper bound", env)
            if lo > hi + 1:
                raise SymbolicError(f"sum bounds {lo}..{hi} are inverted")
            self.sum_terms += hi + 1 - lo
            if self.sum_terms > MAX_SUM_TERMS:
                raise SymbolicError(
                    f"{_brief(node, env)}: the proof needs more than "
                    f"{MAX_SUM_TERMS:,} summation terms")
            acc = self.constant(0)
            inner = dict(env)
            for k in range(lo, hi + 1):
                inner[node.var] = k
                acc = acc + self.to_poly(node.body, inner)
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
    residual = rewriter.to_poly(identity.lhs, fixed) - rewriter.to_poly(identity.rhs, fixed)
    axes = [*_AXIS_NAMES[:len(free)], *(f"X{i}" for i in range(4, len(free) + 1))]
    names = (*axes, *_SEED_NAMES)

    # a polynomial multilinear in the sign symbols is zero exactly when it
    # vanishes at every point of {+-1}^r, so a zero residual passes every case
    failures: list[Failure] = []
    if not residual.is_zero():
        cases = f"{identity.name} over 2^{len(free)} parity cases"
        for bits in itertools.product((0, 1), repeat=len(free)):
            rewriter.charge(len(residual), cases, fixed)
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
