"""Symbolic identity proofs over all integer parameters at fixed rank.

Every sequence reference is rewritten through the exact Binet forms into
Laurent monomials in one invertible symbol per remaining free parameter
(the symbol stands for phi raised to that parameter). The conjugate root
satisfies (1 - phi)^e = (-1)^e * phi^(-e), and each free parameter x
brings a sign symbol sigma = (-1)^x with sigma^2 = 1 into the same
polynomial: (1 - phi)^(c + a*x) carries sigma^(a mod 2), and sign() of an
affine argument is one signed monomial. sign() of any other argument is
expanded over the parity classes of the parameters it reads.

G references expand through G(e) = [(G(-1)+G(1)) F(e) + G(0) L(e)] / 2
with the two seed combinations kept as formal scalars, so a PASS is
universal over seeds as well. The seed scalars are two more symbols of
the same Laurent polynomial.

The difference of the two sides is built once. It is multilinear in the
sign symbols, so it is zero exactly when it vanishes at every point of
{+-1}^r: a zero difference passes all 2^r parity cases, whose union
covers all integers. Otherwise the difference is specialized at each
parity case, and the cases where it does not vanish fail with that
residual.
"""

from __future__ import annotations

import itertools
import time
from typing import Mapping

from .catalog import Identity
from .errors import SymbolicError
from .expr import (
    Add, Binom, Lit, Mul, Neg, Node, Pow, Pow5Floor, SeqRef, Sign, Sub, Sum, Sym,
    free_symbols, substitute, to_text,
)
from .verify import Failure, VerifyReport, _bi
from .zphi import SQRT5, GoldenInt, LaurentPoly, _power, phi_pow

__all__ = ["MAX_SUM_TERMS", "MAX_TERM_PRODUCTS", "prove_symbolic"]

# Bounds on one proof's work, each checked before the work it bounds: the
# summation terms expanded over all of its sums, and the term-by-term
# products of all of its products and powers.
MAX_SUM_TERMS = 1_000
MAX_TERM_PRODUCTS = 100_000

# Symbol names in residual text: one per free parameter, then the two seeds.
_AXIS_NAMES = "XYZ"
_SEED_NAMES = ("splus", "szero")


# --- affine analysis of index expressions -----------------------------------

def _affine(node: Node) -> tuple[int, dict[str, int]]:
    """Index expression as constant + sum(coeff * param); SymbolicError otherwise."""
    if isinstance(node, Lit):
        return node.value, {}
    if isinstance(node, Sym):
        return 0, {node.name: 1}
    if isinstance(node, Add):
        c1, t1 = _affine(node.left)
        c2, t2 = _affine(node.right)
        return c1 + c2, _merge(t1, t2, 1)
    if isinstance(node, Sub):
        c1, t1 = _affine(node.left)
        c2, t2 = _affine(node.right)
        return c1 - c2, _merge(t1, t2, -1)
    if isinstance(node, Neg):
        c, t = _affine(node.operand)
        return -c, {k: -v for k, v in t.items()}
    if isinstance(node, Mul):
        c1, t1 = _affine(node.left)
        c2, t2 = _affine(node.right)
        if not t1:
            return c1 * c2, {k: c1 * v for k, v in t2.items()}
        if not t2:
            return c1 * c2, {k: c2 * v for k, v in t1.items()}
        raise SymbolicError(
            "index is not affine in the free parameters (product of parameters)")
    raise SymbolicError(
        f"index contains unsupported node {type(node).__name__}")


def _merge(t1: dict[str, int], t2: dict[str, int], sign: int) -> dict[str, int]:
    out = dict(t1)
    for k, v in t2.items():
        out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v != 0}


def _eval_index(node: Node, env: Mapping[str, int], what: str) -> int:
    """Evaluate an index expression; every symbol it uses must be in env."""
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Sym):
        if node.name not in env:
            raise SymbolicError(f"{what} depends on free parameter '{node.name}'")
        return env[node.name]
    if isinstance(node, Add):
        return _eval_index(node.left, env, what) + _eval_index(node.right, env, what)
    if isinstance(node, Sub):
        return _eval_index(node.left, env, what) - _eval_index(node.right, env, what)
    if isinstance(node, Neg):
        return -_eval_index(node.operand, env, what)
    if isinstance(node, Mul):
        return _eval_index(node.left, env, what) * _eval_index(node.right, env, what)
    raise SymbolicError(f"{what} contains unsupported node {type(node).__name__}")


# --- Binet rewriting with sign symbols ---------------------------------------

def _brief(node: Node) -> str:
    """A node's text, cut short enough for an error message."""
    text = to_text(node)
    return text if len(text) <= 60 else text[:57] + "..."


class _Rewriter:
    """The polynomials of one proof, under its resource bounds.

    Polynomials have one symbol per free parameter (its axis), then the
    seed scalars splus = G(-1) + G(1) and szero = G(0), then one sign
    symbol (-1)^x per free parameter x, in the same order as the axes.
    """

    __slots__ = ("free", "nsyms", "inv_sqrt5", "half", "splus", "szero",
                 "products", "sum_terms")

    def __init__(self, free: tuple[str, ...]):
        self.free = free
        self.nsyms = 2 * len(free) + 2
        self.inv_sqrt5 = self.constant(SQRT5, 5)   # 1/sqrt(5) = sqrt(5)/5
        self.half = self.constant(1, 2)
        self.splus = self.monomial({len(free): 1})
        self.szero = self.monomial({len(free) + 1: 1})
        self.products = 0
        self.sum_terms = 0

    def monomial(self, exps: Mapping[int, int], coeff: int | GoldenInt = 1,
                 den: int = 1) -> LaurentPoly:
        """coeff/den times symbol i to the power exps[i], for each i in exps."""
        return LaurentPoly.monomial(
            tuple(exps.get(i, 0) for i in range(self.nsyms)), coeff, den, len(self.free))

    def constant(self, value: int | GoldenInt, den: int = 1) -> LaurentPoly:
        return self.monomial({}, value, den)

    def axis(self, param: str) -> int:
        return self.free.index(param)

    def sign_slot(self, param: str) -> int:
        return len(self.free) + 2 + self.free.index(param)

    def phi_power(self, const: int, terms: dict[str, int]) -> LaurentPoly:
        exps = {self.axis(p): a for p, a in terms.items()}
        return self.monomial(exps, phi_pow(const))

    def conj_power(self, const: int, terms: dict[str, int]) -> LaurentPoly:
        # (1 - phi)^(c + sum a*x) = (-1)^c * phi^(-c) * prod (-1)^(a*x) * phi^(-a*x)
        exps = {}
        for p, a in terms.items():
            exps[self.axis(p)] = -a
            exps[self.sign_slot(p)] = a & 1
        coeff = phi_pow(-const)
        return self.monomial(exps, -coeff if const & 1 else coeff)

    def seq_poly(self, kind: str, arg: Node) -> LaurentPoly:
        try:
            const, terms = _affine(arg)
        except SymbolicError as exc:
            raise SymbolicError(f"{kind}({to_text(arg)}): {exc}") from None
        plus = self.phi_power(const, terms)
        minus = self.conj_power(const, terms)
        if kind == "F":
            return (plus - minus) * self.inv_sqrt5
        if kind == "L":
            return plus + minus
        # G(e) = [splus * F(e) + szero * L(e)] / 2 with formal seed scalars
        f_part = (plus - minus) * self.inv_sqrt5 * self.splus
        l_part = (plus + minus) * self.szero
        return (f_part + l_part) * self.half

    def sign_poly(self, arg: Node) -> LaurentPoly:
        """(-1)^arg: one signed monomial when arg is affine in the free
        parameters, otherwise expanded over parity classes."""
        try:
            const, terms = _affine(arg)
        except SymbolicError:
            return self.sign_by_class(arg)
        exps = {self.sign_slot(p): a & 1 for p, a in terms.items()}
        return self.monomial(exps, -1 if const & 1 else 1)

    def sign_by_class(self, arg: Node) -> LaurentPoly:
        """(-1)^arg as the sum, over the parity classes b of the parameters
        arg reads, of its value in class b times the class's indicator
        prod (1 + (-1)^b_i * sigma_i) / 2."""
        read = [p for p in self.free if p in free_symbols(arg)]
        poly = self.constant(0)
        for bits in itertools.product((0, 1), repeat=len(read)):
            odd = _eval_index(arg, dict(zip(read, bits)), "sign() exponent") & 1
            term = self.constant(-1 if odd else 1)
            for p, b in zip(read, bits):
                sigma = self.monomial({self.sign_slot(p): 1}, -1 if b else 1, 2)
                term = term * (self.half + sigma)
            poly = poly + term
        return poly

    def product(self, a: LaurentPoly, b: LaurentPoly, node: Node) -> LaurentPoly:
        """a * b, refused before it is computed if it would take the proof
        past MAX_TERM_PRODUCTS term-by-term products."""
        self.products += len(a.terms) * len(b.terms)
        if self.products > MAX_TERM_PRODUCTS:
            raise SymbolicError(
                f"{_brief(node)}: the proof needs more than "
                f"{MAX_TERM_PRODUCTS:,} term products")
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
            e = _eval_index(node.exponent, {}, "power exponent")
            if e < 0:
                raise SymbolicError(f"power exponent {e} is negative")
            return _power(self.to_poly(node.base), e, self.constant(1),
                          lambda a, b: self.product(a, b, node))
        if isinstance(node, SeqRef):
            return self.seq_poly(node.kind, node.arg)
        if isinstance(node, Binom):
            top = _eval_index(node.top, {}, "binom() argument")
            bottom = _eval_index(node.bottom, {}, "binom() argument")
            return self.constant(_bi(top, bottom))
        if isinstance(node, Sign):
            return self.sign_poly(node.arg)
        if isinstance(node, Pow5Floor):
            e = _eval_index(node.arg, {}, "pow5floor() argument")
            if e < 0:
                raise SymbolicError(f"pow5floor argument {e} is negative")
            return self.constant(5 ** (e // 2))
        if isinstance(node, Sum):
            lo = _eval_index(node.lo, {}, "sum lower bound")
            hi = _eval_index(node.hi, {}, "sum upper bound")
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
    parameters may optionally be pinned too. At most three parameters may
    remain free. A PASS certifies the identity for all integer values of
    the free parameters and every integer seed at the fixed rank.
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
    if len(free) > len(_AXIS_NAMES):
        raise SymbolicError(
            f"'{identity.name}' keeps {len(free)} parameters free; at most "
            f"{len(_AXIS_NAMES)} are supported")

    started = time.perf_counter()
    rewriter = _Rewriter(free)
    residual = (rewriter.to_poly(substitute(identity.lhs, fixed))
                - rewriter.to_poly(substitute(identity.rhs, fixed)))
    names = (*_AXIS_NAMES[:len(free)], *_SEED_NAMES)

    # a polynomial multilinear in the sign symbols is zero exactly when it
    # vanishes at every point of {+-1}^r, so a zero residual passes every case
    failures: list[Failure] = []
    if not residual.is_zero():
        for bits in itertools.product((0, 1), repeat=len(free)):
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
            "axes": dict(zip(_AXIS_NAMES, free)),
        },
        total=2 ** len(free),
        failures=failures,
        elapsed_ms=elapsed,
    )
