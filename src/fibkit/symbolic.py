"""Symbolic identity proofs over all integer parameters at fixed rank.

Every sequence reference is rewritten through the exact Binet forms into
Laurent monomials in one invertible symbol per remaining free parameter
(the symbol stands for phi raised to that parameter). The conjugate root
satisfies (1 - phi)^e = (-1)^e * phi^(-e), so each free parameter's sign
is discharged by splitting on its parity: 2^r cases for r parameters,
whose union covers all integers.

G references expand through G(e) = [(G(-1)+G(1)) F(e) + G(0) L(e)] / 2
with the two seed combinations kept as formal scalars, so a PASS is
universal over seeds as well. The seed scalars are the last two symbols
of the same Laurent polynomial. An identity passes one case when the
difference of its sides reduces to the zero polynomial.
"""

from __future__ import annotations

import itertools
import time
from typing import Mapping

from .catalog import Identity
from .errors import SymbolicError
from .expr import (
    Add, Binom, Lit, Mul, Neg, Node, Pow, Pow5Floor, SeqRef, Sign, Sub, Sum, Sym,
    substitute, to_text,
)
from .verify import Failure, VerifyReport, _bi
from .zphi import SQRT5, GoldenInt, LaurentPoly, phi_pow

__all__ = ["prove_symbolic"]

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


# --- Binet rewriting per parity case -----------------------------------------

class _Case:
    """One parity case: axis assignment and parity bit per free parameter.

    Polynomials have one symbol per free parameter (its axis), then the
    seed scalars splus = G(-1) + G(1) and szero = G(0).
    """

    __slots__ = ("axes", "bits", "nsyms", "inv_sqrt5", "half", "splus", "szero")

    def __init__(self, axes: dict[str, int], bits: dict[str, int]):
        self.axes = axes
        self.bits = bits
        self.nsyms = len(axes) + 2
        self.inv_sqrt5 = self.constant(SQRT5, 5)   # 1/sqrt(5) = sqrt(5)/5
        self.half = self.constant(1, 2)
        self.splus = LaurentPoly.monomial((0,) * len(axes) + (1, 0))
        self.szero = LaurentPoly.monomial((0,) * len(axes) + (0, 1))

    def constant(self, value: int | GoldenInt, den: int = 1) -> LaurentPoly:
        return LaurentPoly.monomial((0,) * self.nsyms, value, den)

    def phi_power(self, const: int, terms: dict[str, int]) -> LaurentPoly:
        exps = [0] * self.nsyms
        for param, coeff in terms.items():
            exps[self.axes[param]] += coeff
        return LaurentPoly.monomial(tuple(exps), phi_pow(const))

    def conj_power(self, const: int, terms: dict[str, int]) -> LaurentPoly:
        # (1 - phi)^e = (-1)^e * phi^(-e); parity of e fixes the sign
        parity = const
        exps = [0] * self.nsyms
        for param, coeff in terms.items():
            parity += coeff * self.bits[param]
            exps[self.axes[param]] -= coeff
        coeff_scalar = phi_pow(-const)
        if parity & 1:
            coeff_scalar = -coeff_scalar
        return LaurentPoly.monomial(tuple(exps), coeff_scalar)

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

    def sign_value(self, arg: Node) -> int:
        parity = _eval_index(arg, self.bits, "sign() exponent") & 1
        return -1 if parity else 1

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
            return self.to_poly(node.left) * self.to_poly(node.right)
        if isinstance(node, Pow):
            e = _eval_index(node.exponent, {}, "power exponent")
            if e < 0:
                raise SymbolicError(f"power exponent {e} is negative")
            return self.to_poly(node.base) ** e
        if isinstance(node, SeqRef):
            return self.seq_poly(node.kind, node.arg)
        if isinstance(node, Binom):
            top = _eval_index(node.top, {}, "binom() argument")
            bottom = _eval_index(node.bottom, {}, "binom() argument")
            return self.constant(_bi(top, bottom))
        if isinstance(node, Sign):
            return self.constant(self.sign_value(node.arg))
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
            acc = LaurentPoly(self.nsyms)
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
    lhs = substitute(identity.lhs, fixed)
    rhs = substitute(identity.rhs, fixed)
    axes = {p: i for i, p in enumerate(free)}
    names = (*_AXIS_NAMES[:len(free)], *_SEED_NAMES)

    failures: list[Failure] = []
    for bit_tuple in itertools.product((0, 1), repeat=len(free)):
        case = _Case(axes, dict(zip(free, bit_tuple)))
        residual = case.to_poly(lhs) - case.to_poly(rhs)
        if not residual.is_zero():
            failures.append(Failure(
                point=tuple(zip(free, bit_tuple)),
                seed=None,
                lhs=residual.text(names),
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
            "axes": {_AXIS_NAMES[i]: p for p, i in axes.items()},
        },
        total=2 ** len(free),
        failures=failures,
        elapsed_ms=elapsed,
    )
