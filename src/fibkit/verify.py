"""Exact evaluation of identity sides and grid verification.

A grid compiles into one sweep: a generated loop nest over the grid's
parameters in which every subexpression is computed in the shallowest
loop that binds everything it reads. The seeds are not a loop: a side
that reads no G is evaluated once per point for all of them, and sides
linear in G are evaluated on two basis seeds, from which every requested
seed's values follow by linear combination. The two basis pairs of sides
are written side by side in one pass: each sum is one loop with one
total per pair, and a summand that reads the summation index but not G
is computed once per index value inside that loop. When some parameter s
loops and both sides read it only as s + (terms without s) inside G
indices, every G index so, such a side is a fixed linear combination of
values G(s + d), so along s it obeys G's own recurrence
X(s + 1) = X(s) + X(s - 1). The sweep then loops s innermost and
evaluates the basis pairs once per line of s, at z, the value of s's
range nearest 0: as B10(e) = B01(e - 1), they are the sides on the seed
(0, 1) at z - 1 and at z. The sweep has no loop over s: it hands a
line's start pairs to _walk, one plain function, which steps them back
from z to the line's first value and along the line, one addition or
subtraction per side and step. Every value on a line follows from its
start pairs, so a line whose start pairs agree passes without a walk;
without a shift, each point whose pairs differ is walked. With the
oracle, the same sweep walks every line and point: the walk appends each
point's values for every seed to one flat list, and a batch of points at
a time is compared with the oracle's values, laid out alike, as one
list. Only the start pairs read tables. The loops run in declared order,
fixed parameters first and s innermost. Each side is read once into a
term tree whose nodes hold what the plans, the boxes and the sweep's
code read.
Without the oracle, a grid is swept over its boxes first, one per rank
value: in each, every parameter but the ranks is cut to its values
nearest 0, as many as LHS - RHS has exponential bases along it at that
rank value (see _box), so boxes that pass at every point and seed are a
grid that passes. Along a shift parameter there are two bases, phi and
psi, and its two values nearest 0 hold the z of its whole range. On a
failure or an evaluation error in a box, the whole grid is swept, so
the failures and errors reported are the whole grid's. A grid's trees,
plans, loop order, boxes, one compiled sweep and, once an oracle call has
built them, the oracle's evaluators over its own tables are kept in one
entry per identity and grid.
Every table computes a value when it is first read, by the recurrence
from two held neighbours or else by one fast-doubling walk, and holds
only the indices read and the one above each walk (see _Lazy), so a far
or widely spaced read costs its own indices and not the span between
them. A verify command holds
one F table and one L table in its state (see _State), read by each of
its grids and dropped when it returns; a call without a state makes its
own. G on the basis seeds is F one index back and F itself, and a
per-seed pass reads a table of its own seed. The sweep is the only
generated code: a side's value at one point, and the first point where
an evaluation error arises, come from the sweep of the grid with every
parameter at 0 and the seed (0, 1), which runs at any one point. All
arithmetic is unbounded int; a PASS means exact equality at every point
and seed.
"""

from __future__ import annotations

import itertools
import time
from functools import lru_cache
from math import comb, prod
from typing import (
    Any, Callable, Iterable, Iterator, Mapping, NamedTuple, NoReturn, Sequence,
)

from .catalog import Identity
from .errors import EvalError, GridError, InternalFault
from .expr import (
    SEQ_KINDS, Add, Binom, Lit, Mul, Neg, Node, Pow, Pow5Floor, SeqRef, Sign, Sub, Sum, Sym,
    affine, children,
)
from .record import Record
from .report import Failure, VerifyReport
from .seq import FIB_SEED, LUCAS_SEED, Seed, gen_pair

__all__ = [
    "ParamPoint", "GridSpec",
    "eval_side", "verify_grid", "STANDARD_SEEDS", "MAX_GRID_CHECKS",
]

STANDARD_SEEDS = (Seed(0, 1), Seed(2, 1), Seed(3, 7), Seed(-4, 5))

Interval = tuple[int, int]  # inclusive bounds


class ParamPoint(Record):
    """Concrete integer assignment for an identity's parameters plus the G seed."""

    __slots__ = _fields = ("values", "seed")

    def __init__(self, values: Mapping[str, int], seed: Seed = FIB_SEED):
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "seed", seed)


# Largest grid, in checks (points times seeds), that a GridSpec accepts.
MAX_GRID_CHECKS = 100_000_000


class GridSpec(Record):
    """Inclusive per-parameter ranges and the seeds to sweep. The count of
    checks over all its parameters is kept from when it is made."""

    _fields = ("ranges", "seeds")
    __slots__ = (*_fields, "_checks")

    def __init__(self, ranges: Mapping[str, Interval], seeds: tuple[Seed, ...] = STANDARD_SEEDS):
        object.__setattr__(self, "ranges", ranges)
        object.__setattr__(self, "seeds", seeds)
        for name, (lo, hi) in ranges.items():
            if lo > hi:
                raise GridError(f"empty range {lo}..{hi} for parameter '{name}'")
        if not seeds:
            raise GridError("GridSpec needs at least one seed")
        checks = prod(hi - lo + 1 for lo, hi in ranges.values()) * len(seeds)
        if checks > MAX_GRID_CHECKS:
            raise GridError(f"grid has {checks:,} checks (points times seeds), "
                            f"over the limit of {MAX_GRID_CHECKS:,}")
        object.__setattr__(self, "_checks", checks)

    def checks(self, params: Sequence[str]) -> int:
        """Points over params times seeds, counted without building any."""
        ranges = self.ranges
        if len(params) == len(ranges) and ranges.keys() == set(params):
            return self._checks
        return prod(hi - lo + 1 for lo, hi in (ranges[p] for p in params)) * len(self.seeds)

    def points(self, params: Sequence[str]) -> Iterator[tuple[int, ...]]:
        """Points over params, one at a time, in lexicographic order."""
        return itertools.product(*(range(lo, hi + 1)
                                   for lo, hi in (self.ranges[p] for p in params)))


# --- what the generated code calls -----------------------------------------

def _bi(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def _pw(base: int, e: int) -> int:
    if e < 0:
        raise EvalError(f"negative exponent {e} in power")
    return base ** e


def _p5(e: int) -> int:
    if e < 0:
        raise EvalError(f"pow5floor argument {e} is negative")
    return 5 ** (e // 2)


def _rng(lo: int, hi: int) -> range:
    if lo > hi + 1:
        raise EvalError(f"sum bounds {lo}..{hi} are inverted")
    return range(lo, hi + 1)


def _walk(head: tuple, tail: tuple, axis: range | None, z: int, l0: int, l1: int, r0: int,
          r1: int, seeds: Sequence, basis: bool, fail: list, check: _OracleCheck | None) -> None:
    """Check the points head + (s,) + tail of a line, s in axis, or the one
    point head when axis is None, from each side's pair (X(s - 1), X(s)) at
    s = z. Along s, X(s + 1) = X(s) + X(s - 1): the pairs step back from z
    to the line's first value, then take one addition per side and step.
    On a basis plan a seed's value is g0*X(s - 1) + g1*X(s), else X(s).
    Failures (point, seed index, lhs, rhs) go to fail in line and seed
    order. Without a check, a point whose pairs agree is passed over; with
    one, every value goes to check.held, and check.flush() is called after
    a point's last seed once held has check.cap values or more."""
    if axis is None:
        axis = (None,)
    else:
        for _ in range(z - axis[0]):
            l0, l1, r0, r1 = l1 - l0, l0, r1 - r0, r0
    held = check.held if check else None
    for s in axis:
        if basis:
            if check or l0 != r0 or l1 != r1:
                point = None  # made on the point's first failure
                for si, g0, g1 in seeds:
                    lv, rv = g0 * l0 + g1 * l1, g0 * r0 + g1 * r1
                    if check:
                        held += (lv, rv)
                    if lv != rv:
                        point = point or (head if s is None else head + (s,) + tail)
                        fail.append((point, si, lv, rv))
        else:
            if check:
                held += (l1, r1) * len(seeds)
            if l1 != r1:
                point = head if s is None else head + (s,) + tail
                for si in seeds:
                    fail.append((point, si, l1, r1))
        if check and len(held) >= check.cap:
            check.flush()
        l0, l1, r0, r1 = l1, l0 + l1, r1, r0 + r1


_COMPILE_GLOBALS = {
    "__builtins__": {},
    "max": max,
    "min": min,
    "sum": sum,
    "zip": zip,
    "_bi": _bi,
    "_pw": _pw,
    "_p5": _p5,
    "_rng": _rng,
    "_walk": _walk,
}


def _op_code(node: Node, args: Sequence[str], back: bool) -> str:
    """Python for one operator node, given the code of its children; with
    back, G is read one index back in its table."""
    if isinstance(node, Add):
        return f"({args[0]} + {args[1]})"
    if isinstance(node, Sub):
        return f"({args[0]} - {args[1]})"
    if isinstance(node, Neg):
        return f"(-{args[0]})"
    if isinstance(node, Mul):
        return f"({args[0]} * {args[1]})"
    if isinstance(node, Pow):
        # the base in parentheses: -1 ** m is -(1 ** m) in Python
        base, e = args
        if isinstance(node.exponent, Lit) and node.exponent.value >= 0:
            return f"({base}) ** {e}"
        if e.isidentifier():  # _pw only to raise on a negative exponent
            return f"(({base}) ** {e} if {e} >= 0 else _pw({base}, {e}))"
        return f"_pw({base}, {e})"
    if isinstance(node, SeqRef):
        return f"_{node.kind}[{args[0]}{' - 1' if back and node.kind == 'G' else ''}]"
    if isinstance(node, Binom):
        return f"_bi({args[0]}, {args[1]})"
    if isinstance(node, Sign):
        return f"(-1 if ({args[0]}) & 1 else 1)"
    if isinstance(node, Pow5Floor):
        return f"_p5({args[0]})"
    raise TypeError(f"unknown node {node!r}")


class _Lazy(dict):
    """One seed's sequence as a table that computes a value when it is
    first read: by the recurrence from the two values held just below or
    just above it, else by seq.gen_pair, one fast-doubling walk, which
    also gives the value above it to hold, so that reads next to a far one
    take no walk of their own. It holds only the indices read and those
    values above them, however far apart they lie."""

    __slots__ = ("seed",)

    def __init__(self, seed: Seed):
        super().__init__()
        self.seed = seed

    def __missing__(self, e: int) -> int:
        get = self.get
        a, b = get(e - 2), get(e - 1)
        if a is not None and b is not None:
            value = a + b
        else:
            a, b = get(e + 1), get(e + 2)
            if a is not None and b is not None:
                value = b - a
            else:
                value, self[e + 1] = gen_pair(self.seed, e)
        self[e] = value
        return value


class _State:
    """What one verify command reuses from grid to grid: one F table and
    one L table, each filled as it is read (see _Lazy). The command makes
    it and drops it when it returns; a library call makes its own."""

    __slots__ = ("f_tab", "l_tab")

    def __init__(self) -> None:
        self.f_tab, self.l_tab = _Lazy(FIB_SEED), _Lazy(LUCAS_SEED)


# --- grid sweeps ------------------------------------------------------------
#
# A sweep runs a whole grid as one generated loop nest over the identity's
# parameters. A parameter with one value is bound once at the top; each
# other one is a loop. Every subexpression is computed in the shallowest
# loop that binds all it reads. Inside a sum, a term that reads the
# summation index but not the inner loops becomes a list over the index,
# built once in the outer loop where it is fixed; the sum itself zips
# those lists.
#
# The seeds are not a loop. A sweep evaluates one or two pairs of sides in
# one pass: one pair per basis seed, each reading G in F at its own offset.
# The pairs are written side by side: a term that reads no G is computed
# once for both, and a sum is one loop with one total per pair. The plan
# (see _plans) says which requested seeds the pairs' values stand for.

# CPython compiles at most 20 statically nested blocks: one per loop here,
# and one for a sum's loop inside them. A shift parameter counts as a loop,
# though its line is walked by _walk, outside the sweep.
_MAX_LOOPS = 19


class _Term(NamedTuple):
    """One subexpression occurrence and the facts that plan its grid.

    deps holds the parameters it reads and, inside a sum body, those its
    sum's bounds read, since a body term is computed only once its sum's
    range is known. kdep says whether it reads the summation index. reads
    holds every symbol it reads, a summation index included, and a sum
    reads its own index; kinds holds the sequence kinds it reads. degree
    is its degree in G, 0 or 1, or None when it is not homogeneous (a sum
    of terms with different numbers of G factors, or a term with two or
    more). form is a sequence ref's index as expr.affine reads it, else
    None.
    """

    node: Node
    deps: frozenset[str]
    kdep: bool
    reads: frozenset[str]
    kinds: frozenset[str]
    degree: int | None
    form: tuple[int, dict[str, int], frozenset[str]] | None
    args: tuple["_Term", ...]


_NONE: frozenset[str] = frozenset()
_KINDS = {kind: frozenset((kind,)) for kind in SEQ_KINDS}


@lru_cache(maxsize=1024)
def _shared(names: frozenset[str]) -> frozenset[str]:
    """The one kept set equal to names: a tree holds several sets per term,
    and the trees of a process share them."""
    return names


def _terms(node: Node, params: Sequence[str],
           body: tuple[str, frozenset[str]] | None = None) -> _Term:
    """The term tree of a side; body is (index name, bounds' deps) in a sum.
    The parser keeps sequence refs out of every index, bound and exponent."""
    floor = body[1] if body else _NONE
    kind = type(node)
    if kind is Lit:
        return _Term(node, floor, False, _NONE, _NONE, 0, None, ())
    if kind is Sym:
        reads = _shared(frozenset((node.name,)))
        if body and node.name == body[0]:
            return _Term(node, floor, True, reads, _NONE, 0, None, ())
        if node.name not in params:
            raise EvalError(f"symbol '{node.name}' has no value")
        return _Term(node, _shared(floor | reads), False, reads, _NONE, 0, None, ())
    if kind is Sum:
        if body is not None:  # the parser refuses these; only a hand-built AST has one
            raise EvalError("nested sums are not supported")
        lo, hi = _terms(node.lo, params), _terms(node.hi, params)
        if lo.kinds or hi.kinds:  # a ref in a bound: only a hand-built AST has one
            bound = lo if lo.kinds else hi
            while type(bound.node) in (Add, Sub, Mul, Neg):
                bound = next(arg for arg in bound.args if arg.kinds)
            raise EvalError(f"cannot bound non-index expression node {type(bound.node).__name__}")
        inner = _terms(node.body, params, (node.var, lo.deps | hi.deps))
        return _Term(node, inner.deps, False, inner.reads | lo.reads | hi.reads | {node.var},
                     inner.kinds, inner.degree, None, (lo, hi, inner))
    # every other node has one or two children, whose deps hold floor
    args = tuple(_terms(child, params, body) for child in children(node))
    first, second = args[0], args[-1]
    deps, reads = _shared(first.deps | second.deps), _shared(first.reads | second.reads)
    kdep, kinds = first.kdep or second.kdep, _shared(first.kinds | second.kinds)
    if kind is SeqRef:
        try:
            form = affine(node.arg)
        except TypeError as exc:  # a hand-built index, such as F(G(m))
            raise EvalError(str(exc)) from None
        return _Term(node, deps, kdep, reads, _KINDS[node.kind], int(node.kind == "G"), form,
                     args)
    if not kinds:  # an index, or a term of indices: no sequence ref below
        degree = 0
    elif kind is Add or kind is Sub or kind is Neg:
        degree = first.degree if first.degree == second.degree else None
    elif kind is Mul:
        degree = None if first.degree is None or second.degree is None \
            or first.degree + second.degree > 1 else first.degree + second.degree
    else:  # a power
        degree = 0 if first.degree == 0 else None
    return _Term(node, deps, kdep, reads, kinds, degree, None, args)


def _sides(identity: Identity) -> tuple[_Term, _Term]:
    """The term trees of both sides, each built once per grid entry."""
    params = identity.free_params
    return _terms(identity.lhs, params), _terms(identity.rhs, params)


def _shifts(term: _Term, s: str) -> bool:
    """Whether term reads s only inside G indices, each with coefficient 1
    outside the index's rest, and every G index in it reads s so."""
    if "G" not in term.kinds:
        return s not in term.reads
    if term.form is not None:  # a ref of G
        _, coeffs, rest = term.form
        return coeffs.get(s) == 1 and s not in rest
    if type(term.node) is Sum and term.node.var == s:  # a hand-built sum's index hides s
        return False
    return all(_shifts(arg, s) for arg in term.args)


def _shift_axis(identity: Identity, spec: GridSpec, sides: Sequence[_Term]) -> str | None:
    """The first parameter s that takes more than one value and that both
    sides, linear in G, read only as s + (terms that do not read s) inside
    every G index; None when there is none. Such a side is a fixed linear
    combination of values G(s + d), so along s it obeys G's recurrence
    X(s + 1) = X(s) + X(s - 1)."""
    return next((p for p in identity.free_params if spec.ranges[p][0] < spec.ranges[p][1]
                 and all(_shifts(side, p) for side in sides)), None)


class _Plan(NamedTuple):
    """One pass of a sweep over the grid.

    G(e) = g0*B10(e) + g1*B01(e) at every integer e, where B10 and B01 are
    the sequences seeded (1, 0) and (0, 1): B10(e) = F(e - 1), B01 = F.
    With basis, seeds holds (index, g0, g1) of every requested seed, whose
    values follow from the sides' values on B10 and B01, evaluated both.
    Without, seeds holds the indices of the requested seeds whose values
    the one pair of sides gives, on seed's G table, or reading no G when
    seed is None. A basis plan may have a shift (see _shift_axis): the
    sides obey the Fibonacci recurrence along it, so both pairs are
    evaluated once per line of shift, at its value nearest 0, and a line
    whose two start pairs agree passes at every point without a walk.
    """

    basis: bool
    seed: Seed | None
    seeds: tuple[tuple[int, int, int] | int, ...]
    shift: str | None = None


def _plans(identity: Identity, spec: GridSpec, sides: Sequence[_Term]) -> list[_Plan]:
    """The passes that cover every requested seed: one pass for all seeds
    when neither side reads G, one on the basis when both sides are linear
    in G and there are at least two distinct seeds, else one pass per
    distinct seed, on its own G table. Only the basis pass may have a
    shift (see _shift_axis).
    """
    seeds = spec.seeds
    degrees = {side.degree for side in sides}
    if degrees == {0}:
        return [_Plan(False, None, tuple(range(len(seeds))))]
    groups: dict[Seed, list[int]] = {}
    for i, seed in enumerate(seeds):
        groups.setdefault(seed, []).append(i)
    if degrees == {1} and len(groups) >= 2:  # as many as basis seeds
        coeffs = tuple((i, s.g0, s.g1) for i, s in enumerate(seeds))
        return [_Plan(True, None, coeffs, _shift_axis(identity, spec, sides))]
    return [_Plan(False, seed, tuple(group)) for seed, group in groups.items()]


# --- the box -----------------------------------------------------------------
#
# At fixed rank values, a side is, along each other parameter x, a sum of
# terms P(x)*b^x with P a polynomial and each base b = sign*phi^e, since
# F(a*x + c) and L(a*x + c) are sums of phi^(a*x) and psi^(a*x) times
# constants, with psi^a = (-1)^a * phi^-a, and G(e) = g0*F(e - 1) + g1*F(e).
# A base whose P has degree d counts d + 1 times. LHS - RHS is such a sum
# over the union of both sides' bases, so it obeys the linear recurrence
# whose characteristic roots are those bases, none of them 0: if it
# vanishes at as many consecutive values of x as the bases count, it
# vanishes at every integer x (Zeilberger, The C-finite Ansatz, 2013); a
# literal 0 has no base. Any such run will do, so the box takes the one
# nearest 0, whose indices and integers are the smallest. Taken one axis
# at a time, boxes that are that wide along every axis, one per rank
# value, each as wide as its own rank value needs, pass only if the whole
# grid does.

class _Full(Exception):
    """The axis is swept in full."""


# The most work, in _Limit's units, that the analysis of one grid may take:
# about 0.2 s on a 2-core machine with Python 3.11.
_MAX_WORK = 500_000


class _Limit:
    """How many bases an axis may count before it is swept in full, and how
    much work, in base products, index values and rank values, the
    analysis of a grid has left."""

    __slots__ = ("cap", "work")

    def __init__(self, work: int):
        self.cap, self.work = 0, work

    def charge(self, work: int) -> None:
        self.work -= work
        if self.work < 0:
            raise _Full


_Bases = dict[tuple[int, int], int]  # (sign, e) of sign*phi^e -> its count
_ONE: _Bases = {(1, 0): 1}
_ZERO: _Bases = {}  # a literal 0: no term at all


def _capped(bases: _Bases, lim: _Limit) -> _Bases:
    if sum(bases.values()) >= lim.cap:
        raise _Full
    return bases


def _union(a: _Bases, b: _Bases, lim: _Limit) -> _Bases:
    out = dict(a)
    for base, count in b.items():
        if out.get(base, 0) < count:
            out[base] = count
    return _capped(out, lim)


def _times(a: _Bases, b: _Bases, lim: _Limit) -> _Bases:
    """The bases of a product: signs multiply, exponents add, and the
    polynomials' degrees add; none when a factor has none."""
    if not a or not b:
        return _ZERO
    if a == _ONE or b == _ONE:
        return b if a == _ONE else a
    lim.charge(len(a) * len(b))
    out: _Bases = {}
    for (s, e), m in a.items():
        for (t, f), n in b.items():
            if out.get((s * t, e + f), 0) < m + n - 1:
                out[s * t, e + f] = m + n - 1
    return _capped(out, lim)


def _power(a: _Bases, e: int, lim: _Limit) -> _Bases:
    out = _ONE
    while e:
        if e & 1:
            out = _times(out, a, lim)
        e >>= 1
        if e:
            a = _times(a, a, lim)
    return out


def _form(node: Node, env: Mapping[str, int]) -> tuple[int, dict[str, int], frozenset[str]]:
    try:
        return affine(node, env)
    except TypeError:  # not an index expression
        raise _Full from None


def _value(term: _Term, env: Mapping[str, int], used: set[str]) -> int:
    """The value of an index term whose every symbol env binds."""
    if term.kinds or not term.reads.issubset(env):
        raise _Full
    used |= term.reads
    return _form(term.node, env)[0]


def _slope(index: _Term, form: tuple | None, x: str, env: Mapping[str, int],
           used: set[str]) -> int:
    """The coefficient of x in an index term, read from its unbound form
    when x is outside that form's rest, else with env's values in place."""
    if form is None or x in form[2]:
        form = _form(index.node, env)
        used |= index.reads
        if x in form[2]:
            raise _Full
    return form[1].get(x, 0)


def _bases(term: _Term, x: str, env: Mapping[str, int], lim: _Limit, used: set[str],
           ) -> _Bases:
    """The bases of term along x, with the rank parameters and a summation
    index at their values in env; the names of env read are added to used.
    Raises _Full on a shape that is no such sum along x, once the bases
    count lim.cap or more, or once lim's work is spent."""
    kind = type(term.node)
    if x not in term.reads:
        return _ZERO if kind is Lit and term.node.value == 0 else _ONE
    if kind is Sym:
        return {(1, 0): 2}
    if kind is SeqRef:
        a = _slope(term.args[0], term.form, x, env, used)
        return {(1, a): 1, (-1 if a & 1 else 1, -a): 1}
    if kind is Sign:
        return {(-1 if _slope(term.args[0], None, x, env, used) & 1 else 1, 0): 1}
    if kind is Neg:
        return _bases(term.args[0], x, env, lim, used)
    if kind is Add or kind is Sub or kind is Mul:
        first = _bases(term.args[0], x, env, lim, used)
        second = _bases(term.args[1], x, env, lim, used)
        return (_times if kind is Mul else _union)(first, second, lim)
    if kind is Pow:
        base, exponent = term.args
        e = _value(exponent, env, used)
        if e < 0:
            raise _Full
        return _power(_bases(base, x, env, lim, used), e, lim)
    if kind is Sum:
        lo, hi, body = term.args
        out: _Bases = {}
        for k in range(_value(lo, env, used), _value(hi, env, used) + 1):
            lim.charge(1)
            inner: set[str] = set()
            out = _union(out, _bases(body, x, {**env, term.node.var: k}, lim, inner), lim)
            used |= inner
            if term.node.var not in inner:  # the same at every index value
                break
        return out
    raise _Full  # binom and pow5floor


def _widths(identity: Identity, spec: GridSpec, sides: Sequence[_Term], axes: Iterable[str],
            lim: _Limit) -> dict[tuple[int, ...], dict[str, int]]:
    """How many consecutive values of each parameter in axes decide the
    grid at each rank value, keyed by the rank parameters' values in
    order: the bases of LHS - RHS along it there, counted, and at least
    one; or its range's length, when that is no more, when the shape is no
    such sum there, or from where lim's work is spent."""
    ranks = identity.rank_params
    widths: dict[tuple[int, ...], dict[str, int]] = {
        values: {} for values in itertools.product(*(range(lo, hi + 1) for lo, hi in
                                                     (spec.ranges[r] for r in ranks)))}
    for x in axes:
        lo, hi = spec.ranges[x]
        lim.cap = hi - lo + 1
        for values, row in widths.items():
            env, used = dict(zip(ranks, values)), set()
            try:
                lim.charge(1)
                lhs, rhs = (_bases(side, x, env, lim, used) for side in sides)
                row[x] = max(1, sum(_union(lhs, rhs, lim).values()))
            except _Full:
                row[x] = lim.cap
                continue
            if used.isdisjoint(ranks):  # the same at every rank value
                for other in widths.values():
                    other.setdefault(x, row[x])
                break
    return widths


def _nearest_zero(bounds: Interval, width: int) -> Interval:
    """The width consecutive values of bounds closest to 0, the lower one
    on a tie; bounds has at least width values."""
    lo, hi = bounds
    start = min(max(lo, -(width // 2)), hi - width + 1)
    return start, start + width - 1


def _box(identity: Identity, spec: GridSpec, sides: Sequence[_Term], order: Sequence[str],
         ) -> list[list[range]] | None:
    """One box per rank value, as the ranges of order's parameters; None
    when no axis is cut. In the box of a rank value, each parameter but the
    ranks is cut to its _widths values there nearest 0: any run that long
    decides the axis, and this one reads the smallest indices. A shift
    parameter has two bases, phi and psi, and its two values nearest 0
    start its line at the same value as its whole range does (see _walk).
    The analysis takes at most as much work as the grid has checks, and
    never more than _MAX_WORK."""
    params, ranks = identity.free_params, identity.rank_params
    axes = [p for p in params if p not in ranks and spec.ranges[p][0] < spec.ranges[p][1]]
    widths = _widths(identity, spec, sides, axes, _Limit(min(spec.checks(params), _MAX_WORK)))
    if all(width > spec.ranges[p][1] - spec.ranges[p][0]
           for row in widths.values() for p, width in row.items()):
        return None
    boxes = []
    for values, row in widths.items():
        ranges = {p: spec.ranges[p] for p in params}
        ranges.update((r, (v, v)) for r, v in zip(ranks, values))
        ranges.update((p, _nearest_zero(ranges[p], width)) for p, width in row.items())
        boxes.append([range(lo, hi + 1) for lo, hi in (ranges[p] for p in order)])
    return boxes


def _axis(spec: GridSpec, param: str) -> range:
    lo, hi = spec.ranges[param]
    return range(lo, hi + 1)


def _loop_order(identity: Identity, spec: GridSpec, plan: _Plan,
                ) -> tuple[tuple[str, ...], int]:
    """The parameters, outermost first, and how many of them lead as fixed
    values before the first loop: the fixed ones, then the others in
    declared order, with the plan's shift parameter innermost. There the
    basis pairs are evaluated once per line, at the line's value nearest
    0; G's recurrence gives the sides at every other step."""
    params = identity.free_params
    fixed = tuple(p for p in params if spec.ranges[p][0] == spec.ranges[p][1])
    loops = tuple(p for p in params if p not in fixed and p != plan.shift)
    loops += (plan.shift,) if plan.shift else ()
    if len(loops) > _MAX_LOOPS:
        raise GridError(f"grid varies {len(loops)} parameters; "
                        f"a sweep nests at most {_MAX_LOOPS} loops")
    return fixed + loops, len(fixed)


class _Body(NamedTuple):
    name: str   # the summation index's Python name
    rng: str    # the Python variable holding the sum's range
    level: int  # the level of the sum's loop
    shared: dict[str, str]  # code -> local name, computed once per index value


# One code per pair of sides, with the lists it reads as list name ->
# element name.
_Codes = tuple[tuple[str, dict[str, str]], ...]


class _SweepWriter:
    """Statements per loop level; each computed term lands at its rank, the
    pair (level of the deepest loop it reads, whether it reads the index).

    The pairs of sides are written side by side: a term's code is one
    string per pair, where pair j reads G one index back when backs[j],
    and every pair reads each parameter by its name in names. A shift
    parameter, bound to its lines' start value before the first loop,
    counts as the level of the loop that encloses its own, where the start
    pairs are evaluated. Code that all pairs share is one variable:
    assigned in a shallower loop, or, when a term's pairs differ, at that
    term's level, or once per index value in its sum's loop.
    """

    def __init__(self, order: Sequence[str], backs: Sequence[bool], names: Mapping[str, str],
                 shift: str | None):
        self.level = {v: i + 1 for i, v in enumerate(order)}
        if shift:
            self.level[shift] = len(order) - 1
        self.backs, self.names = backs, names
        self.lines: list[list[str]] = [[] for _ in range(len(order) + 1)]
        self.temps: dict[str, str] = {}
        self.loops: dict[str, dict[str, str]] = {}  # a loop's text -> its totals
        self.count = itertools.count()

    def rank(self, term: _Term) -> tuple[int, bool]:
        return max((self.level[v] for v in term.deps), default=0), term.kdep

    def temp(self, code: str, level: int, body: _Body | None = None) -> str:
        """A variable assigned code at level; the same code shares one. In
        a sum's body, code is evaluated only where the sum is not empty."""
        if body is not None:
            code = f"{code} if {body.rng} else 0"
        var = self.temps.get(code)
        if var is None:
            var = self.temps[code] = f"_t{next(self.count)}"
            self.lines[level].append(f"{var} = {code}")
        return var

    def totals(self, codes: Sequence[str], clause: str, body: _Body, level: int) -> list[str]:
        """Variables summing each code over the loop clause, at level: one
        loop, with body's shared terms first and one total per distinct
        code."""
        shared = [f"{var} = {code}" for code, var in body.shared.items()]
        key = "\n".join([clause, *shared, *codes])
        totals = self.loops.get(key)
        if totals is None:
            totals = self.loops[key] = {code: f"_t{next(self.count)}" for code in codes}
            self.lines[level] += [*(f"{var} = 0" for var in totals.values()), f"{clause}:",
                                  *("    " + line for line in shared),
                                  *(f"    {var} += {code}" for code, var in totals.items())]
        return [totals[code] for code in codes]

    @staticmethod
    def each(body: _Body, lists: Mapping[str, str]) -> str:
        """The clause walking a sum's range through the lists read; the
        range itself is the list of index values."""
        lists = lists or {body.rng: body.name}
        if len(lists) == 1:
            ((seq, elem),) = lists.items()
            return f"for {elem} in {seq}"
        return f"for {', '.join(lists.values())} in zip({', '.join(lists)})"

    def code(self, term: _Term, body: _Body | None) -> _Codes:
        """Python for term at its own rank, per pair."""
        node = term.node
        if isinstance(node, Lit):
            return ((repr(node.value), {}),) * len(self.backs)
        if isinstance(node, Sym):
            if term.kdep:
                return ((body.name, {body.rng: body.name}),) * len(self.backs)
            return ((self.names[node.name], {}),) * len(self.backs)
        if isinstance(node, Sum):
            lo, hi, inner = term.args
            bounds = max(self.rank(lo), self.rank(hi))
            # bounds read no G: all pairs alike
            rng = self.temp(f"_rng({self.place(lo, bounds, None)[0][0]}, "
                            f"{self.place(hi, bounds, None)[0][0]})", bounds[0])
            level = self.rank(term)[0]
            body = _Body(f"k_{node.var}", rng, level, {})
            codes = self.place(inner, (level, True), body)
            lists = {seq: elem for _, used in codes for seq, elem in used.items()}
            if len(lists) == 1 and {code for code, _ in codes} == {*lists.values()}:
                return ((self.temp(f"sum({next(iter(lists))})", level), {}),) * len(self.backs)
            totals = self.totals([c for c, _ in codes], self.each(body, lists), body, level)
            return tuple((var, {}) for var in totals)
        rank = self.rank(term)

        def each_pair(args: list[_Codes]) -> _Codes:
            return tuple((_op_code(node, [a[j][0] for a in args], back),
                          {seq: elem for a in args for seq, elem in a[j][1].items()})
                         for j, back in enumerate(self.backs))

        args = [self.place(arg, rank, body) for arg in term.args]
        codes = each_pair(args)
        if len({code for code, _ in codes}) == 1:
            return codes
        return each_pair([self.share(arg, arg_codes, rank, body)
                          for arg, arg_codes in zip(term.args, args)])

    def share(self, term: _Term, codes: _Codes, rank: tuple[int, bool],
              body: _Body | None) -> _Codes:
        """codes of a term read at rank under a term whose pairs differ: a
        name computed once for all pairs when the pairs read it alike."""
        code, lists = codes[0]
        if any(c != code for c, _ in codes) or code.isidentifier() \
                or isinstance(term.node, Lit):
            return codes
        if term.kdep:
            if rank[0] != body.level:  # in a list, built outside the sum's loop
                return codes
            var = body.shared.setdefault(code, f"_u{len(body.shared)}")
            return ((var, lists),) * len(codes)
        return ((self.temp(code, rank[0], body), {}),) * len(codes)

    def place(self, term: _Term, rank: tuple[int, bool], body: _Body | None) -> _Codes:
        """Python for term as read by a term of the given rank: inline when
        the ranks match or it is a name or literal, else a variable
        assigned in a shallower loop."""
        codes = self.code(term, body)
        own = self.rank(term)
        if own == rank or isinstance(term.node, Lit) \
                or all(code.isidentifier() for code, _ in codes):
            return codes
        if term.kdep:
            out = []
            for code, lists in codes:
                var = self.temp(f"[{code} {self.each(body, lists)}]", own[0])
                out.append((f"_e{var[2:]}", {var: f"_e{var[2:]}"}))
            return tuple(out)
        return tuple((self.temp(code, own[0], body), {}) for code, _ in codes)


def _sweep_source(identity: Identity, grid: _Grid) -> str:
    params, order, fixed = identity.free_params, grid.order, grid.fixed
    basis, shift = grid.plans[0].basis, grid.plans[0].shift
    names = {p: f"v{i}" for i, p in enumerate(params)}
    # on the basis, B10(e) = F(e - 1), then B01(e) = F(e): with a shift s,
    # the sides on B01 at s = z - 1, then at z
    backs = (True, False) if basis else (False,)
    writer = _SweepWriter(order, backs, names, shift)
    start = len(order) - 1 if shift else len(order)
    lhs, rhs = (writer.place(side, (start, False), None) for side in grid.sides)
    for j in range(len(backs)):
        writer.lines[start] += [f"_l{j} = {lhs[j][0]}", f"_r{j} = {rhs[j][0]}"]
    axes = [f"_a{j}" for j in range(len(order))]
    # the point's parameters before and after the shift parameter, if any
    i = params.index(shift) if shift else len(params)
    head, tail = ("(" + "".join(f"{names[p]}, " for p in ps) + ")"
                  for ps in (params[:i], params[i + 1:]))
    walk = f"{head}, {tail}, " + (f"{axes[-1]}, {names[shift]}" if shift else "None, 0")
    values = "_l0, _l1, _r0, _r1" if basis else "0, _l0, 0, _r0"
    # the values of a line, or a point, follow from its start pairs
    writer.lines[start] += [
        "if " + " or ".join(f"_l{j} != _r{j}" for j in range(len(backs))) + " or _check:",
        f"    _walk({walk}, {values}, _S, {basis}, _fail, _check)"]

    out = [f"def _sweep({', '.join([*axes, '_F', '_L', '_G', '_S', '_fail', '_check'])}):"]
    if shift:  # z, the lines' value nearest 0
        out.append(f"    {names[shift]} = min(max({axes[-1]}[0], 0), {axes[-1]}[-1])")
    indent = "    "
    out += [indent + line for line in writer.lines[0]]
    for j, var in enumerate(order[:start]):
        if j < fixed:
            out.append(f"{indent}{names[var]} = {axes[j]}[0]")
        else:
            out.append(f"{indent}for {names[var]} in {axes[j]}:")
            indent += "    "
        out += [indent + line for line in writer.lines[j + 1]]
    return "\n".join(out) + "\n"


# --- grid verification -----------------------------------------------------

def _check_spec_covers(identity: Identity, spec: GridSpec) -> None:
    missing = [p for p in identity.free_params if p not in spec.ranges]
    if missing:
        raise GridError(
            f"grid does not cover parameter(s) {', '.join(missing)} "
            f"of '{identity.name}'")
    for p in identity.rank_params:
        if spec.ranges[p][0] < 0:
            raise GridError(
                f"rank parameter '{p}' of '{identity.name}' must stay >= 0, "
                f"got range {spec.ranges[p][0]}..{spec.ranges[p][1]}")


def _grid_desc(identity: Identity, spec: GridSpec) -> dict[str, Any]:
    return {
        "ranges": {p: list(spec.ranges[p]) for p in identity.free_params},
        "seeds": [[s.g0, s.g1] for s in spec.seeds],
    }


# A sweep hands its oracle checks over in a list that is compared once it
# holds this many checks, two values each; this bounds the memory they hold.
_HELD_CHECKS = 4096


class _OracleCheck:
    """A plan's check against the oracle.

    The sweep's walk (see _walk) appends each point's two values for every
    seed of the plan, in plan.seeds order, to the flat list held, and calls
    flush() after a point's last seed once held has cap values or more; _sweep_grid also
    flushes at the end of the pass and before an evaluation error is
    raised. So held only ever holds whole points, and the points are the
    grid's, in the loop order the sweep walks them: a flush takes as many
    as held covers, evaluates both sides once over them on all the plan's
    distinct seeds at once, lays the oracle's values out as held is laid
    out, and compares the two lists in one step. Only a mismatch is
    scanned, for the first disagreement in sweep order, which raises; so
    do values for more points than are left, and, once the pass has
    ended, a point that no values were handed over for."""

    def __init__(self, identity: Identity, spec: GridSpec, sides: tuple[Any, Any],
                 seeds: list[int], columns: list[int], order: tuple[str, ...]):
        self.identity, self.spec, self.sides = identity, spec, sides
        self.seeds = seeds  # the plan's seed indices, in plan.seeds order
        self.columns = columns  # each one's column in the oracle's values
        self.order = order
        self.points = spec.points(order)  # the points still to compare
        self.held: list[int] = []
        self.cap = 2 * _HELD_CHECKS

    def flush(self) -> None:
        held = self.held
        if not held:
            return
        width = 2 * len(self.seeds)
        points = list(itertools.islice(self.points, len(held) // width))
        if len(points) * width != len(held):
            raise InternalFault(
                f"oracle got {len(held)} values on '{self.identity.name}' "
                f"for {len(points)} points left, {width} each")
        cols = dict(zip(self.order, map(list, zip(*points))))
        lhs, rhs = (side.columns(cols, len(points)) for side in self.sides)
        # held's layout: point by point, each seed's two values in turn
        columns = [column for j in self.columns for column in (lhs[j], rhs[j])]
        expected = list(itertools.chain.from_iterable(zip(*columns)))
        if expected != held:
            self._fault(points, expected)
        held.clear()

    def finish(self) -> None:
        """Compare what is held at the end of a pass, which must have
        handed over every point of the grid."""
        self.flush()
        left = next(self.points, None)
        if left is not None:
            raise InternalFault(
                f"oracle got no values on '{self.identity.name}' from {self._at(left)} on: "
                f"the sweep handed over fewer points than the grid has")

    def _at(self, point: tuple[int, ...]) -> dict[str, int]:
        values = dict(zip(self.order, point))
        return {p: values[p] for p in self.identity.free_params}

    def _fault(self, points: list[tuple[int, ...]], expected: list[int]) -> NoReturn:
        held = self.held
        first = next(i for i, pair in enumerate(zip(expected, held)) if pair[0] != pair[1])
        first -= first % 2
        point, seed = divmod(first // 2, len(self.seeds))
        raise InternalFault(
            f"oracle disagrees with evaluator on '{self.identity.name}' "
            f"at {self._at(points[point])}, seed {self.spec.seeds[self.seeds[seed]]}: "
            f"oracle ({expected[first]}, {expected[first + 1]}) "
            f"vs fast ({held[first]}, {held[first + 1]})")


def _oracle_checks(identity: Identity, spec: GridSpec, grid: _Grid) -> list[_OracleCheck]:
    """One check per plan of grid against the oracle, which evaluates
    columns: the values a sweep hands over are held in one flat list and
    compared with the oracle's in batches, in sweep order (see
    _OracleCheck). Each check is new, over the evaluators the grid's
    first oracle call built and the entry keeps."""
    if not grid.oracle_sides:
        grid.oracle_sides.extend(_oracle_sides(identity, spec, grid))
    return [_OracleCheck(identity, spec, sides, indices, columns, grid.order)
            for sides, indices, columns in grid.oracle_sides]


def _oracle_sides(identity: Identity, spec: GridSpec, grid: _Grid) -> list[tuple]:
    """Each plan's two oracle evaluators, its seed indices, and each
    one's column in the evaluators' values. The oracle's tables are built
    once for the grid; each side's evaluator gives its values on all the
    plan's distinct seeds at once over a batch of points, so a point is
    evaluated once per plan and its seeds' checks read that one
    evaluation."""
    from . import oracle

    tables = oracle.OracleTables(spec.seeds)

    def plan_sides(plan: _Plan) -> tuple:
        indices = [s if isinstance(s, int) else s[0] for s in plan.seeds]
        own = tables.select(spec.seeds[i] for i in indices)
        sides = tuple(oracle.evaluator(side, own) for side in (identity.lhs, identity.rhs))
        column = {seed: j for j, seed in enumerate(own.gen)}
        return sides, indices, [column[spec.seeds[i]] for i in indices]
    return [plan_sides(plan) for plan in grid.plans]


class _Grid(NamedTuple):
    """What a grid's verification keeps: its plans, its loop order, how
    many of its parameters lead fixed, both sides' term trees, its boxes
    (see _box), what the first oracle call built for each plan (see
    _oracle_sides), and its one sweep, fn(*axes, F, L, G, seeds, failures,
    check): a pass of any plan over axes, the ranges of order's
    parameters, with a check (see _OracleCheck) or without."""

    plans: tuple[_Plan, ...]
    order: tuple[str, ...]
    fixed: int
    sides: tuple[_Term, _Term]
    box: list[list[range]] | None
    compiled: list[Callable[..., None]]
    oracle_sides: list[tuple]

    def sweep(self, identity: Identity) -> Callable[..., None]:
        """The grid's one sweep, compiled on the first call."""
        if not self.compiled:
            scope: dict[str, Any] = {}
            exec(compile(_sweep_source(identity, self), "<fibkit>", "exec"),
                 dict(_COMPILE_GLOBALS), scope)
            self.compiled.append(scope["_sweep"])
        return self.compiled[0]


# One entry per identity and grid, keyed by both sides, the free parameters,
# their ranges and the seeds. An entry keeps its boxes, analysed once, its
# one sweep, compiled once for every plan with the oracle and without, and
# the oracle's tables, inside its evaluators, from the grid's first oracle
# call on; the sweep's tables are the command's (see _State) and each
# per-seed pass's own, so the fast path keeps no table per grid. Past
# _CACHED entries the oldest is dropped.
_compile_cache: dict[tuple, _Grid] = {}
_CACHED = 256


def _grid(identity: Identity, spec: GridSpec) -> _Grid:
    """The grid's entry, planned once per identity and grid."""
    params = identity.free_params
    key = (identity.lhs, identity.rhs, params, tuple(tuple(spec.ranges[p]) for p in params),
           spec.seeds)
    grid = _compile_cache.get(key)
    if grid is None:
        sides = _sides(identity)
        plans = tuple(_plans(identity, spec, sides))
        order, fixed = _loop_order(identity, spec, plans[0])
        box = _box(identity, spec, sides, order)
        if len(_compile_cache) >= _CACHED:
            del _compile_cache[next(iter(_compile_cache))]
        grid = _compile_cache[key] = _Grid(plans, order, fixed, sides, box, [], [])
    return grid


def _point_sweep(identity: Identity) -> Callable[..., None]:
    """identity's one-point sweep: the sweep of its grid with every
    parameter at 0 and the one seed (0, 1). Its one pass has no basis and
    no shift, so it runs at any point, on the G table of any one seed."""
    params = identity.free_params
    return _grid(identity, GridSpec(dict.fromkeys(params, (0, 0)), (FIB_SEED,))).sweep(identity)


def _pass(plan: _Plan, sweep: Callable[..., None], axes: Sequence[range], state: _State,
          failures: list, check: _OracleCheck | None = None) -> None:
    """One pass of plan over the axes, on state's F and L tables; a
    per-seed pass reads G from a table of its own seed, the others from F."""
    f_tab = state.f_tab
    g_tab = f_tab if plan.seed is None else _Lazy(plan.seed)
    sweep(*axes, f_tab, state.l_tab, g_tab, plan.seeds, failures, check)


def _sweep_grid(identity: Identity, spec: GridSpec, grid: _Grid, use_oracle: bool,
                state: _State) -> list[tuple[tuple[int, ...], int, int, int]]:
    """Raw failures (point, seed index, lhs, rhs) of the grid, on state's
    tables. Without the oracle, a grid with boxes sweeps them first and
    passes when every plan passes there; on a failure or an evaluation
    error there, the whole grid is swept."""
    plans, sweep = grid.plans, grid.sweep(identity)
    failures: list[tuple[tuple[int, ...], int, int, int]] = []
    if grid.box is not None and not use_oracle:
        try:
            for plan, axes in itertools.product(plans, grid.box):
                _pass(plan, sweep, axes, state, failures)
                if failures:
                    break
            else:
                return failures
        except EvalError:
            pass
        failures.clear()
    axes = [_axis(spec, v) for v in grid.order]
    checks = _oracle_checks(identity, spec, grid) if use_oracle else [None] * len(plans)
    for plan, check in zip(plans, checks):
        try:
            _pass(plan, sweep, axes, state, failures, check)
        except EvalError:
            if check:  # a disagreement at an earlier point wins over the error
                check.flush()
            raise
        if check:
            check.finish()
    return failures


def eval_side(ast: Node, pt: ParamPoint) -> int:
    """Exact value of one identity side at a concrete parameter point: the
    one-point sweep of ast == 0 on the G table of pt's seed fails with
    ast's value or passes at 0."""
    params = tuple(sorted(pt.values))
    identity = Identity("eval_side", ast, Lit(0), params)
    sweep = _point_sweep(identity)
    failures: list[tuple[tuple[int, ...], int, int, int]] = []
    sweep(*((pt.values[p],) for p in params), _Lazy(FIB_SEED), _Lazy(LUCAS_SEED),
          _Lazy(pt.seed), (0,), failures, None)
    return failures[0][2] if failures else 0


def _raise_first_eval_error(identity: Identity, spec: GridSpec, exc: EvalError) -> NoReturn:
    """Raise exc again at the point where point-by-point evaluation meets
    its first error: seeds in order, then points lexicographically.

    Each point runs the identity's one-point sweep, compiled once, on
    tables that compute each value when it is first read (see _Lazy), so
    the search reads only the indices of the points it reaches. A sweep
    computes exactly the subexpressions that point-by-point evaluation
    does, only in another order, so such a point exists.
    """
    params = identity.free_params
    sweep = _point_sweep(identity)
    f_tab, l_tab = _Lazy(FIB_SEED), _Lazy(LUCAS_SEED)
    for seed in spec.seeds:
        g_tab = _Lazy(seed)
        for vals in spec.points(params):
            try:
                sweep(*((v,) for v in vals), f_tab, l_tab, g_tab, (0,), [], None)
            except EvalError as err:
                pt_desc = ", ".join(f"{p}={v}" for p, v in zip(params, vals))
                raise EvalError(f"{err} at point ({pt_desc}), seed {seed}") from err
    raise InternalFault(f"the grid sweep of '{identity.name}' raised '{exc}', "
                        f"but no point raises when evaluated alone") from exc


def verify_grid(identity: Identity, spec: GridSpec, *, use_oracle: bool = False,
                state: _State | None = None) -> VerifyReport:
    """Check lhs == rhs at every grid point and seed; list every failure.

    The grid runs as one compiled sweep, in passes that cover the seeds
    (see _plans). The result is independent of evaluation order: failures
    are sorted by point (lexicographically in parameter order), then by
    seed position. state, one command's, lends its tables to the sweep;
    without it, the call makes its own.
    """
    _check_spec_covers(identity, spec)
    params = identity.free_params
    started = time.perf_counter()
    grid = _grid(identity, spec)
    try:
        raw = _sweep_grid(identity, spec, grid, use_oracle, state or _State())
    except EvalError as exc:
        _raise_first_eval_error(identity, spec, exc)

    raw.sort()  # each (point, seed index) occurs once
    failures, vals, point = [], None, None
    for at, seed_idx, lv, rv in raw:
        if at != vals:  # a point's failures share one labelled point
            vals, point = at, tuple(zip(params, at))
        failures.append(Failure(point, spec.seeds[seed_idx], lv, rv))
    elapsed = (time.perf_counter() - started) * 1000.0
    return VerifyReport(
        identity=identity.name,
        paper_tag=identity.paper_tag,
        mode="grid",
        grid=_grid_desc(identity, spec),
        total=spec.checks(params),
        failures=failures,
        elapsed_ms=elapsed,
    )
