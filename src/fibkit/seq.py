"""Exact Fibonacci, Lucas, and seeded generalized Fibonacci numbers.

Every value is a plain Python int, so results are exact at any index.
All public functions accept negative indices; the fast-doubling kernel
itself runs on nonnegative indices and the wrappers reflect through
F(-n) = (-1)^(n+1) F(n) and L(-n) = (-1)^n L(n).
"""

from __future__ import annotations

from .record import Record

__all__ = [
    "Seed",
    "FIB_SEED",
    "LUCAS_SEED",
    "fib",
    "lucas",
    "gen",
    "gen_pair",
    "fib_naive",
    "fib_pair_doubling",
    "table",
]


class Seed(Record):
    """Initial values (G0, G1) of a generalized Fibonacci sequence.

    Any pair of integers is valid. Seed(0, 1) reproduces the Fibonacci
    numbers and Seed(2, 1) the Lucas numbers. Its hash is computed once,
    when it is made, and compared before its fields, as an AST node's is.
    """

    _fields = ("g0", "g1")
    __slots__ = (*_fields, "_hash")

    def __init__(self, g0: int, g1: int):
        object.__setattr__(self, "g0", g0)
        object.__setattr__(self, "g1", g1)
        object.__setattr__(self, "_hash", hash((g0, g1)))

    def __eq__(self, other: object) -> bool:
        if type(other) is not Seed:
            return NotImplemented
        return self._hash == other._hash and self.g0 == other.g0 and self.g1 == other.g1

    def __hash__(self) -> int:
        return self._hash


FIB_SEED = Seed(0, 1)
LUCAS_SEED = Seed(2, 1)


def fib_pair_doubling(n: int) -> tuple[int, int]:
    """Return (F(n), F(n+1)) for n >= 0 in O(log n) bigint multiplications.

    Uses the doubling recurrences F(2k) = F(k) * (2 F(k+1) - F(k)) and
    F(2k+1) = F(k)^2 + F(k+1)^2, walking the bits of n from the top.
    Negative n is rejected; callers reflect first.
    """
    if n < 0:
        raise ValueError(f"fib_pair_doubling requires n >= 0, got {n}")
    a, b = 0, 1  # (F(0), F(1))
    for bit in bin(n)[2:] if n > 0 else "":
        c = a * (2 * b - a)
        d = a * a + b * b
        if bit == "1":
            a, b = d, c + d
        else:
            a, b = c, d
    return a, b


def fib(n: int) -> int:
    """Fibonacci number F(n) for any integer n."""
    if n >= 0:
        return fib_pair_doubling(n)[0]
    f = fib_pair_doubling(-n)[0]
    return f if n & 1 else -f


def lucas(n: int) -> int:
    """Lucas number L(n) for any integer n, via L(n) = 2 F(n+1) - F(n)."""
    m = -n if n < 0 else n
    a, b = fib_pair_doubling(m)
    value = 2 * b - a
    if n < 0 and m & 1:
        value = -value
    return value


def fib_naive(n: int) -> int:
    """F(n) by stepping the recurrence one index at a time.

    The slow reference path; kept for benchmarking against the doubling
    kernel and as the anchor of the naive-vs-fast property tests.
    """
    m = -n if n < 0 else n
    a, b = 0, 1
    for _ in range(m):
        a, b = b, a + b
    if n < 0 and not m & 1:
        a = -a
    return a


def gen_pair(seed: Seed, n: int) -> tuple[int, int]:
    """(G(n), G(n+1)) for the given seed, any integer n.

    Evaluates G(n) = G0 F(n-1) + G1 F(n) and G(n+1) = G0 F(n) + G1 F(n+1),
    which agree with running the recurrence forwards or backwards from the
    seed, with F(n-1) and F(n) from one fast-doubling walk.
    """
    if n > 0:
        a, b = fib_pair_doubling(n - 1)
    else:  # F(-n) and F(1 - n), reflected to F(n) and F(n - 1)
        f, g = fib_pair_doubling(-n)
        a, b = (-g, f) if n & 1 else (g, -f)
    g0, g1 = seed.g0, seed.g1
    return g0 * a + g1 * b, g0 * b + g1 * (a + b)


def gen(seed: Seed, n: int) -> int:
    """Generalized Fibonacci number G(n) for the given seed, any integer n
    (see gen_pair)."""
    return gen_pair(seed, n)[0]


def table(seed: Seed, lo: int, hi: int) -> dict[int, int]:
    """G over the indices lo..hi inclusive, as an index-to-value dict,
    built by forward recurrence.

    The window is anchored at (G(lo), G(lo+1)) so lo and hi may be any
    integers with lo <= hi.
    """
    if lo > hi:
        raise ValueError(f"table requires lo <= hi, got {lo} > {hi}")
    a, b = gen(seed, lo), gen(seed, lo + 1)
    values = {}
    for n in range(lo, hi + 1):
        values[n] = a
        a, b = b, a + b
    return values
