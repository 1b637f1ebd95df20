"""Exact Fibonacci, Lucas, and seeded generalized Fibonacci numbers.

Every value is a plain Python int, so results are exact at any index.
All public functions accept negative indices; the fast-doubling kernel
itself runs on nonnegative indices and the wrappers reflect through
F(-n) = (-1)^(n+1) F(n) and L(-n) = (-1)^n L(n).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalFault

__all__ = [
    "Seed",
    "SeqTable",
    "FIB_SEED",
    "LUCAS_SEED",
    "fib",
    "lucas",
    "gen",
    "fib_naive",
    "fib_pair_doubling",
    "table",
    "decompose",
]


@dataclass(frozen=True)
class Seed:
    """Initial values (G0, G1) of a generalized Fibonacci sequence.

    Any pair of integers is valid. Seed(0, 1) reproduces the Fibonacci
    numbers and Seed(2, 1) the Lucas numbers.
    """

    g0: int
    g1: int


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


def gen(seed: Seed, n: int) -> int:
    """Generalized Fibonacci number G(n) for the given seed, any integer n.

    Evaluates the linear combination G(n) = G0 F(n-1) + G1 F(n), which
    agrees with running the recurrence forwards or backwards from the seed.
    """
    return seed.g0 * fib(n - 1) + seed.g1 * fib(n)


@dataclass(frozen=True)
class SeqTable:
    """Dense window of a seeded sequence over the index range lo..hi inclusive."""

    seed: Seed
    lo: int
    hi: int
    values: tuple[int, ...]

    def __getitem__(self, n: int) -> int:
        if not self.lo <= n <= self.hi:
            raise IndexError(f"index {n} outside table window {self.lo}..{self.hi}")
        return self.values[n - self.lo]

    def __len__(self) -> int:
        return len(self.values)

    def as_dict(self) -> dict[int, int]:
        """Index-to-value mapping, as consumed by the expression evaluator."""
        return dict(zip(range(self.lo, self.hi + 1), self.values))


def table(seed: Seed, lo: int, hi: int) -> SeqTable:
    """Build the dense SeqTable for indices lo..hi by forward recurrence.

    The window is anchored at (G(lo), G(lo+1)) so lo and hi may be any
    integers with lo <= hi.
    """
    if lo > hi:
        raise ValueError(f"table requires lo <= hi, got {lo} > {hi}")
    a, b = gen(seed, lo), gen(seed, lo + 1)
    values = []
    for _ in range(lo, hi + 1):
        values.append(a)
        a, b = b, a + b
    return SeqTable(seed, lo, hi, tuple(values))


def decompose(seed: Seed, n: int) -> int:
    """Evaluate G(n) through the split [(G(-1)+G(1)) F(n) + G0 L(n)] / 2.

    The quantity before halving is even for every integer seed and index;
    an odd value would mean a broken sequence kernel and raises
    InternalFault rather than rounding.
    """
    g_minus1 = seed.g1 - seed.g0
    doubled = (g_minus1 + seed.g1) * fib(n) + seed.g0 * lucas(n)
    if doubled % 2:
        raise InternalFault(
            f"decomposition of {seed} at n={n} is odd before halving: {doubled}"
        )
    return doubled // 2
