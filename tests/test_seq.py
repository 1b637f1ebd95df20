"""Sequence engine: seed values, reflection, doubling, tables, decomposition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibkit import (
    FIB_SEED, LUCAS_SEED, Seed, fib, fib_naive, fib_pair_doubling, gen, lucas, table,
)
from fibkit.errors import InternalFault
from fibkit.seq import gen_pair


def lucas_naive(n: int) -> int:
    """L(n) by stepping the recurrence one index at a time."""
    m = -n if n < 0 else n
    a, b = 2, 1
    for _ in range(m):
        a, b = b, a + b
    if n < 0 and m & 1:
        a = -a
    return a


def decompose(seed: Seed, n: int) -> int:
    """G(n) through the split [(G(-1)+G(1)) F(n) + G0 L(n)] / 2, which is
    even before halving for every integer seed and index."""
    doubled = (2 * seed.g1 - seed.g0) * fib(n) + seed.g0 * lucas(n)
    assert doubled % 2 == 0, f"decomposition of {seed} at n={n} is odd before halving"
    return doubled // 2


seeds = st.builds(Seed, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))


@pytest.mark.parametrize("n,expected", [(0, 0), (1, 1), (10, 55), (-5, 5), (-6, -8)])
def test_fib_values(n, expected):
    assert fib(n) == expected


@pytest.mark.parametrize("n,expected", [(0, 2), (1, 1), (4, 7), (-4, 7), (-3, -4)])
def test_lucas_values(n, expected):
    assert lucas(n) == expected


def test_fib_pair_doubling_base_cases():
    assert fib_pair_doubling(0) == (0, 1)
    assert fib_pair_doubling(10) == (55, 89)


def test_fib_pair_doubling_matches_naive_at_100():
    # the expected value is anchored to the slow path, not copied from fib()
    expected = fib_naive(100)
    assert expected == 354224848179261915075
    assert fib_pair_doubling(100) == (expected, fib_naive(101))


def test_fib_pair_doubling_rejects_negative():
    with pytest.raises(ValueError):
        fib_pair_doubling(-1)


def test_doubling_vs_naive_window():
    for n in range(501):
        assert fib(n) == fib_naive(n)
        assert lucas(n) == lucas_naive(n)


def test_reflection_laws():
    for n in range(201):
        assert fib(-n) == (-1) ** (n + 1) * fib(n)
        assert lucas(-n) == (-1) ** n * lucas(n)


def test_bridge_laws():
    for n in range(-200, 201):
        assert fib(n - 1) + fib(n + 1) == lucas(n)
        assert lucas(n - 1) + lucas(n + 1) == 5 * fib(n)


def test_gen_reproduces_f_and_l():
    assert gen(FIB_SEED, 7) == 13
    assert gen(LUCAS_SEED, 5) == 11
    for n in range(-30, 31):
        assert gen(FIB_SEED, n) == fib(n)
        assert gen(LUCAS_SEED, n) == lucas(n)


def test_gen_negative_index_runs_recurrence_backwards():
    # G(-1) = G(1) - G(0)
    assert gen(Seed(3, 7), -1) == 4


@given(seeds, st.integers(-200, 198))
def test_gen_recurrence(seed, n):
    assert gen(seed, n + 2) == gen(seed, n + 1) + gen(seed, n)


@pytest.mark.parametrize("seed,lo,hi,expected", [
    (Seed(0, 1), -3, 3, (2, -1, 1, 0, 1, 1, 2)),
    (Seed(2, 1), 0, 4, (2, 1, 3, 4, 7)),
    (Seed(5, 5), 0, 2, (5, 5, 10)),
])
def test_table_values(seed, lo, hi, expected):
    t = table(seed, lo, hi)
    assert list(t.items()) == list(zip(range(lo, hi + 1), expected))


def test_table_rejects_inverted_window():
    with pytest.raises(ValueError):
        table(FIB_SEED, 3, 2)


def test_table_getitem_and_bounds():
    t = table(Seed(3, 7), -5, 5)
    assert t[0] == 3 and t[1] == 7 and t[-1] == 4
    with pytest.raises(KeyError):
        t[6]


@given(seeds, st.integers(-60, 58))
@settings(max_examples=60)
def test_table_satisfies_recurrence(seed, lo):
    t = table(seed, lo, lo + 6)
    for n in range(lo, lo + 5):
        assert t[n + 2] == t[n + 1] + t[n]
    assert t[lo] == gen(seed, lo)


def gen_stepped(seed: Seed, n: int) -> int:
    """G(n) by stepping the recurrence from (G(0), G(1)), forwards for
    n >= 0 and backwards, by G(n) = G(n + 2) - G(n + 1), below 0."""
    a, b = seed.g0, seed.g1
    for _ in range(n):
        a, b = b, a + b
    for _ in range(-n):
        a, b = b - a, a
    return a


@pytest.mark.parametrize("seed", [Seed(0, 1), Seed(2, 1), Seed(3, 7), Seed(-4, 5),
                                  Seed(1, 0), Seed(0, 0)])
def test_gen_matches_the_stepped_recurrence(seed):
    for n in [*range(-40, 41), -1001, -1000, 999, 1000]:
        assert gen(seed, n) == gen_stepped(seed, n), (seed, n)
        assert gen_pair(seed, n) == (gen_stepped(seed, n), gen_stepped(seed, n + 1)), (seed, n)


@pytest.mark.parametrize("seed,n,expected", [
    (Seed(0, 1), 9, 34),   # collapses to F(9)
    (Seed(2, 1), 6, 18),   # collapses to L(6)
    (Seed(3, 7), 4, 27),   # table 3, 7, 10, 17, 27
])
def test_decompose_values(seed, n, expected):
    assert decompose(seed, n) == expected
    assert gen(seed, n) == expected


@given(seeds, st.integers(-200, 200))
def test_decompose_matches_gen(seed, n):
    # also checks evenness: an odd pre-halving value fails in decompose
    assert decompose(seed, n) == gen(seed, n)


def test_internal_fault_is_importable():
    assert issubclass(InternalFault, Exception)
