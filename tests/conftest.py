import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fibkit
from fibkit import Identity, builtin_catalog
from fibkit.expr import Add, Lit, Mul, SeqRef, Sub, Sum, Sym


@pytest.fixture(scope="session")
def catalog():
    return builtin_catalog()


def replace_symbols(node, env):
    """node with every free symbol named in env replaced by env's node, all
    at once, so {"p": n, "n": 2} swaps rather than chains."""
    if isinstance(node, Sym):
        return env.get(node.name, node)
    if isinstance(node, Sum):
        inner = {name: value for name, value in env.items() if name != node.var}
        return Sum(node.var, replace_symbols(node.lo, env), replace_symbols(node.hi, env),
                   replace_symbols(node.body, inner))
    return type(node)(*(replace_symbols(getattr(node, f), env) if f in node._child_fields
                        else getattr(node, f) for f in node._fields))


def induction_step(identity, side, coeff):
    """The rank recurrence of one side S of a summation identity, as an
    identity over (n, m, p, q):

        S == C(m + q)*S[n := n - 1] - C(m)*S[n := n - 1, p := p + q]

    with C the coefficient sequence, F for the Fibonacci-weighted family
    and L for the Lucas-weighted one. It is the induction step that
    carries the rank-1 base cases to every rank n >= 1.
    """
    n, m, p, q = (Sym(name) for name in "nmpq")
    s = getattr(identity, side)
    down = replace_symbols(s, {"n": Sub(n, Lit(1))})
    across = replace_symbols(s, {"n": Sub(n, Lit(1)), "p": Add(p, q)})
    step = Sub(Mul(SeqRef(coeff, Add(m, q)), down), Mul(SeqRef(coeff, m), across))
    return Identity(f"{identity.name}.{side}", s, step, ("n", "m", "p", "q"),
                    identity.paper_tag)


@pytest.fixture(scope="session")
def step_identity():
    return induction_step


@pytest.fixture(scope="session")
def relabel():
    return replace_symbols


class InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, runs jobs here."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def map(self, fn, jobs):
        return map(fn, jobs)

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass


@pytest.fixture
def inline_pool(monkeypatch):
    """The sizes of the pools the CLI opens, each an InlinePool, on a
    machine of 4 CPUs unless the test sets os.cpu_count itself."""
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return InlinePool.sizes


def fibkit_child(*argv, memory_mb=600, timeout=5.0):
    """(exit code, stdout, stderr) of `python -m fibkit *argv` in a child
    process that caps its own address space at memory_mb before it imports
    fibkit; a child still running after timeout seconds is killed and
    fails the test."""
    limit = memory_mb << 20
    script = ("import resource, runpy, sys\n"
              f"sys.path.insert(0, {str(Path(fibkit.__file__).parents[1])!r})\n"
              f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
              "runpy.run_module('fibkit', run_name='__main__')\n")
    try:
        done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        pytest.fail(f"fibkit {' '.join(argv)} still running after {timeout} s")
    return done.returncode, done.stdout, done.stderr


@pytest.fixture(scope="session")
def run_fibkit():
    return fibkit_child
