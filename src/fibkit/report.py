"""What a verification or a proof reports: its failures and its outcome.

Both engines build these, the grid sweep in verify.py and the prover in
symbolic.py, and the command line prints them; keeping them here lets
either engine run without loading the other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .record import Record

if TYPE_CHECKING:
    from .seq import Seed

__all__ = ["Failure", "VerifyReport"]


class Failure(Record):
    """One failing evaluation: the point, the seed, and both side values.

    For symbolic mode, point holds parity bits, seed is None, and the side
    values are residual-polynomial text.
    """

    __slots__ = _fields = ("point", "seed", "lhs", "rhs")

    def __init__(self, point: tuple[tuple[str, int], ...], seed: Seed | None,
                 lhs: int | str, rhs: int | str):
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    @property
    def diff(self) -> int | None:
        if isinstance(self.lhs, int) and isinstance(self.rhs, int):
            return self.lhs - self.rhs
        return None


class VerifyReport(Record):
    """Machine-readable outcome of one verification run. Unlike the other
    records its fields may be assigned, so it has no hash."""

    __slots__ = _fields = ("identity", "paper_tag", "mode", "grid", "total", "failures",
                           "elapsed_ms")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, identity: str, paper_tag: str, mode: str, grid: dict[str, Any],
                 total: int, failures: list[Failure] | None = None,
                 elapsed_ms: float = 0.0):
        self.identity = identity
        self.paper_tag = paper_tag
        self.mode = mode  # "grid" | "symbolic"
        self.grid = grid
        self.total = total
        self.failures = [] if failures is None else failures
        self.elapsed_ms = elapsed_ms

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_json_dict(self, *, include_timing: bool = False) -> dict[str, Any]:
        def enc(v: int | str) -> str:
            return str(v)

        failures = []
        for f in self.failures:
            entry: dict[str, Any] = {
                "point": dict(f.point),
                "seed": [f.seed.g0, f.seed.g1] if f.seed is not None else None,
                "lhs": enc(f.lhs),
                "rhs": enc(f.rhs),
            }
            if f.diff is not None:
                entry["diff"] = enc(f.diff)
            failures.append(entry)
        return {
            "version": 1,
            "identity": self.identity,
            "paper_tag": self.paper_tag,
            "mode": self.mode,
            "grid": self.grid,
            "total": self.total,
            "failures": failures,
            "elapsed_ms": round(self.elapsed_ms, 3) if include_timing else 0,
        }
