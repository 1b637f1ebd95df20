"""Spans and counters around fibkit's layers, installed from outside.

The tracer wraps public names that fibkit looks up at call time (module
globals and class attributes), so no file under src/ changes. Spans are
kept in memory as (name, start, end, parent) and written out at the end
of a run; per-layer self times and counts are computed from them. A name
that no longer exists is reported as absent instead of failing the run.
Spans inside forked pool workers are not seen: the parent's pool span
covers building, mapping and shutting down the pool.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array
from collections import Counter
from typing import Any, Callable

# (module, attribute path, span name): calls through these names are timed.
# The cli.* spans name main's own steps, so that what main does outside any
# named step is left as the root span's self time.
SPANS = (
    ("fibkit.cli", "build_parser", "cli.args"),
    ("fibkit.cli", "argparse.ArgumentParser.parse_args", "cli.args"),
    ("fibkit.cli", "_resolve_catalog", "cli.select"),
    ("fibkit.cli", "_select_entries", "cli.select"),
    ("fibkit.cli", "_grid_for", "cli.select"),
    ("fibkit.cli", "_emit_reports", "cli.emit"),
    ("fibkit.cli", "verify_grid", "verify.grid"),
    ("fibkit.cli", "prove_symbolic", "symbolic.prove"),
    ("fibkit.verify", "compile_side", "verify.compile"),
    ("fibkit.verify", "table", "seq.table"),
    ("fibkit.verify", "index_window", "ranges.window"),
    ("fibkit.verify", "ProcessPoolExecutor", "verify.pool"),
    ("fibkit.oracle", "index_window", "ranges.window"),
    ("fibkit.oracle", "oracle_eval", "oracle.eval"),
    ("fibkit.oracle", "OracleTables", "oracle.tables"),
    ("fibkit.zphi", "LaurentPoly3.__mul__", "zphi.laurent_mul"),
)

# (module, attribute path, counter name): calls through these are only counted,
# because they are too small and too many to time one by one.
COUNTS = (
    ("fibkit.symbolic", "phi_pow", "zphi.phi_pow_calls"),
    ("fibkit.zphi", "GoldenRat.__post_init__", "zphi.goldenrat_made"),
)

# (module, attribute, counter name): the growth of these containers while the
# wrappers are installed is counted; a compiled side enters the cache once.
SIZES = (
    ("fibkit.verify", "_compile_cache", "verify.compiles"),
)

# Span name -> counter fed from the call's result.
RESULT_COUNTS = {
    "seq.table": ("seq.table_entries", len),
    "symbolic.prove": ("symbolic.cases", lambda report: report.total),
}


class Tracer:
    """Spans in flat arrays (name id, parent index, start, end) plus counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._sizes: list[tuple[Any, str, int]] = []

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()
        elif idx in self._stack:
            self._stack.remove(idx)

    def timed(self, name: str, fn: Callable) -> Callable:
        counter = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def timed_class(self, name: str, cls: type) -> type:
        """Subclass whose construction is one span; an executor's span stays
        open until its shutdown, so it covers the pool's whole parent side."""
        tracer = self
        if hasattr(cls, "shutdown"):
            class Traced(cls):
                def __init__(self, *args, **kwargs):
                    self._bench_span = tracer.open(name)
                    try:
                        super().__init__(*args, **kwargs)
                    except BaseException:
                        tracer.close(self._bench_span)
                        raise

                def shutdown(self, *args, **kwargs):
                    try:
                        super().shutdown(*args, **kwargs)
                    finally:
                        if self._bench_span is not None:
                            tracer.close(self._bench_span)
                            self._bench_span = None
        else:
            class Traced(cls):
                def __init__(self, *args, **kwargs):
                    idx = tracer.open(name)
                    try:
                        super().__init__(*args, **kwargs)
                    finally:
                        tracer.close(idx)
        Traced.__name__ = Traced.__qualname__ = cls.__name__
        return Traced

    # -- installing wrappers ----------------------------------------------------

    def install(self) -> None:
        for module, path, name in SPANS:
            self._patch(module, path, name, timed=True)
        for module, path, name in COUNTS:
            self._patch(module, path, name, timed=False)
        for module, path, name in SIZES:
            found = self._lookup(module, path)
            if found is not None:
                container = getattr(*found)
                self._sizes.append((container, name, len(container)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        while self._sizes:
            container, name, before = self._sizes.pop()
            self.counts[name] += len(container) - before

    def _lookup(self, module: str, path: str) -> tuple[Any, str] | None:
        """The owner and attribute name behind module.path, or None (and the
        name noted as absent) when a part of it no longer exists."""
        try:
            owner: Any = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            if attr not in (owner.__dict__ if isinstance(owner, type) else dir(owner)):
                raise AttributeError(attr)
        except (ImportError, AttributeError):
            if f"{module}.{path}" not in self.absent:
                self.absent.append(f"{module}.{path}")
            return None
        return owner, attr

    def _patch(self, module: str, path: str, name: str, *, timed: bool) -> None:
        found = self._lookup(module, path)
        if found is None:
            return
        owner, attr = found
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if not timed:
            wrapped = self.counted(name, original)
        elif isinstance(original, type):
            wrapped = self.timed_class(name, original)
        else:
            wrapped = self.timed(name, original)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    # -- reading spans -----------------------------------------------------------

    def layer_times(self, first: int, last: int) -> dict[str, dict[str, float]]:
        """Per span name over spans first..last-1: calls, inclusive, self and
        the longest single span, all in seconds."""
        dur = [self.end[i] - self.start[i] for i in range(first, last)]
        child = [0.0] * (last - first)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p - first] += dur[i - first]
        out: dict[str, dict[str, float]] = {}
        for i in range(first, last):
            name = self.names[self.name_id[i]]
            row = out.setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0, "max": 0.0})
            d = dur[i - first]
            row["calls"] += 1
            row["incl"] += d
            row["self"] += d - child[i - first]
            row["max"] = max(row["max"], d)
        return out

    def write(self, path: str, origin: float) -> None:
        """All spans as gzipped JSON lines, times in microseconds from origin."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([
                    i, self.names[self.name_id[i]], self.parent[i],
                    round((self.start[i] - origin) * 1e6),
                    round((self.end[i] - origin) * 1e6)]) + "\n")
