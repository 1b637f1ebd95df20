"""Identity and Catalog types, the stanza file format, and the shipped catalog.

Catalog files are UTF-8 text of at most MAX_CATALOG_BYTES. Each
identity is one stanza of four `key: value` lines (name, params, paper,
identity) separated by blank lines; '#' starts a comment. The identity
line is a single "lhs == rhs" expression in the DSL grammar.
"""

from __future__ import annotations

import functools
import os
from typing import Iterator

from .errors import CatalogError, ParseError
from .expr import Node, Sum, free_symbols, iter_nodes, to_text
from .parser import check_identity_scope, parse_identity_sides
from .record import Record

__all__ = [
    "Identity", "Catalog",
    "parse_identity", "parse_catalog", "format_catalog",
    "builtin_catalog", "load_catalog_file",
    "SECTION3_PARAM_MAP", "section3_source", "MAX_CATALOG_BYTES",
]

# Largest catalog file read, in bytes; the built-in catalog is about 5 KB.
MAX_CATALOG_BYTES = 1 << 20


class Identity(Record):
    """One named identity: two sides, declared parameters, and a paper tag."""

    _fields = ("name", "lhs", "rhs", "free_params", "paper_tag")
    __slots__ = (*_fields, "_rank_params")

    def __init__(self, name: str, lhs: Node, rhs: Node, free_params: tuple[str, ...],
                 paper_tag: str = ""):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "free_params", free_params)
        object.__setattr__(self, "paper_tag", paper_tag)

    @property
    def text(self) -> str:
        return f"{to_text(self.lhs)} == {to_text(self.rhs)}"

    @property
    def rank_params(self) -> tuple[str, ...]:
        """Parameters that appear in a sum bound; instantiated, never symbolic.
        Computed on first use and kept out of the fields, so equality,
        hashing and pickling ignore it."""
        try:
            return self._rank_params
        except AttributeError:
            pass
        bound_syms: set[str] = set()
        for side in (self.lhs, self.rhs):
            for node in iter_nodes(side):
                if isinstance(node, Sum):
                    bound_syms |= free_symbols(node.lo) | free_symbols(node.hi)
        params = tuple(p for p in self.free_params if p in bound_syms)
        object.__setattr__(self, "_rank_params", params)
        return params

    @property
    def is_rank_parametric(self) -> bool:
        return bool(self.rank_params)


def parse_identity(text: str, *, name: str, params: tuple[str, ...] | list[str],
                   paper_tag: str = "") -> Identity:
    """Parse "lhs == rhs" text into an Identity with the declared parameters."""
    params = tuple(params)
    lhs, rhs = parse_identity_sides(text)
    check_identity_scope(lhs, rhs, params)
    return Identity(name=name, lhs=lhs, rhs=rhs, free_params=params,
                    paper_tag=paper_tag)


class Catalog(Record):
    """Ordered collection of identities with unique names."""

    __slots__ = ("entries", "_by_name")
    _fields = ("entries",)

    def __init__(self, entries: tuple[Identity, ...]):
        by_name: dict[str, Identity] = {}
        for entry in entries:
            if entry.name in by_name:
                raise CatalogError(f"duplicate identity name '{entry.name}'")
            by_name[entry.name] = entry
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_by_name", by_name)

    def __iter__(self) -> Iterator[Identity]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    def get(self, name: str) -> Identity:
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError(f"no identity named '{name}'") from None

    def lookup(self, selector: str) -> tuple[Identity, ...]:
        """All entries whose name or paper tag equals the selector."""
        hits = tuple(e for e in self.entries
                     if e.name == selector or e.paper_tag == selector)
        return hits


_STANZA_KEYS = ("name", "params", "paper", "identity")


def parse_catalog(text: str, source: str = "<catalog>") -> Catalog:
    """Parse a stanza-format catalog file."""
    entries: list[Identity] = []
    stanza: dict[str, str] = {}
    stanza_line = 0

    def flush() -> None:
        nonlocal stanza
        if not stanza:
            return
        missing = [k for k in _STANZA_KEYS if k not in stanza]
        if missing:
            raise CatalogError(
                f"{source}:{stanza_line}: stanza missing key(s): {', '.join(missing)}")
        try:
            entry = parse_identity(
                stanza["identity"],
                name=stanza["name"],
                params=tuple(stanza["params"].split()),
                paper_tag=stanza["paper"],
            )
        except ParseError as exc:
            raise CatalogError(
                f"{source}:{stanza_line}: in identity '{stanza['name']}': {exc}"
            ) from exc
        entries.append(entry)
        stanza = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line:
            flush()
            continue
        if ":" not in line:
            raise CatalogError(f"{source}:{lineno}: expected 'key: value', got {raw!r}")
        key, value = line.split(":", 1)
        key = key.strip()
        if key not in _STANZA_KEYS:
            raise CatalogError(f"{source}:{lineno}: unknown key '{key}'")
        if key in stanza:
            raise CatalogError(f"{source}:{lineno}: duplicate key '{key}' in stanza")
        if not stanza:
            stanza_line = lineno
        stanza[key] = value.strip()
    flush()
    return Catalog(tuple(entries))


def format_catalog(catalog: Catalog) -> str:
    """Render a catalog back to stanza text (canonical identity spelling)."""
    stanzas = []
    for e in catalog:
        stanzas.append(
            f"name: {e.name}\n"
            f"params: {' '.join(e.free_params)}\n"
            f"paper: {e.paper_tag}\n"
            f"identity: {e.text}\n"
        )
    return "\n".join(stanzas)


def load_catalog_file(path: str) -> Catalog:
    """Parse the catalog file at path; a file that cannot be opened, is
    over MAX_CATALOG_BYTES or is not UTF-8 is a CatalogError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_CATALOG_BYTES + 1)
    except OSError as exc:
        raise CatalogError(f"cannot read catalog file {path}: "
                           f"{exc.strerror or exc}") from None
    if len(data) > MAX_CATALOG_BYTES:
        raise CatalogError(f"catalog file {path} is over the "
                           f"{MAX_CATALOG_BYTES:,}-byte limit")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CatalogError(f"catalog file {path} is not UTF-8 text: "
                           f"{exc.reason} at byte {exc.start}") from None
    return parse_catalog(text, source=path)


@functools.lru_cache(maxsize=1)
def builtin_catalog() -> Catalog:
    """The 29-entry catalog shipped with the package, read through the
    package's own loader: importing importlib.resources takes longer than
    the parse."""
    path = os.path.join(os.path.dirname(__file__), "data", "builtin.cat")
    catalog = parse_catalog(__spec__.loader.get_data(path).decode("utf-8"),
                            source="builtin.cat")
    if len(catalog) != 29:
        raise CatalogError(f"builtin catalog has {len(catalog)} entries, expected 29")
    return catalog


# The expanded-example entries (names S3.n<rank>.<family>) restate the four
# summation identities at fixed rank with renamed parameters: the expanded
# form's n is the summation form's p, and its p is the summation form's q.
SECTION3_PARAM_MAP = {"m": "m", "p": "n", "q": "p"}

_FAMILY_SOURCE = {
    "F-forward": "Eq1",
    "L-forward": "Eq2",
    "F-backward": "Eq3",
    "L-backward": "Eq4",
}


def section3_source(name: str) -> tuple[str, int, dict[str, str]]:
    """For an expanded entry name, its (summation identity, rank, param map).

    The map sends each summation-identity parameter to the expanded entry's
    parameter carrying the same role; the rank parameter n is fixed to the
    returned integer.
    """
    try:
        prefix, rank_part, family = name.split(".")
        if prefix != "S3" or not rank_part.startswith("n"):
            raise ValueError
        rank = int(rank_part[1:])
        source = _FAMILY_SOURCE[family]
    except (ValueError, KeyError):
        raise CatalogError(f"'{name}' is not an expanded-example entry") from None
    return source, rank, dict(SECTION3_PARAM_MAP)
