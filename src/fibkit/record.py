"""The base class of fibkit's value types: the AST nodes, `Seed`,
`Identity`, `GridSpec`, the reports and the rest.

A record lists its fields in `_fields`, in constructor order, holds them
in `__slots__` and sets them in an explicit `__init__` through
`object.__setattr__`. Two records are equal when they are of the same
class and their fields are equal; the hash covers the same fields. The
repr is `Name(field=value, ...)`, a record pickles as its class and its
field values, and assigning or deleting an attribute raises. These are
the semantics of the standard library's frozen data classes, without
importing that module, which takes longer than all of fibkit's own
modules together.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """An immutable value compared, hashed, printed and pickled by its fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple[type, tuple]:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
