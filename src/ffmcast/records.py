"""Base of the package's mutable records.

A record lists its fields, in order, as its __slots__ and sets them in its
own __init__. Record derives value equality (same class, equal fields) and
the repr Name(field=value, ...) from that list, and leaves the record
unhashable, as a mutable value should be. The immutable records are
typing.NamedTuple classes, which print the same way and compare by value
too (and equal the plain tuple of their fields).
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"
