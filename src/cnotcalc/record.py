"""Immutable slotted value classes.

``Record`` gives its subclasses what a frozen dataclass would: equality and
hash over the fields, ``Name(field=value, ...)`` repr text and no
assignment after construction.  The fields are the names in the subclass's
``__slots__``, in order; each subclass's ``__init__`` checks its arguments
and stores them with ``_init``.  It exists so that importing the package
does not import ``dataclasses`` and generate code for every class.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
