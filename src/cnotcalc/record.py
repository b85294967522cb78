"""Immutable slotted value classes.

``Record`` gives its subclasses what a frozen dataclass would: equality and
hash over the fields, ``Name(field=value, ...)`` repr text and no
assignment after construction.  The fields are the names in the subclass's
``__slots__``, two or more, in order; each subclass's ``__init__`` checks
its arguments and stores them with ``_init``.  It exists so that importing
the package does not import ``dataclasses`` and generate code for every
class.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        # The tuple of the field values, and each slot's own setter, which
        # the refusing __setattr__ does not guard.
        cls._values = staticmethod(attrgetter(*cls.__slots__))
        cls._setters = tuple([getattr(cls, name).__set__ for name in cls.__slots__])

    def _init(self, *values) -> None:
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)
