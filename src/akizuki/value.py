"""The base of the library's immutable value types.

Series, tails, the types built on a pair of series, the coefficient fields,
ring settings and expression nodes are all small immutable records.
``Value`` gives them what a frozen dataclass would: construction from
positional or keyword arguments, equality of a class's fields, a hash that
agrees with it, the ``Name(field=value, ...)`` repr, copying and pickling,
and an AttributeError on assignment.  It does so without ``dataclasses``,
whose import (it loads ``inspect``, ``ast`` and ``dis``) and generated
code made up about half the start-up time of each ``akizuki`` command.
"""

from __future__ import annotations

# Stores a field from a constructor, past the ``__setattr__`` that refuses.
set_field = object.__setattr__


class Value:
    """An immutable record of the fields named in ``_fields``.

    A subclass keeps its fields in ``__slots__`` and lists them, in
    constructor order, in ``_fields``.  Two values are equal when they are
    of one class and their fields are equal, as tuples; equal values hash
    alike.  The generic constructor takes the fields by position or by name;
    a subclass with defaults or checks writes its own and stores each field
    with ``set_field``.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init__(self, *args, **named):
        fields = self._fields
        if named or len(args) != len(fields):
            args = bind(self, fields, args, named)
        for name, value in zip(fields, args):
            set_field(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def bind(value: Value, names: tuple, args: tuple, named: dict) -> tuple:
    """The arguments for ``names``, in order, from the positional ``args``
    and the keywords ``named``; a TypeError unless each name gets exactly
    one, as a constructor with those parameters would raise."""
    given = dict(zip(names, args))
    if len(args) > len(names) or given.keys() & named or given.keys() | named != set(names):
        owner = type(value).__name__
        raise TypeError(f"{owner}() takes the fields {names} once each, by position or by name")
    given.update(named)
    return tuple(given[name] for name in names)
