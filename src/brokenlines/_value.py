"""The rules every hand-written value type of the package follows.

A value is immutable once built: its constructor stores its slots with
`object.__setattr__`, and afterwards setting or deleting any attribute
raises AttributeError naming the instance's own class.  A `Value` equals
an instance of the class that declared its key exactly when the keys are
equal, and hashes its key; `ExtReal` keeps its own rule, and the types
that are only `Frozen` (`TwFunctor`, the sheaves, `ISectionData`,
`HomSet`) keep identity equality.  Integer inputs go through
`operator.index`, so a float or a str, which int() would truncate or
parse, is rejected, never truncated, and so is a bool, which is no count
or rank; exact inputs go through `_rational`, which rejects a float or a
bool too, never reading it as a fraction, and names a zero denominator.
"""

from __future__ import annotations

import operator
from fractions import Fraction


class Frozen:
    """Base of the immutable value types: no setattr, no delattr."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Value(Frozen):
    """A subclass declares `_key`, an `operator.attrgetter`; `__eq__` and
    `__hash__` are closures over it, made once per declaring class."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        key = cls.__dict__.get("_key")
        if key is None:
            return

        def __eq__(self, other):
            if not isinstance(other, cls):
                return NotImplemented
            return key(self) == key(other)

        def __hash__(self):
            return hash(key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__


def _integer(what, value):
    """value as an int; a float, a str or a bool raises ValueError naming it."""
    if type(value) is not bool:
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _integers(what, values):
    """values as a tuple of ints; a float, a str or a bool raises
    ValueError naming it."""
    values = tuple(values)
    if bool not in map(type, values):
        try:
            return tuple(map(operator.index, values))
        except TypeError:
            pass
    for v in values:
        try:
            _integer(what, v)
        except ValueError:
            raise ValueError(f"{what} must be integers, got {v!r}") from None


def _exact(x):
    """An int or Fraction as an int when integral, else unchanged."""
    return x.numerator if x.denominator == 1 else x


def _rational(what, value, *index):
    """value as an int when integral, else as a Fraction; a float, a bool
    or a zero denominator raises ValueError naming the entry, what[index],
    and the value."""
    if type(value) is int:
        return value
    if isinstance(value, (float, bool)):
        problem = "must be an int, a Fraction or a 'p/q' string"
    else:
        try:
            return _exact(Fraction(value))
        except ZeroDivisionError:
            problem = "has a zero denominator"
    where = what + "".join(f"[{i}]" for i in index)
    raise ValueError(f"{where} {problem}, got {value!r}")
