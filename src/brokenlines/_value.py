"""The rules every hand-written value type of the package follows.

A value is immutable once built: its constructor stores its slots with
`object.__setattr__`, and afterwards setting or deleting any attribute
raises AttributeError naming the instance's own class.  Integer inputs
go through `operator.index`, so a float or a str, which int() would
truncate or parse, is rejected, never truncated.
"""

from __future__ import annotations

import operator


class Frozen:
    """Base of the immutable value types: no setattr, no delattr."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _integer(what, value):
    """value as an int; a float or a str raises ValueError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _integers(what, values):
    """values as a tuple of ints; a float or a str raises ValueError naming it."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        for v in values:
            try:
                operator.index(v)
            except TypeError:
                raise ValueError(f"{what} must be integers, got {v!r}") from None
        raise
