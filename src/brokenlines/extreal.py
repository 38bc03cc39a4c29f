"""Exact arithmetic on the extended line [-inf, inf].

Finite values are rationals (``fractions.Fraction``), the infinities are
real elements of the type rather than floats.  Addition follows
t + inf = inf; the combination inf + (-inf) has no value and raises.
`ExtReal(x)` takes a finite rational: a `Fraction` is stored as given
and any other value is read by `_value._rational`, which rejects a float;
the infinities are the constants `INF` and `NEG_INF`, and `as_ext` is the
coercion that passes an ExtReal through.  Comparing or adding two
ExtReals builds no Fraction but the sum.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Frozen, _rational


class UndefinedSum(ArithmeticError):
    """Raised for inf + (-inf), which is undefined on the extended line."""


class ExtReal(Frozen):
    """A point of [-inf, inf]: a rational, +inf, or -inf.

    Instances are immutable and totally ordered, with
    -inf < every rational < +inf.
    """

    __slots__ = ("sign", "finite")

    def __init__(self, value=0):
        if type(value) is not Fraction:
            value = Fraction(_rational("ExtReal value", value))
        object.__setattr__(self, "sign", 0)
        object.__setattr__(self, "finite", value)

    @property
    def is_finite(self):
        return self.sign == 0

    def __add__(self, other):
        if type(other) is not ExtReal:
            other = as_ext(other)
        if self.sign == 0 and other.sign == 0:
            return ExtReal(self.finite + other.finite)
        if self.sign != 0 and other.sign != 0 and self.sign != other.sign:
            raise UndefinedSum("inf + (-inf) is undefined")
        sign = self.sign if self.sign != 0 else other.sign
        return INF if sign > 0 else NEG_INF

    __radd__ = __add__

    def __neg__(self):
        if self.sign == 0:
            return ExtReal(-self.finite)
        return NEG_INF if self.sign > 0 else INF

    def __sub__(self, other):
        return self + (-as_ext(other))

    def _key(self):
        # -inf and +inf compare below/above every rational
        if self.sign == 0:
            return (0, self.finite)
        return _NEG_KEY if self.sign < 0 else _POS_KEY

    def __eq__(self, other):
        if type(other) is ExtReal:
            return self.sign == other.sign and self.finite == other.finite
        # only rationals are compared, so that equal values hash alike;
        # the finite part of +-inf is None, which equals no rational
        if isinstance(other, (int, Fraction)):
            return self.finite == other
        return NotImplemented

    def __lt__(self, other):
        return self._key() < as_ext(other)._key()

    def __le__(self, other):
        return self._key() <= as_ext(other)._key()

    def __gt__(self, other):
        return self._key() > as_ext(other)._key()

    def __ge__(self, other):
        return self._key() >= as_ext(other)._key()

    def __hash__(self):
        return hash(self.finite) if self.sign == 0 else hash(self._key())

    def __repr__(self):
        if self.sign > 0:
            return "ExtReal(+inf)"
        if self.sign < 0:
            return "ExtReal(-inf)"
        return f"ExtReal({self.finite})"

    def __str__(self):
        if self.sign > 0:
            return "+inf"
        if self.sign < 0:
            return "-inf"
        return str(self.finite)

    def to_json(self):
        if self.sign > 0:
            return "inf"
        if self.sign < 0:
            return "-inf"
        return {"fin": str(self.finite)}

    @staticmethod
    def from_json(data):
        if data == "inf":
            return INF
        if data == "-inf":
            return NEG_INF
        return ExtReal(_rational("fin", data["fin"]))


_NEG_KEY = (-1, 0)
_POS_KEY = (1, 0)


INF = ExtReal._of(1, None)
NEG_INF = ExtReal._of(-1, None)
ZERO = ExtReal(0)


def as_ext(value) -> ExtReal:
    """Coerce a Fraction/int/str or ExtReal to an ExtReal."""
    if isinstance(value, ExtReal):
        return value
    return ExtReal(value)
