"""The value rules shared by every hand-written value type: once built,
setting or deleting an attribute raises AttributeError naming the
instance's own class, and the object keeps its value and hash."""

from fractions import Fraction

import pytest

from brokenlines._value import Frozen
from brokenlines.extreal import ExtReal
from brokenlines.families import ISectionData, MarkedFiber
from brokenlines.lines import BrokenLine, HomSet, LineIso, fiber_over
from brokenlines.orders import (
    Amalgam,
    ConvexEquiv,
    LinOrder,
    LinPreorder,
    OrderMorphism,
    enumerate_amalgams,
)
from brokenlines.rep import RepPoint
from brokenlines.sheaves import ConstructibleSheaf, GlobalSheaf, global_to_constructible
from brokenlines.twisted import TwFunctor, TwMorphism, TwObject, algebra_to_functor, sharp
from brokenlines.vect import LinMap, NonunitalAlgebra, VectObject, rational_algebra


def _fiber():
    line, marks = fiber_over(RepPoint.from_gaps(LinOrder.standard(2), [Fraction(1)]))
    return MarkedFiber(line, marks)


# one factory per value type; each call builds a new, equal instance
VALUES = {
    ExtReal: lambda: ExtReal(Fraction(1, 2)),
    LinPreorder: lambda: LinPreorder((0, 0, 1)),
    LinOrder: lambda: LinOrder.standard(3),
    OrderMorphism: lambda: OrderMorphism(LinOrder.standard(3), LinOrder.standard(2), (0, 0, 1)),
    ConvexEquiv: lambda: ConvexEquiv(LinOrder.standard(3), [(0, 1), (2,)]),
    Amalgam: lambda: enumerate_amalgams(LinOrder.standard(2), LinOrder.standard(2))[1],
    RepPoint: lambda: RepPoint.from_gaps(LinOrder.standard(3), [1, 2]),
    BrokenLine: lambda: BrokenLine(2),
    LineIso: lambda: LineIso(BrokenLine(2), BrokenLine(2), [1, Fraction(1, 3)]),
    HomSet: lambda: HomSet(BrokenLine(1), BrokenLine(2)),
    ISectionData: lambda: ISectionData(LinOrder.standard(2), {0: _fiber()}),
    VectObject: lambda: VectObject(2),
    LinMap: lambda: LinMap(VectObject(2), VectObject(1), [[1, Fraction(1, 2)]]),
    NonunitalAlgebra: rational_algebra,
    GlobalSheaf: lambda: GlobalSheaf.from_algebra(rational_algebra(), 2),
    ConstructibleSheaf: lambda: global_to_constructible(
        GlobalSheaf.from_algebra(rational_algebra(), 2), LinOrder.standard(2)
    ),
    TwObject: lambda: sharp(2),
    TwMorphism: lambda: TwMorphism.identity(sharp(2)),
    TwFunctor: lambda: algebra_to_functor(rational_algebra(), 2),
}


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_setattr_and_delattr_raise_and_name_the_class(cls):
    value, twin = VALUES[cls](), VALUES[cls]()
    assert type(value) is cls and isinstance(value, Frozen)
    slots = [name for klass in cls.__mro__ for name in vars(klass).get("__slots__", ())]
    assert slots
    before = {name: getattr(value, name) for name in slots}
    hashed = hash(value)
    message = f"^{cls.__name__} is immutable$"
    for name in slots + ["other"]:
        with pytest.raises(AttributeError, match=message):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=message):
            delattr(value, name)
    assert all(getattr(value, name) is v for name, v in before.items())
    assert hash(value) == hashed
    if type(value).__eq__ is not object.__eq__:
        assert value == twin and hash(value) == hash(twin)
