"""The value rules shared by every hand-written value type: once built,
setting or deleting an attribute raises AttributeError naming the
instance's own class, and the object keeps its value and hash.  A
`Value` is equal to another exactly when their data is, and equal values
hash alike; the other `Frozen` types keep identity equality."""

import itertools
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import brokenlines
from brokenlines._value import Frozen, Value
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
    enumerate_convex_equivalences,
    preorder_ranks,
)
from brokenlines.rep import RepPoint, stratum_samples
from brokenlines.sheaves import ConstructibleSheaf, GlobalSheaf, global_to_constructible
from brokenlines.twisted import (
    TwFunctor,
    TwMorphism,
    TwObject,
    algebra_to_functor,
    sharp,
    tw_enumerate,
)
from brokenlines.vect import (
    BUILTIN_ALGEBRAS,
    LinMap,
    NonunitalAlgebra,
    VectObject,
    rational_algebra,
    zero_algebra,
)

from test_rep import valid_tables
from test_vect import linmaps, perturbed_algebras


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


def preorders(top):
    return [LinPreorder(r) for n in range(1, top + 1) for r in preorder_ranks(n)]


def order_morphisms():
    """Every morphism between preorders of size <= 2, and the surjections
    between standard orders of size <= 3."""
    out = []
    for source, target in itertools.product(preorders(2), repeat=2):
        for m in itertools.product(range(target.n), repeat=source.n):
            try:
                out.append(OrderMorphism(source, target, m))
            except ValueError:
                pass
    for n, k in itertools.combinations_with_replacement(range(1, 4), 2):
        source, target = LinOrder.standard(k), LinOrder.standard(n)
        out += [OrderMorphism(source, target, m)
                for m in itertools.combinations_with_replacement(range(n), k)
                if set(m) == set(range(n))]
    return out


def tw_object(x):
    """A new TwObject equal to x, sharing none of its parts."""
    order = LinOrder(x.order.ranks)
    return TwObject(order, ConvexEquiv(order, x.rel.classes))


# several values of each Value type; each call builds new instances
FAMILIES = {
    VectObject: lambda: [VectObject(d) for d in range(5)],
    LinMap: lambda: [
        LinMap(VectObject(s), VectObject(t), rows)
        for s, t in itertools.product(range(3), repeat=2)
        for rows in itertools.product(
            itertools.product((0, 1, Fraction(1, 2)), repeat=s), repeat=t
        )
        if s * t <= 2
    ],
    NonunitalAlgebra: lambda: [build() for build in BUILTIN_ALGEBRAS.values()]
    + [zero_algebra(d) for d in (0, 2, 3)],
    LinPreorder: lambda: preorders(4),
    LinOrder: lambda: [
        LinOrder(p) for n in range(1, 5) for p in itertools.permutations(range(n))
    ],
    OrderMorphism: order_morphisms,
    ConvexEquiv: lambda: [e for p in preorders(3) for e in enumerate_convex_equivalences(p)],
    Amalgam: lambda: [
        a
        for left, right in itertools.product(
            [LinOrder.standard(1), LinOrder.standard(2), LinOrder([1, 0])], repeat=2
        )
        for a in enumerate_amalgams(left, right)
    ],
    RepPoint: lambda: [
        point
        for p in preorders(3)
        for rel in enumerate_convex_equivalences(p)
        for point in stratum_samples(p, rel, 2)
    ],
    BrokenLine: lambda: [BrokenLine(m) for m in range(1, 5)],
    LineIso: lambda: [
        LineIso(BrokenLine(m), BrokenLine(m), shifts)
        for m in range(1, 3)
        for shifts in itertools.product((0, 1, Fraction(-1, 2)), repeat=m)
    ],
    TwObject: lambda: [tw_object(x) for x in tw_enumerate(3)[0]],
    TwMorphism: lambda: [
        TwMorphism(tw_object(f.source), tw_object(f.target), f.mapping)
        for f in tw_enumerate(3)[1]
    ],
}


def state(value):
    """The data of a value: its slots, each nested Value by its own data."""
    if not isinstance(value, Value):
        return value
    slots = [name for klass in type(value).__mro__ for name in vars(klass).get("__slots__", ())]
    return tuple(state(getattr(value, name)) for name in slots)


def distinct(values):
    """The first of the values with each data, in the order built."""
    return list({state(v): v for v in values}.values())


def assert_one_rule(a, b):
    """a and b are equal exactly when their data and their keys are, both
    ways round, and equal values hash alike."""
    same = state(a) == state(b)
    assert (a == b) is same and (b == a) is same and (a != b) is not same
    assert (type(a)._key(a) == type(b)._key(b)) is same
    if same:
        assert hash(a) == hash(b)


def test_every_value_type_has_a_family():
    def subclasses(cls):
        return {cls} | {s for sub in cls.__subclasses__() for s in subclasses(sub)}

    assert subclasses(Value) - {Value} == set(FAMILIES)


@pytest.mark.parametrize("cls", FAMILIES, ids=lambda cls: cls.__name__)
def test_equal_exactly_when_the_data_is(cls):
    values, twins = distinct(FAMILIES[cls]()), distinct(FAMILIES[cls]())
    assert all(type(v) is cls for v in values) and len(values) > 1
    for value, twin in zip(values, twins):
        assert value is not twin
        assert_one_rule(value, twin)
    for a, b in itertools.product(values, twins):
        assert_one_rule(a, b)
    assert len(set(values) | set(twins)) == len(values)


@given(linmaps(), linmaps())
def test_linmaps_equal_exactly_when_the_data_is(a, b):
    assert_one_rule(a, b)
    assert_one_rule(a, LinMap(VectObject(a.source.dim), VectObject(a.target.dim), a.rows))


@given(perturbed_algebras(), perturbed_algebras())
def test_algebras_equal_exactly_when_the_data_is(a, b):
    assert_one_rule(a, b)
    assert_one_rule(a, NonunitalAlgebra(a.dim, a.c))


@given(valid_tables(), valid_tables())
def test_rep_points_equal_exactly_when_the_data_is(left, right):
    (base, gaps, table), (other, other_gaps, _) = left, right
    point = RepPoint(base, table)
    assert_one_rule(point, RepPoint.from_gaps(LinPreorder(base.ranks), gaps))
    assert_one_rule(point, RepPoint.from_gaps(other, other_gaps))


def test_cross_type_equality_is_not_implemented():
    firsts = {cls: build()[0] for cls, build in FAMILIES.items()}
    others = list(firsts.values()) + [ExtReal(1), 1, (), None, sharp(1).order.ranks]
    related = {LinOrder, LinPreorder}
    for cls, value in firsts.items():
        for other in others:
            if other is value or {cls, type(other)} == related:
                continue
            assert value.__eq__(other) is NotImplemented, (cls, other)
            assert value != other


def test_a_linear_order_equals_the_preorder_with_its_ranks():
    for ranks in ([0], [0, 1], [2, 0, 1]):
        order, preorder = LinOrder(ranks), LinPreorder(ranks)
        assert order == preorder and preorder == order
        assert hash(order) == hash(preorder)
    assert LinOrder([0, 1]) != LinPreorder([0, 0])


@given(st.one_of(st.integers(-10**30, 10**30), st.fractions()))
def test_ext_reals_equal_and_hash_as_the_number_they_hold(x):
    value = ExtReal(x)
    assert value == x and x == value
    assert hash(value) == hash(x)


@pytest.mark.parametrize(
    "cls", [HomSet, ISectionData, GlobalSheaf, ConstructibleSheaf, TwFunctor],
    ids=lambda cls: cls.__name__,
)
def test_the_other_frozen_types_keep_identity_equality(cls):
    value, twin = VALUES[cls](), VALUES[cls]()
    assert not isinstance(value, Value)
    assert cls.__eq__ is object.__eq__
    assert value == value and value != twin


def test_only_the_value_base_and_extreal_define_equality_or_hashing():
    package = Path(brokenlines.__file__).parent
    defining = {
        path.name
        for path in package.glob("*.py")
        if re.search(r"def (__eq__|__hash__)\b", path.read_text())
    }
    assert defining == {"_value.py", "extreal.py"}
