"""Points of Rep(I, BR+): exact cocycles on comparable pairs.

A point assigns to every comparable pair (i, j) with i <= j a value in
(-inf, inf] subject to alpha(i,i) = 0 and the additive cocycle
alpha(i,j) + alpha(j,k) = alpha(i,k), with finiteness forced on pairs that
compare both ways.  The cocycle forces every value from the gaps along a
nondecreasing enumeration, so a point is stored as its base and the tuple
of its gaps along `base.enumeration()`.  A gap vector with no -inf and
finite gaps between equivalent elements is a valid point, and no other
is ever stored, so nothing re-validates a point: `alpha` sums gaps, the
stratum K_E is read off the infinite gaps, and U_E and Phi membership
are refinement checks against it.  The `RepPoint` constructor is the one
path that accepts a full value table; it reads the gaps off the adjacent
pairs and checks every entry against the value they force.  Everything
in this module is exact rational arithmetic; no floats.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

from ._value import Value
from .extreal import INF, NEG_INF, ZERO, ExtReal, as_ext
from .orders import ConvexEquiv, LinOrder, LinPreorder, OrderMorphism, concatenate_orders

# Deterministic rational grid used whenever a stratum is sampled.
GRID = tuple(Fraction(k, 2) for k in range(1, 11))


class RepPoint(Value):
    """A functor I -> BR+, stored as its gaps along base.enumeration()."""

    __slots__ = ("base", "_gaps")
    _key = attrgetter("base.ranks", "_gaps")

    def __init__(self, base: LinPreorder, table: dict):
        """The point whose value on each comparable pair (i, j) is
        table[(i, j)].

        The gaps are the values on adjacent pairs of the enumeration,
        checked as in `from_gaps`; every entry must then be the value the
        gaps force, else ValueError names the first pair that differs and
        both values.
        """
        table = {k: as_ext(v) for k, v in table.items()}
        if set(table) != set(base.comparable_pairs()):
            raise ValueError("table must cover exactly the comparable pairs")
        enum = base.enumeration()
        point = RepPoint.from_gaps(base, [table[pair] for pair in zip(enum, enum[1:])])
        for i, j in sorted(table):
            forced = point.alpha(i, j)
            if table[(i, j)] != forced:
                raise ValueError(
                    f"alpha({i},{j}) = {table[(i, j)]}, but the gaps force {forced}"
                )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "_gaps", point._gaps)

    @classmethod
    def from_gaps(cls, base: LinPreorder, gaps) -> "RepPoint":
        """The point with gaps[m] = alpha(e[m], e[m+1]) along the canonical
        enumeration e; the cocycle forces every other value.

        Rejects a wrong length, a -inf gap, and an infinite gap between
        equivalent elements, where finiteness is forced.  Every other gap
        vector is a point.
        """
        gaps = tuple(map(as_ext, gaps))
        if len(gaps) != base.n - 1:
            raise ValueError("need exactly n-1 gaps")
        enum = base.enumeration()
        for m, g in enumerate(gaps):
            i, j = enum[m], enum[m + 1]
            if g == NEG_INF:
                raise ValueError(
                    f"gap {m} = alpha({i},{j}) is -inf; gap values live in (-inf, inf]"
                )
            if base.eq(i, j) and not g.is_finite:
                raise ValueError(
                    f"gap {m} = alpha({i},{j}) joins equivalent elements "
                    f"and must be finite"
                )
        point = object.__new__(cls)
        object.__setattr__(point, "base", base)
        object.__setattr__(point, "_gaps", gaps)
        return point

    def alpha(self, i, j) -> ExtReal:
        """The sum of the gaps from i to j, negated when j comes first in
        the enumeration (then i and j compare both ways)."""
        base = self.base
        if not (0 <= i < base.n and 0 <= j < base.n and base.leq(i, j)):
            raise ValueError(f"({i},{j}) is not a comparable pair")
        enum = base.enumeration()
        p, q = enum.index(i), enum.index(j)
        if p <= q:
            return sum(self._gaps[p:q], ZERO)
        return -sum(self._gaps[q:p], ZERO)

    def gaps(self):
        return list(self._gaps)

    def __repr__(self):
        return f"RepPoint({self.base!r}, gaps={[str(g) for g in self.gaps()]})"

    def to_json(self):
        return {
            "base": self.base.to_json(),
            "gaps": [g.to_json() for g in self.gaps()],
        }

    @staticmethod
    def from_json(data):
        base = LinPreorder.from_json(data["base"])
        gaps = [ExtReal.from_json(g) for g in data["gaps"]]
        return RepPoint.from_gaps(base, gaps)


def rep_from_gaps(gaps) -> RepPoint:
    """A point on the standard order [n] = {0 < ... < n} from its gap
    vector (alpha(i-1, i) = gaps[i-1])."""
    gaps = list(gaps)
    return RepPoint.from_gaps(LinOrder.standard(len(gaps) + 1), gaps)


def chart_coordinates(point: RepPoint):
    """The gaps along the canonical enumeration `base.enumeration()`, and
    per slot whether its finiteness is forced (its ends compare both ways)."""
    enum = point.base.enumeration()
    return list(point._gaps), [point.base.leq(j, i) for i, j in zip(enum, enum[1:])]


def stratum_of(point: RepPoint) -> ConvexEquiv:
    """The convex equivalence of finite-distance classes: i ~ j iff the
    distance between them is finite.  point lies in K_E iff this returns E."""
    enum = point.base.enumeration()
    classes = [[enum[0]]]
    for label, gap in zip(enum[1:], point._gaps):
        if gap.is_finite:
            classes[-1].append(label)
        else:
            classes.append([label])
    return ConvexEquiv(point.base, classes)


def in_stratum(point: RepPoint, rel: ConvexEquiv) -> bool:
    """Membership in K_E: finite distance exactly on E-related pairs."""
    return stratum_of(point) == rel


def u_contains(point: RepPoint, rel: ConvexEquiv) -> bool:
    """Membership in the open set U_E: i E j implies alpha(i,j) finite.
    Equivalently E refines the stratum of the point."""
    if rel.base != point.base:
        raise ValueError("relation must live on the point's base")
    return rel.refines(stratum_of(point))


def pullback_rep(f: OrderMorphism, point: RepPoint) -> RepPoint:
    """Precomposition with f: beta(i, i') = alpha(f(i), f(i'))."""
    if point.base != f.target:
        raise ValueError("point must live on the target of f")
    enum = f.source.enumeration()
    return RepPoint.from_gaps(
        f.source, [point.alpha(f(i), f(j)) for i, j in zip(enum, enum[1:])]
    )


def phi_membership(point: RepPoint, rel: ConvexEquiv) -> bool:
    """Membership in Phi(I, ~): every finite distance happens inside a
    ~-class.  Equivalently the stratum of the point refines ~."""
    if rel.base != point.base:
        raise ValueError("relation must live on the point's base")
    return stratum_of(point).refines(rel)


def concat_reps(left: RepPoint, right: RepPoint) -> RepPoint:
    """The glued point on I * J: restricts to the inputs, with distance
    +inf from every element of I to every element of J."""
    base = concatenate_orders(left.base, right.base)
    return RepPoint.from_gaps(base, left._gaps + (INF,) + right._gaps)


def stratum_samples(base: LinPreorder, rel: ConvexEquiv, count=3) -> list:
    """Deterministic sample points of the stratum K_rel.

    Finite gaps cycle through the fixed rational grid; infinite gaps go
    where the stratum dictates.
    """
    if rel.base != base:
        raise ValueError("relation must live on the given base")
    enum = base.enumeration()
    out = []
    for s in range(count):
        gaps = []
        for m in range(1, base.n):
            if rel.relates(enum[m - 1], enum[m]):
                gaps.append(ExtReal(GRID[(s + m - 1) % len(GRID)]))
            else:
                gaps.append(INF)
        out.append(RepPoint.from_gaps(base, gaps))
    return out
