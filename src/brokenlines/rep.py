"""Points of Rep(I, BR+): exact cocycles on comparable pairs.

A point assigns to every comparable pair (i, j) with i <= j a value in
(-inf, inf] subject to alpha(i,i) = 0 and the additive cocycle
alpha(i,j) + alpha(j,k) = alpha(i,k), with finiteness forced on pairs that
compare both ways.  Everything in this module is exact rational
arithmetic; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .extreal import INF, NEG_INF, ZERO, ExtReal, as_ext
from .orders import ConvexEquiv, LinOrder, LinPreorder, OrderMorphism, concatenate_orders

# Deterministic rational grid used whenever a stratum is sampled.
GRID = tuple(Fraction(k, 2) for k in range(1, 11))


@dataclass(frozen=True)
class RepViolation:
    kind: str       # "diagonal" | "cocycle" | "finiteness" | "range"
    where: tuple
    message: str


class RepPoint:
    """A functor I -> BR+ given by its value table on comparable pairs."""

    __slots__ = ("base", "table")

    def __init__(self, base: LinPreorder, table: dict):
        pairs = set(base.comparable_pairs())
        tbl = {k: as_ext(v) for k, v in table.items()}
        if set(tbl) != pairs:
            raise ValueError("table must cover exactly the comparable pairs")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "table", tbl)

    def __setattr__(self, name, value):
        raise AttributeError("RepPoint is immutable")

    @classmethod
    def from_gaps(cls, base: LinPreorder, gaps) -> "RepPoint":
        """Build from consecutive gaps along the canonical enumeration.

        gaps[m] is alpha(e[m], e[m+1]); all other values are forced by the
        cocycle.  Rejects malformed input (wrong length, -inf, or an
        infinite gap in a slot where finiteness is forced).
        """
        enum = base.enumeration()
        gaps = [as_ext(g) for g in gaps]
        if len(gaps) != base.n - 1:
            raise ValueError("need exactly n-1 gaps")
        for m, g in enumerate(gaps):
            if g == NEG_INF:
                raise ValueError("gap values live in (-inf, inf]")
            if base.eq(enum[m], enum[m + 1]) and not g.is_finite:
                raise ValueError(
                    f"gap {m} joins equivalent elements and must be finite"
                )
        pos = {lab: p for p, lab in enumerate(enum)}
        table = {}
        for i, j in base.comparable_pairs():
            p, q = pos[i], pos[j]
            if p <= q:
                total = ZERO
                for m in range(p, q):
                    total = total + gaps[m]
            else:
                # i and j compare both ways; the intervening gaps are finite
                total = ZERO
                for m in range(q, p):
                    total = total + gaps[m]
                total = -total
            table[(i, j)] = total
        return cls(base, table)

    def alpha(self, i, j) -> ExtReal:
        if (i, j) not in self.table:
            raise ValueError(f"({i},{j}) is not a comparable pair")
        return self.table[(i, j)]

    def validate(self):
        """None if valid, otherwise the first violation found."""
        base = self.base
        for i in range(base.n):
            if self.table[(i, i)] != ZERO:
                return RepViolation(
                    "diagonal", (i,), f"alpha({i},{i}) != 0"
                )
        for key in sorted(self.table):
            if self.table[key] == NEG_INF:
                return RepViolation(
                    "range", key, f"alpha{key} = -inf is out of range"
                )
        for i, j in sorted(self.table):
            if base.eq(i, j) and not self.table[(i, j)].is_finite:
                return RepViolation(
                    "finiteness",
                    (i, j),
                    f"{i} and {j} compare both ways but alpha is infinite",
                )
        for i in range(base.n):
            for j in range(base.n):
                for k in range(base.n):
                    if base.leq(i, j) and base.leq(j, k):
                        lhs = self.table[(i, j)] + self.table[(j, k)]
                        if lhs != self.table[(i, k)]:
                            return RepViolation(
                                "cocycle",
                                (i, j, k),
                                f"alpha({i},{j}) + alpha({j},{k}) "
                                f"!= alpha({i},{k})",
                            )
        return None

    def gaps(self, enumeration=None):
        return chart_coordinates(self, enumeration)[0]

    def __eq__(self, other):
        if not isinstance(other, RepPoint):
            return NotImplemented
        return self.base == other.base and self.table == other.table

    def __hash__(self):
        items = tuple((k, self.table[k]) for k in sorted(self.table))
        return hash((self.base.ranks, items))

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


def chart_coordinates(point: RepPoint, enumeration=None):
    """Gap vector along a nondecreasing enumeration, plus per-slot flags
    telling whether finiteness is forced (consecutive elements comparing
    both ways).  Inverse of rep_from_gaps for the standard order."""
    base = point.base
    if enumeration is None:
        enumeration = base.enumeration()
    enumeration = tuple(enumeration)
    if sorted(enumeration) != list(range(base.n)):
        raise ValueError("enumeration must list each label exactly once")
    for m in range(1, base.n):
        if not base.leq(enumeration[m - 1], enumeration[m]):
            raise ValueError("enumeration must be nondecreasing")
    gaps = []
    forced = []
    for m in range(1, base.n):
        i, j = enumeration[m - 1], enumeration[m]
        gaps.append(point.alpha(i, j))
        forced.append(base.leq(j, i))
    return gaps, forced


def stratum_of(point: RepPoint) -> ConvexEquiv:
    """The convex equivalence of finite-distance classes: i ~ j iff the
    distance between them is finite.  point lies in K_E iff this returns E."""
    base = point.base
    enum = base.enumeration()
    gaps, _ = chart_coordinates(point, enum)
    classes = []
    current = [enum[0]]
    for m in range(1, base.n):
        if gaps[m - 1].is_finite:
            current.append(enum[m])
        else:
            classes.append(tuple(current))
            current = [enum[m]]
    classes.append(tuple(current))
    return ConvexEquiv(base, classes)


def in_stratum(point: RepPoint, rel: ConvexEquiv) -> bool:
    """Membership in K_E: finite distance exactly on E-related pairs."""
    return stratum_of(point) == rel


def u_contains(point: RepPoint, rel: ConvexEquiv) -> bool:
    """Membership in the open set U_E: i E j implies alpha(i,j) finite.
    Equivalently E refines the stratum of the point."""
    if rel.base != point.base:
        raise ValueError("relation must live on the point's base")
    return all(
        point.alpha(i, j).is_finite
        for i, j in point.base.comparable_pairs()
        if rel.relates(i, j)
    )


def pullback_rep(f: OrderMorphism, point: RepPoint) -> RepPoint:
    """Precomposition with f: beta(i, i') = alpha(f(i), f(i'))."""
    if point.base != f.target:
        raise ValueError("point must live on the target of f")
    table = {
        (i, j): point.alpha(f(i), f(j))
        for i, j in f.source.comparable_pairs()
    }
    return RepPoint(f.source, table)


def phi_membership(point: RepPoint, rel: ConvexEquiv) -> bool:
    """Membership in Phi(I, ~): every finite distance happens inside a
    ~-class."""
    if rel.base != point.base:
        raise ValueError("relation must live on the point's base")
    return all(
        rel.relates(i, j)
        for i, j in point.base.comparable_pairs()
        if point.alpha(i, j).is_finite
    )


def concat_reps(left: RepPoint, right: RepPoint) -> RepPoint:
    """The glued point on I * J: restricts to the inputs, with distance
    +inf from every element of I to every element of J."""
    base = concatenate_orders(left.base, right.base)
    shift = left.base.n
    table = {}
    for (i, j), v in left.table.items():
        table[(i, j)] = v
    for (i, j), v in right.table.items():
        table[(i + shift, j + shift)] = v
    for i in range(left.base.n):
        for j in range(right.base.n):
            table[(i, j + shift)] = INF
    return RepPoint(base, table)


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
