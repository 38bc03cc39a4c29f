"""Broken lines as concrete objects.

A broken line is determined by the number m of components of its non-fixed
locus; points are (component, coordinate) pairs with coordinates on the
extended line, the R-action translates interior coordinates, and all
distances are exact.  No ambient topology is carried: order, action,
distance, concatenation and isomorphism are all determined by this data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from ._value import Frozen, Value, _integer
from .extreal import INF, NEG_INF, ZERO, ExtReal, as_ext
from .rep import RepPoint


@dataclass(frozen=True)
class LinePoint:
    """A point (component, coordinate) in canonical form.

    The glued fixed point between components a and a+1 is written
    (a+1, -inf); build points through BrokenLine.point so the form
    (a, +inf) is rewritten.
    """

    component: int
    coord: ExtReal

    @property
    def is_fixed(self):
        return not self.coord.is_finite

    def key(self):
        return (self.component, self.coord)

    def to_json(self):
        if self.coord == INF:
            t = "+inf"
        elif self.coord == NEG_INF:
            t = "-inf"
        else:
            t = str(self.coord.finite)
        return {"a": self.component, "t": t}


class BrokenLine(Value):
    """A concatenation of m copies of [-inf, inf]."""

    __slots__ = ("m",)
    _key = attrgetter("m")

    def __init__(self, m):
        m = _integer("component count", m)
        if m < 1:
            raise ValueError("a broken line has at least one component")
        object.__setattr__(self, "m", m)

    def point(self, component, coord) -> LinePoint:
        coord = as_ext(coord)
        component = _integer("component", component)
        if not (1 <= component <= self.m):
            raise ValueError(f"component must lie in 1..{self.m}")
        if coord == INF and component < self.m:
            return LinePoint(component + 1, NEG_INF)
        return LinePoint(component, coord)

    @property
    def initial(self):
        return LinePoint(1, NEG_INF)

    @property
    def terminal(self):
        return LinePoint(self.m, INF)

    def __repr__(self):
        return f"BrokenLine(m={self.m})"

    def to_json(self):
        return {"m": self.m}

    @staticmethod
    def from_json(data):
        return BrokenLine(data["m"])


def compare(line: BrokenLine, x: LinePoint, y: LinePoint) -> int:
    """-1, 0, or 1: the total order of the line (lexicographic on
    (component, coordinate)); initial point is minimum, terminal maximum."""
    kx, ky = x.key(), y.key()
    return (kx > ky) - (kx < ky)


def translate(line: BrokenLine, t, x: LinePoint) -> LinePoint:
    """The R-action: shift interior coordinates by t, fix the fixed locus."""
    if x.is_fixed:
        return x
    return line.point(x.component, x.coord + as_ext(Fraction(t)))


def translation_distance(line: BrokenLine, x: LinePoint, y: LinePoint) -> ExtReal:
    """Flow time from x to y: the t with translate(t, x) = y if one
    exists, else +inf when y is above x's whole orbit, -inf when below.

    x must be an interior point.
    """
    if x.is_fixed:
        raise ValueError("translation distance needs an interior source")
    a = x.component
    if y.component < a:
        return NEG_INF
    if y.component > a:
        return INF
    if y.coord == NEG_INF:
        return NEG_INF
    if y.coord == INF:
        return INF
    return y.coord - x.coord


def concatenate(left: BrokenLine, right: BrokenLine):
    """Glue the terminal point of left to the initial point of right.

    Returns (line, embed_left, embed_right); the embeddings preserve
    order, the R-action, and translation distance, and cross distances
    come out as +/-inf.
    """
    glued = BrokenLine(left.m + right.m)

    def embed_left(p: LinePoint) -> LinePoint:
        return glued.point(p.component, p.coord)

    def embed_right(p: LinePoint) -> LinePoint:
        return glued.point(p.component + left.m, p.coord)

    return glued, embed_left, embed_right


class LineIso(Value):
    """An isomorphism of broken lines with equal m: a per-component shift."""

    __slots__ = ("source", "target", "shifts")
    _key = attrgetter("source.m", "shifts")

    def __init__(self, source: BrokenLine, target: BrokenLine, shifts):
        if source.m != target.m:
            raise ValueError("isomorphic broken lines have equal m")
        shifts = tuple(Fraction(s) for s in shifts)
        if len(shifts) != source.m:
            raise ValueError("one shift per component")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "shifts", shifts)

    def apply(self, p: LinePoint) -> LinePoint:
        if p.is_fixed:
            return p
        return self.target.point(p.component, p.coord + self.shifts[p.component - 1])

    def then(self, other: "LineIso") -> "LineIso":
        if other.source != self.target:
            raise ValueError(f"isomorphisms not composable: {self.target!r} != {other.source!r}")
        return LineIso(
            self.source,
            other.target,
            [a + b for a, b in zip(self.shifts, other.shifts)],
        )

    def inverse(self) -> "LineIso":
        return LineIso(self.target, self.source, [-s for s in self.shifts])

    def __repr__(self):
        return f"LineIso(shifts={[str(s) for s in self.shifts]})"


class HomSet(Frozen):
    """The isomorphisms from one broken line to another: empty unless the
    component counts agree, and then freely parametrized by shift vectors."""

    __slots__ = ("source", "target")

    def __init__(self, source: BrokenLine, target: BrokenLine):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)

    @property
    def is_empty(self):
        return self.source.m != self.target.m

    def make(self, shifts) -> LineIso:
        if self.is_empty:
            raise ValueError("hom set is empty: component counts differ")
        return LineIso(self.source, self.target, shifts)

    def identity(self) -> LineIso:
        return self.make([0] * self.source.m)


def fiber_over(point: RepPoint):
    """The broken line over a RepPoint, with its marked points.

    Components are the finite-distance classes of the point, in base
    order; each label i is marked at signed distance from the chosen
    basepoint of its class (the maximal element, largest label breaking
    ties), so that d(mark_i, mark_j) = alpha(i, j).  The basepoint is the
    last of its class in the canonical enumeration, so one reverse pass
    marks each label at minus the sum of the finite gaps from it to the
    basepoint.  Returns (BrokenLine, {label: LinePoint}), labels in
    enumeration order.
    """
    gaps = point.gaps()
    line = BrokenLine(1 + sum(not g.is_finite for g in gaps))
    a, run = line.m, ZERO
    placed = [line.point(a, run)]
    for g in reversed(gaps):
        if g.is_finite:
            run = run + g
        else:
            a, run = a - 1, ZERO
        placed.append(line.point(a, -run))
    return line, dict(zip(point.base.enumeration(), reversed(placed)))


def find_marked_iso(source, source_marks, target, target_marks):
    """The unique marked isomorphism, or None.

    Marks are dicts label -> LinePoint over a common label set; an iso
    exists iff the component assignments agree and one shift per
    component reconciles all coordinates.  Every component must carry a
    mark for uniqueness.
    """
    if source.m != target.m:
        return None
    if set(source_marks) != set(target_marks):
        return None
    shifts = [None] * source.m
    for label, p in source_marks.items():
        q = target_marks[label]
        if p.component != q.component or p.is_fixed or q.is_fixed:
            return None
        delta = q.coord - p.coord
        want = delta.finite
        a = p.component - 1
        if shifts[a] is None:
            shifts[a] = want
        elif shifts[a] != want:
            return None
    if any(s is None for s in shifts):
        return None
    return LineIso(source, target, shifts)
