"""Finite-sample families of broken lines.

A family here is a finite list of fibers indexed by sample ids, plus
declared adjacency edges and declared limit samples; the topological base
of the universal construction is replaced by these samples.  Continuity
becomes a sampled check with a configurable delta, semicontinuity a
directional check toward declared limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._value import Frozen
from .extreal import ExtReal
from .lines import (
    BrokenLine,
    concatenate,
    fiber_over,
    find_marked_iso,
    translation_distance,
)
from .orders import LinPreorder, _monotone, concatenate_orders
from .rep import RepPoint, concat_reps, stratum_of

DEFAULT_DELTA = Fraction(1, 100)


@dataclass(frozen=True)
class SampledFamily:
    index: LinPreorder
    samples: tuple          # ((sample id, RepPoint), ...)
    edges: tuple = ()       # pairs of sample ids declared consecutive
    limits: frozenset = frozenset()  # sample ids declared as limits

    def __post_init__(self):
        ids = [s for s, _ in self.samples]
        if len(set(ids)) != len(ids):
            raise ValueError("sample ids must be distinct")
        for sid, point in self.samples:
            if point.base != self.index:
                raise ValueError(f"sample {sid} lives on the wrong index order")
        for a, b in self.edges:
            if a not in ids or b not in ids:
                raise ValueError(f"edge ({a},{b}) names unknown samples")
        if not self.limits <= set(ids):
            raise ValueError("limits must name samples")

    def point(self, sid) -> RepPoint:
        for s, p in self.samples:
            if s == sid:
                return p
        raise KeyError(sid)

    def to_json(self):
        return {
            "index": self.index.to_json(),
            "samples": [
                {"id": s, "gaps": [g.to_json() for g in p.gaps()]}
                for s, p in self.samples
            ],
            "edges": [list(e) for e in self.edges],
            "limits": sorted(self.limits),
        }

    @staticmethod
    def from_json(data):
        index = LinPreorder.from_json(data["index"])
        samples = tuple(
            (
                entry["id"],
                RepPoint.from_gaps(
                    index, [ExtReal.from_json(g) for g in entry["gaps"]]
                ),
            )
            for entry in data["samples"]
        )
        return SampledFamily(
            index,
            samples,
            tuple(tuple(e) for e in data.get("edges", [])),
            frozenset(data.get("limits", [])),
        )


@dataclass(frozen=True)
class MarkedFiber:
    line: BrokenLine
    marks: dict  # label -> LinePoint


class ISectionData(Frozen):
    """Per-sample marked fibers subject to the section conditions."""

    __slots__ = ("index", "fibers")

    def __init__(self, index: LinPreorder, fibers: dict):
        for sid, fiber in fibers.items():
            problem = section_violation(index, fiber.line, fiber.marks)
            if problem is not None:
                raise ValueError(f"sample {sid}: {problem}")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "fibers", dict(fibers))

    def __getitem__(self, sid) -> MarkedFiber:
        return self.fibers[sid]


def section_violation(index: LinPreorder, line: BrokenLine, marks: dict):
    """None, or a message naming the first failed section condition:
    marks are interior, have no -inf gap along the index order, and hit
    every component.  Between interior marks d(mark i, mark j) = -inf
    exactly when j's component comes before i's, so the gap condition is
    that components do not decrease along the index order."""
    if set(marks) != set(range(index.n)):
        return "marks must cover the index labels"
    for i, p in marks.items():
        if p.is_fixed:
            return f"mark {i} is a fixed point"
    components = [marks[i].component for i in range(index.n)]
    bad = _monotone(index.ranks, components)
    if bad is not None:
        i, j = bad
        return f"d(mark {i}, mark {j}) = -inf with {i} <= {j}"
    if set(components) != set(range(1, line.m + 1)):
        return "marks miss a component"
    return None


def build_family(index, points, ids=None, edges=(), limits=()):
    """Fibers and canonical sections over a list of RepPoints on index.

    The canonical section marks label j at the point produced by
    fiber_over, which realizes the universal-family formula for sections.
    """
    points = list(points)
    if ids is None:
        ids = [f"s{k}" for k in range(len(points))]
    samples = tuple(zip(ids, points))
    family = SampledFamily(index, samples, tuple(edges), frozenset(limits))
    fibers = {}
    for sid, point in samples:
        line, marks = fiber_over(point)
        fibers[sid] = MarkedFiber(line, marks)
    return family, ISectionData(index, fibers)


def extract_alpha(family: SampledFamily, sections: ISectionData) -> dict:
    """Per-sample RepPoint read off from translation distances between
    marks: alpha_s(i, j) = d(sigma_i(s), sigma_j(s))."""
    out = {}
    for sid, _ in family.samples:
        fiber = sections[sid]
        table = {
            (i, j): translation_distance(fiber.line, fiber.marks[i], fiber.marks[j])
            for i, j in family.index.comparable_pairs()
        }
        out[sid] = RepPoint(family.index, table)
    return out


def reconstruction_iso(point: RepPoint, fiber: MarkedFiber):
    """The unique marked iso from the canonical fiber of `point` onto a
    given marked fiber, or None if the fiber does not present `point`."""
    line, marks = fiber_over(point)
    return find_marked_iso(line, marks, fiber.line, fiber.marks)


def concat_families(famF, secF, famG, secG):
    """Concatenate two families: samples are pairs, fibers concatenate,
    the index order is I * J, and marks embed."""
    index = concatenate_orders(famF.index, famG.index)
    shift = famF.index.n
    ids = []
    points = []
    fibers = {}
    for s, p in famF.samples:
        for t, q in famG.samples:
            sid = f"{s}*{t}"
            ids.append(sid)
            points.append(concat_reps(p, q))
            left = secF[s]
            right = secG[t]
            glued, embed_left, embed_right = concatenate(left.line, right.line)
            marks = {i: embed_left(mp) for i, mp in left.marks.items()}
            marks.update(
                {j + shift: embed_right(mq) for j, mq in right.marks.items()}
            )
            fibers[sid] = MarkedFiber(glued, marks)
    family = SampledFamily(index, tuple(zip(ids, points)))
    return family, ISectionData(index, fibers)


@dataclass(frozen=True)
class PathReport:
    checked_edges: int
    violations: tuple

    @property
    def ok(self):
        return not self.violations


def check_axioms_on_path(family: SampledFamily, delta=DEFAULT_DELTA):
    """Sampled shadow of the recognition axioms along declared edges.

    Checks, per edge: the stratum may only refine toward a declared limit
    sample (fixed-point count upper semicontinuous); gap coordinates that
    are finite on both ends differ by less than delta; and each fiber is
    individually a broken line with finitely many fixed points.  Genuine
    point-set properness/closedness/lifting have no finite-sample shadow
    and are not claimed.
    """
    delta = Fraction(delta)
    violations = []
    for _, point in family.samples:
        fiber_over(point)  # raises if the fiber is malformed
    for a, b in family.edges:
        pa, pb = family.point(a), family.point(b)
        ea, eb = stratum_of(pa), stratum_of(pb)
        if ea != eb:
            if b in family.limits and eb.refines(ea):
                pass  # refinement toward the declared limit: allowed
            elif a in family.limits and ea.refines(eb):
                pass
            else:
                violations.append(
                    (a, f"stratum jump along edge ({a},{b}) without a limit")
                )
        for m, (ga, gb) in enumerate(zip(pa.gaps(), pb.gaps())):
            if ga.is_finite and gb.is_finite:
                jump = ga.finite - gb.finite
                if abs(jump) >= delta:
                    violations.append(
                        (a, f"gap {m} jumps by {jump} along edge ({a},{b})")
                    )
    violations.sort(key=lambda v: str(v[0]))
    return PathReport(len(family.edges), tuple(violations))
