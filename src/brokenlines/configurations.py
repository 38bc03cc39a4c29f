"""Points of the fiber product of two marked moduli charts.

A configuration is one broken line carrying an I-section and a J-section;
its combinatorial invariant K_s is the linear preorder on I ⊔ J read off
from translation distances, which is always an amalgam; it is computed as
the rank vector of the marks' components.  The covering theorem for the
open sets U_K is verified by exhaustive enumeration plus deterministic
grid sampling, in one pass over pairs of amalgams held as up-set
bitmasks, which also give each pair's join.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .lines import BrokenLine, LinePoint, fiber_over
from .orders import (
    Amalgam,
    LinOrder,
    LinPreorder,
    enumerate_amalgams,
    enumerate_convex_equivalences,
)
from .families import section_violation
from .rep import RepPoint, stratum_samples


@dataclass(frozen=True)
class Configuration:
    line: BrokenLine
    left: LinOrder
    right: LinOrder
    i_marks: dict  # label in left -> LinePoint
    j_marks: dict  # label in right -> LinePoint

    def __post_init__(self):
        problem = section_violation(self.left, self.line, self.i_marks)
        if problem is not None:
            raise ValueError(f"I-marks: {problem}")
        problem = section_violation(self.right, self.line, self.j_marks)
        if problem is not None:
            raise ValueError(f"J-marks: {problem}")

    def mark(self, label) -> LinePoint:
        """Marks on the disjoint union: I keeps labels, J is shifted."""
        if label < self.left.n:
            return self.i_marks[label]
        return self.j_marks[label - self.left.n]


def config_from_amalgam_point(amalgam: Amalgam, point: RepPoint) -> Configuration:
    """The configuration presented by a RepPoint on an amalgam: take the
    fiber with its canonical marks and split them into the two sections."""
    if point.base != amalgam.preorder:
        raise ValueError("point must live on the amalgam's preorder")
    line, marks = fiber_over(point)
    nl = amalgam.left.n
    i_marks = {i: marks[i] for i in range(nl)}
    j_marks = {j: marks[j + nl] for j in range(amalgam.right.n)}
    return Configuration(line, amalgam.left, amalgam.right, i_marks, j_marks)


def k_of(config: Configuration) -> Amalgam:
    """The preorder of the configuration: a <= b iff the translation
    distance from a's mark to b's mark is not -inf.  Marks are interior
    and hit every component, so that distance is -inf exactly when b's
    component comes before a's, and a's rank is its component less one."""
    n = config.left.n + config.right.n
    ranks = [config.mark(a).component - 1 for a in range(n)]
    return Amalgam(config.left, config.right, LinPreorder(ranks))


def u_membership(config: Configuration, amalgam: Amalgam) -> bool:
    """Membership in U_K: true iff K <= K_s in the amalgam order."""
    return amalgam.leq_amalgam(k_of(config))


def sample_configurations(left: LinOrder, right: LinOrder):
    """Deterministic configurations reaching every amalgam stratum, yielded
    one by one: for each amalgam K and each stratum of Rep(K), a grid sample."""
    for amalgam in enumerate_amalgams(left, right):
        for rel in enumerate_convex_equivalences(amalgam.preorder):
            for point in stratum_samples(amalgam.preorder, rel, 1):
                yield config_from_amalgam_point(amalgam, point)


def verify_join_identity(left: LinOrder, right: LinOrder):
    """Exhaustive check of the covering facts over Amal(left, right).

    For every pair K, K' and every sampled configuration:
    membership in U_{K v K'} equals membership in U_K and U_{K'}; the
    join is a least upper bound over the whole enumerated poset; and
    every configuration lies in U_{K_s} for its own K_s (covering).

    Each amalgam x gets its up-set as a bitmask up[x], bit z set when
    x <= z, built from x's coarsenings (`_up_sets`).  The join j of a pair
    (x, y) is the last bit of the common upper bounds `both = up[x] &
    up[y]`, with no Amalgam built and no `Amalgam.join` call (the tests
    check that it returns j): amalgams are sorted by rank vector, and an
    amalgam above j coarsens j, so its rank vector is entrywise no larger
    and comes earlier.  An empty both is a
    join-not-upper-bound, none may lie outside up[j], and, as membership
    in U_K depends on a configuration only through K_s, both and up[j]
    must agree on every realized K_s.
    """
    amalgams = enumerate_amalgams(left, right)
    index = {a: k for k, a in enumerate(amalgams)}
    up = _up_sets(amalgams)

    violations, identity = [], []
    hit = configs_checked = 0
    for config in sample_configurations(left, right):
        ks = k_of(config)
        if ks not in index:
            violations.append(("k-of-not-amalgam", repr(ks)))
            continue
        s = index[ks]
        if not up[s] >> s & 1:
            violations.append(("covering", s))
        hit |= 1 << s
        configs_checked += 1

    lub = []
    for x, ux in enumerate(up):
        for y, uy in enumerate(up):
            both = ux & uy
            if not both:
                lub.append(("join-not-upper-bound", x, y))
                continue
            uj = up[both.bit_length() - 1]
            lub += [("join-not-least", x, y, z) for z in _bits(both & ~uj)]
            identity += [("join-identity", x, y, s) for s in _bits((both ^ uj) & hit)]
    identity.sort(key=operator.itemgetter(3))

    return {
        "amalgams": len(amalgams),
        "pairs_checked": len(amalgams) ** 2,
        "configs_checked": configs_checked,
        "violations": lub + violations + identity,
    }


def poset_edges(amalgams):
    """The pairs [x, z], x != z, with amalgams[x] <= amalgams[z], by x
    and then z: the strict amalgam order, read off the up-set bitmasks."""
    return [[x, z] for x, mask in enumerate(_up_sets(amalgams)) for z in _bits(mask) if x != z]


def _up_sets(amalgams):
    """up[x] for each amalgam x: the bitmask of the z with
    `amalgams[x].leq_amalgam(amalgams[z])` (the tests check it).  x <= z
    when z's ranks are f of x's for some f that starts at 0 and steps by
    0 or 1 from one class of x to the next, merging the classes it does
    not step between; so each row is the set of x's 2^(k-1) coarsenings
    that are in the enumeration, k being x's number of classes."""
    index = {a.preorder.ranks: z for z, a in enumerate(amalgams)}
    up = []
    for a in amalgams:
        ranks = a.preorder.ranks
        mask = 0
        for steps in itertools.product((0, 1), repeat=max(ranks)):
            f = tuple(itertools.accumulate(steps, initial=0))
            z = index.get(tuple(map(f.__getitem__, ranks)))
            if z is not None:
                mask |= 1 << z
        up.append(mask)
    return up


def _bits(mask):
    """The positions of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
