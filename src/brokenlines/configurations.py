"""Points of the fiber product of two marked moduli charts.

A configuration is one broken line carrying an I-section and a J-section;
its combinatorial invariant K_s is the linear preorder on I ⊔ J read off
from translation distances, which is always an amalgam; it is computed as
the rank vector of the marks' components.  The covering
theorem for the open sets U_K is verified here by exhaustive enumeration
plus deterministic grid sampling.
"""

from __future__ import annotations

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
    if (
        amalgam.left != config.left
        or amalgam.right != config.right
    ):
        raise ValueError("amalgam is not an amalgam of the configuration's orders")
    return amalgam.leq_amalgam(k_of(config))


def sample_configurations(left: LinOrder, right: LinOrder):
    """Deterministic configurations reaching every amalgam stratum:
    for each amalgam K and each stratum of Rep(K), one grid sample."""
    configs = []
    for amalgam in enumerate_amalgams(left, right):
        for rel in enumerate_convex_equivalences(amalgam.preorder):
            for point in stratum_samples(amalgam.preorder, rel, 1):
                configs.append(config_from_amalgam_point(amalgam, point))
    return configs


def verify_join_identity(left: LinOrder, right: LinOrder):
    """Exhaustive check of the covering facts over Amal(left, right).

    For every pair K, K' and every sampled configuration:
    membership in U_{K v K'} equals membership in U_K and U_{K'}; the
    join is a least upper bound over the whole enumerated poset; and
    every configuration lies in U_{K_s} for its own K_s (covering).
    """
    amalgams = enumerate_amalgams(left, right)
    index = {a: k for k, a in enumerate(amalgams)}
    leq = [
        [a.leq_amalgam(b) for b in amalgams]
        for a in amalgams
    ]
    joins = [[index[a.join(b)] for b in amalgams] for a in amalgams]

    violations = []
    # least-upper-bound property, quantified over the enumerated poset
    for x, a in enumerate(amalgams):
        for y, b in enumerate(amalgams):
            j = joins[x][y]
            if not (leq[x][j] and leq[y][j]):
                violations.append(("join-not-upper-bound", x, y))
            for z in range(len(amalgams)):
                if leq[x][z] and leq[y][z] and not leq[j][z]:
                    violations.append(("join-not-least", x, y, z))

    configs = sample_configurations(left, right)
    configs_checked = 0
    strata_hit = set()
    for config in configs:
        ks = k_of(config)
        if ks not in index:
            violations.append(("k-of-not-amalgam", repr(ks)))
            continue
        s = index[ks]
        if not leq[s][s]:
            violations.append(("covering", s))
        strata_hit.add(s)
        configs_checked += 1
    # membership in U_K depends on the configuration only through K_s,
    # so the join identity is checked once per realized K_s
    for s in sorted(strata_hit):
        for x in range(len(amalgams)):
            for y in range(len(amalgams)):
                want = leq[x][s] and leq[y][s]
                got = leq[joins[x][y]][s]
                if want != got:
                    violations.append(("join-identity", x, y, s))

    return {
        "amalgams": len(amalgams),
        "pairs_checked": len(amalgams) ** 2,
        "configs_checked": configs_checked,
        "violations": violations,
    }
