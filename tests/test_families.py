import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokenlines.extreal import INF, NEG_INF, ExtReal
from brokenlines.families import (
    MarkedFiber,
    SampledFamily,
    build_family,
    check_axioms_on_path,
    concat_families,
    extract_alpha,
    reconstruction_iso,
    section_violation,
)
from brokenlines.lines import BrokenLine, fiber_over, translate, translation_distance
from brokenlines.orders import LinOrder, LinPreorder, enumerate_convex_equivalences
from brokenlines.rep import (
    RepPoint,
    concat_reps,
    rep_from_gaps,
    stratum_of,
    stratum_samples,
)

from test_rep import valid_tables


def easybreak_family():
    """The degenerating path: gaps log2(1/t) for t = 1, 1/2, 1/4, then
    infinity at t = 0 (exact stand-in for -log t on a rational grid)."""
    base = LinOrder.standard(2)
    points = [rep_from_gaps([g]) for g in (ExtReal(0), ExtReal(1), ExtReal(2), INF)]
    return build_family(
        base,
        points,
        ids=["t1", "t1/2", "t1/4", "t0"],
        edges=[("t1", "t1/2"), ("t1/2", "t1/4"), ("t1/4", "t0")],
        limits=["t0"],
    )


def test_single_trivial_sample():
    base = LinOrder.standard(1)
    family, sections = build_family(base, [rep_from_gaps([])])
    fiber = sections["s0"]
    assert fiber.line.m == 1
    assert fiber.marks[0] == fiber.line.point(1, 0)


def test_easybreak_fiber_counts():
    family, sections = easybreak_family()
    ms = [sections[sid].line.m for sid, _ in family.samples]
    assert ms == [1, 1, 1, 2]


def test_build_family_validates_sections():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        base = LinOrder.standard(n)
        rels = enumerate_convex_equivalences(base)
        points = [
            stratum_samples(base, rels[rng.randrange(len(rels))], 1)[0]
            for _ in range(rng.randint(1, 3))
        ]
        build_family(base, points)  # section validator must not raise


def test_build_family_rejects_invalid_point():
    from brokenlines.rep import RepPoint

    # an invalid table never becomes a point, so no family can hold one
    base = LinOrder.standard(3)
    with pytest.raises(ValueError, match=r"alpha\(0,2\) = 3, but the gaps force 2"):
        build_family(base, [RepPoint(
            base,
            {(0, 0): 0, (1, 1): 0, (2, 2): 0, (0, 1): 1, (1, 2): 1, (0, 2): 3},
        )])


def test_extract_alpha_roundtrip():
    family, sections = easybreak_family()
    recovered = extract_alpha(family, sections)
    for sid, point in family.samples:
        assert recovered[sid] == point


def test_extract_alpha_two_marks():
    base = LinOrder.standard(2)
    q = Fraction(9, 4)
    family, sections = build_family(base, [rep_from_gaps([q])])
    assert extract_alpha(family, sections)["s0"].alpha(0, 1) == ExtReal(q)


def test_extract_alpha_shift_invariant():
    # a common per-sample global shift of the sections leaves alpha fixed
    base = LinOrder.standard(3)
    point = rep_from_gaps([1, INF])
    family, sections = build_family(base, [point])
    fiber = sections["s0"]
    shifted = MarkedFiber(
        fiber.line,
        {i: translate(fiber.line, Fraction(5, 3), p) for i, p in fiber.marks.items()},
    )
    from brokenlines.families import ISectionData

    moved = ISectionData(base, {"s0": shifted})
    assert extract_alpha(family, moved)["s0"] == point


def test_reverse_roundtrip_unique_iso():
    base = LinOrder.standard(3)
    for rel in enumerate_convex_equivalences(base):
        for point in stratum_samples(base, rel, 2):
            family, sections = build_family(base, [point])
            recovered = extract_alpha(family, sections)["s0"]
            iso = reconstruction_iso(recovered, sections["s0"])
            assert iso is not None
            # uniqueness: every component is marked, pinning every shift
            line, marks = fiber_over(recovered)
            assert {p.component for p in marks.values()} == set(
                range(1, line.m + 1)
            )


# ---------------------------------------------------------- concatenation


def test_concat_families_component_counts():
    base = LinOrder.standard(1)
    fam_a, sec_a = build_family(base, [rep_from_gaps([])], ids=["a"])
    fam_b, sec_b = build_family(base, [rep_from_gaps([])], ids=["b"])
    fam, sec = concat_families(fam_a, sec_a, fam_b, sec_b)
    assert sec["a*b"].line.m == 2


def test_concat_families_alpha_is_glued_point():
    left = LinOrder.standard(2)
    right = LinOrder.standard(2)
    fam_a, sec_a = build_family(left, [rep_from_gaps([Fraction(1, 2)])], ids=["a"])
    fam_b, sec_b = build_family(right, [rep_from_gaps([INF])], ids=["b"])
    fam, sec = concat_families(fam_a, sec_a, fam_b, sec_b)
    recovered = extract_alpha(fam, sec)["a*b"]
    glued = concat_reps(fam_a.point("a"), fam_b.point("b"))
    assert recovered == glued
    # cross pairs are infinite
    for i in range(2):
        for j in range(2):
            assert recovered.alpha(i, j + 2) == INF


def test_concat_families_injective_on_samples():
    base = LinOrder.standard(2)
    points = [rep_from_gaps([g]) for g in (ExtReal(1), ExtReal(2), INF)]
    fam, sec = build_family(base, points)
    out_fam, out_sec = concat_families(fam, sec, fam, sec)
    reps = [p for _, p in out_fam.samples]
    assert len(set(reps)) == len(reps)


# ------------------------------------------------------------ path checks


def test_easybreak_path_passes():
    family, _ = easybreak_family()
    report = check_axioms_on_path(family, delta=Fraction(3, 2))
    assert report.ok, report.violations


def test_stratum_refines_exactly_at_limit():
    family, _ = easybreak_family()
    strata = [stratum_of(p) for _, p in family.samples]
    assert strata[0] == strata[1] == strata[2]
    assert strata[3] != strata[2]
    assert strata[3].refines(strata[2])


def test_jumping_path_flagged():
    base = LinOrder.standard(2)
    points = [rep_from_gaps([g]) for g in (INF, ExtReal(100), INF)]
    family, _ = build_family(
        base,
        points,
        ids=["a", "b", "c"],
        edges=[("a", "b"), ("b", "c")],
        limits=[],
    )
    report = check_axioms_on_path(family, delta=Fraction(1, 100))
    assert not report.ok
    kinds = [v[1] for v in report.violations]
    assert any("stratum jump" in k for k in kinds)


def test_large_gap_discontinuity_flagged():
    base = LinOrder.standard(2)
    points = [rep_from_gaps([g]) for g in (ExtReal(0), ExtReal(100))]
    family, _ = build_family(base, points, ids=["a", "b"], edges=[("a", "b")])
    report = check_axioms_on_path(family, delta=Fraction(1, 100))
    assert not report.ok


def test_constant_path_passes():
    base = LinOrder.standard(3)
    point = rep_from_gaps([1, INF])
    family, _ = build_family(
        base, [point, point, point], ids=["a", "b", "c"],
        edges=[("a", "b"), ("b", "c")],
    )
    report = check_axioms_on_path(family)
    assert report.ok


def test_section_violation_messages():
    base = LinOrder.standard(2)
    line, marks = fiber_over(rep_from_gaps([1]))
    assert section_violation(base, line, marks) is None
    broken = dict(marks)
    broken[0] = line.initial
    assert "fixed point" in section_violation(base, line, broken)
    # swapping marks across distinct components produces a -inf gap
    line2, marks2 = fiber_over(rep_from_gaps([INF]))
    swapped = {0: marks2[1], 1: marks2[0]}
    assert "-inf" in section_violation(base, line2, swapped)
    missing = {0: marks2[0], 1: marks2[0]}
    assert "component" in section_violation(base, line2, missing)


def test_family_json_roundtrip():
    family, _ = easybreak_family()
    again = SampledFamily.from_json(family.to_json())
    assert again.index == family.index
    assert again.samples == family.samples
    assert again.edges == family.edges
    assert again.limits == family.limits


# ------------------------------------------------------- section oracle


def section_violation_oracle(index, line, marks):
    """The section conditions by their definition: the translation
    distance of every pair i <= j of the index order, first failure
    first."""
    if set(marks) != set(range(index.n)):
        return "marks must cover the index labels"
    for i, p in marks.items():
        if p.is_fixed:
            return f"mark {i} is a fixed point"
    for i in range(index.n):
        for j in range(index.n):
            if index.leq(i, j):
                if translation_distance(line, marks[i], marks[j]) == NEG_INF:
                    return f"d(mark {i}, mark {j}) = -inf with {i} <= {j}"
    hit = {p.component for p in marks.values()}
    if hit != set(range(1, line.m + 1)):
        return "marks miss a component"
    return None


def violation_kind(message):
    for kind in ("cover the index labels", "fixed point", "-inf", "miss a component"):
        if kind in message:
            return kind
    raise AssertionError(message)


SECTION_FAULTS = {
    "fixed": "fixed point",
    "reversed": "-inf",
    "split": "-inf",
    "missed": "miss a component",
}


def plant_section_fault(base, line, marks, kind, pick):
    """(line, marks) with one fault of the given kind, or None when the
    fiber has no place for it; pick chooses the place.  A fixed mark; the
    marks of i < j swapped across components; a label moved off the
    component of a label of equal rank; an unmarked component inserted."""
    marks = dict(marks)
    labels = sorted(marks)
    if kind == "fixed":
        i = labels[pick % len(labels)]
        marks[i] = line.point(marks[i].component, (NEG_INF, INF)[pick % 2])
    elif kind == "reversed":
        pairs = [
            (i, j) for i in labels for j in labels
            if base.ranks[i] < base.ranks[j]
            and marks[i].component < marks[j].component
        ]
        if not pairs:
            return None
        i, j = pairs[pick % len(pairs)]
        marks[i], marks[j] = marks[j], marks[i]
    elif kind == "split":
        pairs = [(i, j) for i in labels for j in labels if i != j and base.eq(i, j)]
        if not pairs or line.m == 1:
            return None
        i, j = pairs[pick % len(pairs)]
        others = [a for a in range(1, line.m + 1) if a != marks[i].component]
        marks[j] = line.point(others[pick % len(others)], marks[j].coord)
    else:
        empty = 1 + pick % (line.m + 1)
        line = BrokenLine(line.m + 1)
        marks = {
            i: line.point(p.component + (p.component >= empty), p.coord)
            for i, p in marks.items()
        }
    return line, marks


def assert_same_violation(base, line, marks):
    got = section_violation(base, line, marks)
    want = section_violation_oracle(base, line, marks)
    assert (got is None) == (want is None), (got, want)
    if got is None:
        return None
    assert violation_kind(got) == violation_kind(want), (got, want)
    if violation_kind(got) == "-inf":
        i, j = map(int, re.match(r"d\(mark (\d+), mark (\d+)\) = -inf", got).groups())
        assert base.leq(i, j)
        assert translation_distance(line, marks[i], marks[j]) == NEG_INF
    return violation_kind(got)


@settings(max_examples=300, deadline=None)
@given(
    valid_tables(),
    st.sampled_from((None,) + tuple(SECTION_FAULTS)),
    st.integers(0, 50),
)
def test_section_violation_matches_the_pairwise_oracle(drawn, kind, pick):
    base, gaps, _ = drawn
    line, marks = fiber_over(RepPoint.from_gaps(base, gaps))
    if kind is not None:
        line, marks = plant_section_fault(base, line, marks, kind, pick) or (line, marks)
    assert_same_violation(base, line, marks)


@pytest.mark.parametrize("kind", sorted(SECTION_FAULTS))
def test_each_planted_section_fault_fires_on_the_oracle_and_the_check(kind):
    fired = 0
    for ranks in ([0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 1, 2]):
        base = LinPreorder(ranks)
        enum = base.enumeration()
        gaps = [ExtReal(Fraction(1, 2)) if base.eq(i, j) else INF
                for i, j in zip(enum, enum[1:])]
        line, marks = fiber_over(RepPoint.from_gaps(base, gaps))
        assert assert_same_violation(base, line, marks) is None
        for pick in range(6):
            planted = plant_section_fault(base, line, marks, kind, pick)
            if planted is not None:
                assert assert_same_violation(base, *planted) == SECTION_FAULTS[kind]
                fired += 1
    assert fired >= 12
