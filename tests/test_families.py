import random
from fractions import Fraction

import pytest

from brokenlines.extreal import INF, ExtReal
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
from brokenlines.lines import fiber_over, translate
from brokenlines.orders import LinOrder, enumerate_convex_equivalences
from brokenlines.rep import (
    concat_reps,
    rep_from_gaps,
    stratum_of,
    stratum_samples,
)


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
