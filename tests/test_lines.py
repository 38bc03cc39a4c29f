import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings

from brokenlines.extreal import INF, NEG_INF, ExtReal
from brokenlines.lines import (
    BrokenLine,
    HomSet,
    LineIso,
    compare,
    concatenate,
    fiber_over,
    find_marked_iso,
    translate,
    translation_distance,
)
from brokenlines.orders import LinOrder, enumerate_convex_equivalences
from brokenlines.rep import RepPoint, rep_from_gaps, stratum_of, stratum_samples

from test_rep import valid_tables


def test_canonical_form_glues_components():
    line = BrokenLine(3)
    assert line.point(1, INF) == line.point(2, NEG_INF)
    assert line.point(3, INF) == line.terminal
    assert line.point(1, NEG_INF) == line.initial
    with pytest.raises(ValueError, match=re.escape("component must lie in 1..3")):
        line.point(4, 0)


def test_fiber_over_singleton():
    line, marks = fiber_over(rep_from_gaps([]))
    assert line.m == 1
    assert marks[0] == line.point(1, 0)


def test_fiber_over_degenerate_pair():
    line, marks = fiber_over(rep_from_gaps([INF]))
    assert line.m == 2
    assert marks[0] == line.point(1, 0)
    assert marks[1] == line.point(2, 0)


def test_fiber_over_worked_example():
    # gaps (1, inf): element 0 at (1,-1), element 1 at (1,0), element 2 at (2,0)
    line, marks = fiber_over(rep_from_gaps([1, INF]))
    assert line.m == 2
    assert marks[0] == line.point(1, -1)
    assert marks[1] == line.point(1, 0)
    assert marks[2] == line.point(2, 0)


def test_marks_realize_distances():
    for n in range(1, 6):
        base = LinOrder.standard(n)
        for rel in enumerate_convex_equivalences(base):
            for point in stratum_samples(base, rel, 2):
                line, marks = fiber_over(point)
                assert line.m == len(stratum_of(point).classes)
                for i in range(n):
                    for j in range(i, n):
                        d = translation_distance(line, marks[i], marks[j])
                        assert d == point.alpha(i, j)


def fiber_over_oracle(point):
    """The canonical fiber label by label: each label marked at
    -alpha(i, b) in the component of its finite-distance class, b the
    basepoint of the class (the largest by rank, then label)."""
    classes = stratum_of(point).classes
    line = BrokenLine(len(classes))
    marks = {}
    for a, cls in enumerate(classes, start=1):
        basepoint = max(cls, key=lambda i: (point.base.ranks[i], i))
        for i in cls:
            marks[i] = line.point(a, -point.alpha(i, basepoint))
    return line, marks


@settings(max_examples=200, deadline=None)
@given(valid_tables())
def test_fiber_over_matches_the_per_label_oracle(drawn):
    base, gaps, _ = drawn
    point = RepPoint.from_gaps(base, gaps)
    line, marks = fiber_over(point)
    want_line, want_marks = fiber_over_oracle(point)
    assert line == want_line
    # the same marks, inserted in the same order
    assert list(marks.items()) == list(want_marks.items())


# ---------------------------------------------------------------- order


def test_compare_endpoints():
    line = BrokenLine(2)
    for a in (1, 2):
        for t in (NEG_INF, ExtReal(-5), ExtReal(0), ExtReal(5), INF):
            p = line.point(a, t)
            assert compare(line, line.initial, p) <= 0
            assert compare(line, p, line.terminal) <= 0


def test_compare_component_dominates():
    line = BrokenLine(2)
    assert compare(line, line.point(1, 3), line.point(2, -5)) == -1


def test_compare_transitive_sampled():
    rng = random.Random(0)
    line = BrokenLine(3)
    points = [
        line.point(rng.randint(1, 3), Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
        for _ in range(120)
    ]
    points += [line.point(a, NEG_INF) for a in range(1, 4)] + [line.terminal]
    for _ in range(1000):
        x, y, z = (rng.choice(points) for _ in range(3))
        if compare(line, x, y) <= 0 and compare(line, y, z) <= 0:
            assert compare(line, x, z) <= 0


# --------------------------------------------------------------- action


def test_translate_zero_is_identity():
    line = BrokenLine(2)
    p = line.point(1, Fraction(3, 4))
    assert translate(line, 0, p) == p


def test_translate_shifts_interior():
    line = BrokenLine(1)
    assert translate(line, -5, line.point(1, 2)) == line.point(1, -3)


def test_translate_fixes_fixed_points():
    line = BrokenLine(2)
    fixed = line.point(2, NEG_INF)
    for t in (1, -7, Fraction(2, 3)):
        assert translate(line, t, fixed) == fixed


def test_action_law():
    line = BrokenLine(2)
    p = line.point(2, Fraction(1, 3))
    for s, t in itertools.product((-2, Fraction(1, 2), 5), repeat=2):
        assert translate(line, s, translate(line, t, p)) == translate(line, s + t, p)


def test_translate_shifts_by_exact_rationals():
    line = BrokenLine(1)
    p = line.point(1, 0)
    assert translate(line, "1/3", p) == line.point(1, Fraction(1, 3))
    assert translate(line, Fraction(-1, 2), p) == line.point(1, Fraction(-1, 2))


# each would read 0.1 as a binary fraction, or True as 1, without a word
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: BrokenLine(2).point(1, 0.1), "ExtReal value"),
        (lambda: BrokenLine(2).point(1, True), "ExtReal value"),
        (lambda: translate(BrokenLine(2), 0.1, BrokenLine(2).point(1, 0)), "t"),
        (lambda: translate(BrokenLine(2), True, BrokenLine(2).point(1, 0)), "t"),
        (lambda: translate(BrokenLine(2), INF, BrokenLine(2).point(1, 0)), "t"),
        (lambda: translate(BrokenLine(2), 0.1, BrokenLine(2).point(2, NEG_INF)), "t"),
        (lambda: LineIso(BrokenLine(2), BrokenLine(2), [0, 0.1]), "shifts[1]"),
        (lambda: LineIso(BrokenLine(2), BrokenLine(2), [True, 0]), "shifts[0]"),
        (lambda: LineIso(BrokenLine(1), BrokenLine(1), [None]), "shifts[0]"),
    ],
    ids=["point-float", "point-bool", "translate-float", "translate-bool",
         "translate-inf", "translate-fixed-point", "iso-float", "iso-bool", "iso-none"],
)
def test_exact_inputs_reject_floats_bools_and_non_rationals(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + " must be an int"):
        call()


def test_translate_monotone_in_time():
    line = BrokenLine(2)
    p = line.point(1, 0)
    assert compare(line, translate(line, 1, p), translate(line, 2, p)) == -1


# ------------------------------------------------------------- distances


def test_distance_same_component():
    line = BrokenLine(1)
    assert translation_distance(line, line.point(1, 1), line.point(1, 4)) == ExtReal(3)


def test_distance_across_components():
    line = BrokenLine(2)
    x = line.point(1, 0)
    y = line.point(2, 0)
    assert translation_distance(line, x, y) == INF
    assert translation_distance(line, y, x) == NEG_INF


def test_distance_to_fixed_points():
    line = BrokenLine(2)
    x = line.point(1, 5)
    assert translation_distance(line, x, line.initial) == NEG_INF
    assert translation_distance(line, x, line.point(1, INF)) == INF
    assert translation_distance(line, x, line.terminal) == INF


def test_distance_from_fixed_point_rejected():
    line = BrokenLine(2)
    with pytest.raises(ValueError):
        translation_distance(line, line.initial, line.point(1, 0))


def test_distance_equivariance_sampled():
    rng = random.Random(1)
    line = BrokenLine(3)
    for _ in range(500):
        a = rng.randint(1, 3)
        x = line.point(a, Fraction(rng.randint(-20, 20), rng.randint(1, 7)))
        y = line.point(
            rng.randint(1, 3), Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        )
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        lhs = translation_distance(line, translate(line, t, x), y)
        rhs = translation_distance(line, x, y) - ExtReal(t)
        assert lhs == rhs


def test_distance_cocycle_where_defined():
    line = BrokenLine(2)
    pts = [
        line.point(1, -1),
        line.point(1, 2),
        line.point(2, 0),
        line.point(2, Fraction(5, 2)),
    ]
    for x, y, z in itertools.product(pts, repeat=3):
        dxy = translation_distance(line, x, y)
        dyz = translation_distance(line, y, z)
        try:
            total = dxy + dyz
        except ArithmeticError:
            continue
        assert total == translation_distance(line, x, z)


# ---------------------------------------------------------- concatenation


def test_concatenate_counts():
    line, _, _ = concatenate(BrokenLine(1), BrokenLine(1))
    assert line.m == 2
    a, _, _ = concatenate(concatenate(BrokenLine(1), BrokenLine(2))[0], BrokenLine(3))
    b, _, _ = concatenate(BrokenLine(1), concatenate(BrokenLine(2), BrokenLine(3))[0])
    assert a == b


def test_concatenate_embeddings():
    left = BrokenLine(1)
    right = BrokenLine(2)
    glued, embed_left, embed_right = concatenate(left, right)
    assert embed_left(left.terminal) == embed_right(right.initial)
    x = left.point(1, 3)
    y = right.point(1, -2)
    assert translation_distance(glued, embed_left(x), embed_right(y)) == INF
    assert translation_distance(glued, embed_right(y), embed_left(x)) == NEG_INF
    # within-factor distances preserved
    x2 = left.point(1, 7)
    assert translation_distance(glued, embed_left(x), embed_left(x2)) == ExtReal(4)


def test_classification_all_infinite_gaps():
    for n in range(1, 6):
        point = rep_from_gaps([INF] * (n - 1))
        line, _ = fiber_over(point)
        assert line.m == n  # the n-fold concatenation of the standard line


# ------------------------------------------------------------ isomorphisms


def test_hom_set_empty_on_mismatch():
    assert HomSet(BrokenLine(1), BrokenLine(2)).is_empty


def test_hom_set_groupoid_laws():
    rng = random.Random(2)
    line = BrokenLine(3)
    homs = HomSet(line, line)
    ident = homs.identity()
    for _ in range(50):
        shifts = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)]
        iso = homs.make(shifts)
        assert iso.then(iso.inverse()) == ident
        assert iso.inverse().then(iso) == ident
        other = homs.make([1, -2, 3])
        third = homs.make([0, Fraction(1, 2), -1])
        assert iso.then(other).then(third) == iso.then(other.then(third))
        assert iso.then(ident) == iso


def test_composing_mismatched_isos_names_both_lines():
    two, three = HomSet(BrokenLine(2), BrokenLine(2)), HomSet(BrokenLine(3), BrokenLine(3))
    message = "isomorphisms not composable: BrokenLine(m=2) != BrokenLine(m=3)"
    with pytest.raises(ValueError, match=re.escape(message)):
        two.identity().then(three.identity())


def test_iso_preserves_structure():
    line = BrokenLine(2)
    iso = LineIso(line, line, [Fraction(1, 2), -3])
    x = line.point(1, 0)
    y = line.point(2, 5)
    assert translation_distance(line, iso.apply(x), iso.apply(y)) == translation_distance(line, x, y)
    t = Fraction(7, 3)
    assert iso.apply(translate(line, t, x)) == translate(line, t, iso.apply(x))


def test_marked_iso_exists_iff_same_alpha():
    base = LinOrder.standard(3)
    points = [
        p
        for rel in enumerate_convex_equivalences(base)
        for p in stratum_samples(base, rel, 2)
    ]
    for a in points:
        for b in points:
            la, ma = fiber_over(a)
            lb, mb = fiber_over(b)
            iso = find_marked_iso(la, ma, lb, mb)
            if a == b:
                assert iso is not None
            else:
                assert iso is None


@pytest.mark.parametrize("m", [1.9, 2.0, "2", Fraction(2), True])
def test_broken_line_rejects_a_component_count_that_is_not_an_integer(m):
    # int() would truncate 1.9 to one component and parse "2"
    message = re.escape(f"component count must be an integer, got {m!r}")
    with pytest.raises(ValueError, match=message):
        BrokenLine(m)
    with pytest.raises(ValueError, match="at least one component"):
        BrokenLine(0)


@pytest.mark.parametrize("component", [1.5, 2.0, "1", Fraction(1), True])
def test_point_rejects_a_component_that_is_not_an_integer(component):
    # 1.5 would name a point between the two components
    line = BrokenLine(2)
    message = re.escape(f"component must be an integer, got {component!r}")
    with pytest.raises(ValueError, match=message):
        line.point(component, 0)


def test_marked_iso_agrees_with_grid_brute_force():
    # exact solve vs brute force over shift vectors on a rational grid
    point = rep_from_gaps([1, INF])
    line, marks = fiber_over(point)
    shifted = {
        i: translate(line, Fraction(1, 2), p) if p.component == 1 else p
        for i, p in marks.items()
    }
    iso = find_marked_iso(line, marks, line, shifted)
    assert iso is not None and iso.shifts == (Fraction(1, 2), Fraction(0))
    grid = [Fraction(k, 2) for k in range(-4, 5)]
    brute = [
        (s1, s2)
        for s1 in grid
        for s2 in grid
        if all(
            LineIso(line, line, [s1, s2]).apply(marks[i]) == shifted[i]
            for i in marks
        )
    ]
    assert brute == [(Fraction(1, 2), Fraction(0))]
