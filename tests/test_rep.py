import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokenlines.extreal import INF, NEG_INF, ExtReal
from brokenlines.orders import (
    ConvexEquiv,
    LinOrder,
    LinPreorder,
    concatenate_orders,
    enumerate_convex_equivalences,
    enumerate_surjections,
)
from brokenlines.rep import (
    GRID,
    RepPoint,
    chart_coordinates,
    concat_reps,
    in_stratum,
    phi_membership,
    pullback_rep,
    rep_from_gaps,
    stratum_of,
    stratum_samples,
    u_contains,
)


def test_singleton_point():
    point = rep_from_gaps([])
    assert point.base.n == 1
    assert point.alpha(0, 0) == ExtReal(0)
    assert point.validate() is None


def test_single_infinite_gap():
    point = rep_from_gaps([INF])
    assert point.alpha(0, 1) == INF
    assert point.validate() is None


def test_cocycle_addition():
    point = rep_from_gaps([1, 2])
    assert point.alpha(0, 2) == ExtReal(3)


def test_validate_detects_cocycle_violation():
    base = LinOrder.standard(3)
    table = {
        (0, 0): 0, (1, 1): 0, (2, 2): 0,
        (0, 1): 1, (1, 2): 1, (0, 2): 3,
    }
    violation = RepPoint(base, table).validate()
    assert violation is not None
    assert violation.kind == "cocycle"
    assert violation.where == (0, 1, 2)


def test_validate_detects_forced_finiteness():
    base = LinPreorder([0, 0])  # two-element indiscrete preorder
    table = {(0, 0): 0, (1, 1): 0, (0, 1): INF, (1, 0): INF}
    violation = RepPoint(base, table).validate()
    assert violation is not None
    assert violation.kind == "finiteness"


def test_validate_rejects_negative_infinity_values():
    base = LinOrder.standard(2)
    table = {(0, 0): 0, (1, 1): 0, (0, 1): NEG_INF}
    violation = RepPoint(base, table).validate()
    assert violation is not None
    assert violation.kind == "range"


def test_from_gaps_rejects_malformed():
    with pytest.raises(ValueError):
        rep_from_gaps([NEG_INF])
    with pytest.raises(ValueError):
        RepPoint.from_gaps(LinPreorder([0, 0]), [INF])  # forced finite


# ------------------------------------------------------------- strata


def test_stratum_all_finite_is_indiscrete():
    point = rep_from_gaps([1, 2, 3])
    assert stratum_of(point) == ConvexEquiv.indiscrete(point.base)


def test_stratum_all_infinite_is_discrete():
    point = rep_from_gaps([INF, INF])
    assert stratum_of(point) == ConvexEquiv.discrete(point.base)


def test_stratum_mixed():
    point = rep_from_gaps([INF, 1, INF])
    assert stratum_of(point).classes == ((0,), (1, 2), (3,))


def test_each_point_in_exactly_one_stratum():
    base = LinOrder.standard(4)
    rels = enumerate_convex_equivalences(base)
    for rel in rels:
        for point in stratum_samples(base, rel, 2):
            hits = [e for e in rels if in_stratum(point, e)]
            assert hits == [rel]


def test_stratum_is_always_convex():
    base = LinOrder.standard(5)
    for rel in enumerate_convex_equivalences(base):
        for point in stratum_samples(base, rel, 3):
            ConvexEquiv(point.base, stratum_of(point).classes)  # re-validates


def test_u_membership_monotone():
    # E <= E' implies U_{E'} <= U_E, i.e. membership in the finer open set
    # follows from membership in the coarser one; 10 samples per stratum
    # exhausts one full period of the deterministic grid
    base = LinOrder.standard(4)
    rels = enumerate_convex_equivalences(base)
    points = [
        p
        for rel in rels
        for p in stratum_samples(base, rel, 10)
    ]
    for e in rels:
        for e2 in rels:
            if not e.refines(e2):
                continue
            for point in points:
                if u_contains(point, e2):
                    assert u_contains(point, e)


# ---------------------------------------------------------------- charts


def test_chart_roundtrip_standard_orders():
    for n in range(1, 7):
        gaps = [ExtReal(GRID[m % len(GRID)]) for m in range(n - 1)]
        point = rep_from_gaps(gaps)
        out, forced = chart_coordinates(point)
        assert out == gaps
        assert forced == [False] * (n - 1)


def test_chart_indiscrete_pair_flags_forced():
    base = LinPreorder([0, 0])
    point = RepPoint.from_gaps(base, [Fraction(1, 2)])
    gaps, forced = chart_coordinates(point)
    assert gaps == [ExtReal(Fraction(1, 2))]
    assert forced == [True]


def test_chart_rejects_bad_enumeration():
    point = rep_from_gaps([1])
    with pytest.raises(ValueError):
        chart_coordinates(point, [1, 0])  # decreasing
    with pytest.raises(ValueError):
        chart_coordinates(point, [0, 0])


def test_stratum_dimension_formula():
    base = LinOrder.standard(5)
    for rel in enumerate_convex_equivalences(base):
        for point in stratum_samples(base, rel, 1):
            gaps, _ = chart_coordinates(point)
            finite = sum(1 for g in gaps if g.is_finite)
            assert finite == base.n - len(rel.classes)


# -------------------------------------------------------------- pullback


def test_pullback_identity():
    from brokenlines.orders import OrderMorphism

    point = rep_from_gaps([1, INF])
    assert pullback_rep(OrderMorphism.identity(point.base), point) == point


def test_pullback_merge():
    from brokenlines.orders import OrderMorphism

    # f merges {1,2}: [2] -> [1]
    src = LinOrder.standard(3)
    tgt = LinOrder.standard(2)
    f = OrderMorphism(src, tgt, [0, 1, 1])
    point = rep_from_gaps([Fraction(7, 2)])
    back = pullback_rep(f, point)
    gaps, _ = chart_coordinates(back)
    assert gaps == [ExtReal(Fraction(7, 2)), ExtReal(0)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pullback_preserves_validity_and_functoriality(data):
    sizes = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)))
    a, b, c = sorted(sizes)
    big, mid, small = LinOrder.standard(c), LinOrder.standard(b), LinOrder.standard(a)
    fs = enumerate_surjections(big, mid)
    gs = enumerate_surjections(mid, small)
    if not fs or not gs:
        return
    f = data.draw(st.sampled_from(fs))
    g = data.draw(st.sampled_from(gs))
    rels = enumerate_convex_equivalences(small)
    rel = data.draw(st.sampled_from(rels))
    point = stratum_samples(small, rel, 1)[0]
    via_small = pullback_rep(g, point)
    assert via_small.validate() is None
    assert pullback_rep(f, via_small) == pullback_rep(f.then(g), point)


# ------------------------------------------------------------------ phi


def test_phi_indiscrete_always_true():
    base = LinOrder.standard(3)
    top = ConvexEquiv.indiscrete(base)
    for rel in enumerate_convex_equivalences(base):
        for point in stratum_samples(base, rel, 1):
            assert phi_membership(point, top)


def test_phi_discrete_rejects_finite_gap():
    point = rep_from_gaps([1, INF])
    assert not phi_membership(point, ConvexEquiv.discrete(point.base))
    all_inf = rep_from_gaps([INF, INF])
    assert phi_membership(all_inf, ConvexEquiv.discrete(all_inf.base))


def test_phi_product_law():
    # glued points with cross-gaps infinite land in Phi of the star relation
    for nl, nr in itertools.product((1, 2, 3), repeat=2):
        left_base = LinOrder.standard(nl)
        right_base = LinOrder.standard(nr)
        for rel_l in enumerate_convex_equivalences(left_base):
            for rel_r in enumerate_convex_equivalences(right_base):
                a = stratum_samples(left_base, rel_l, 1)[0]
                b = stratum_samples(right_base, rel_r, 1)[0]
                if not (phi_membership(a, rel_l) and phi_membership(b, rel_r)):
                    continue
                glued = concat_reps(a, b)
                assert glued.validate() is None
                star_base = concatenate_orders(left_base, right_base)
                classes = [tuple(c) for c in rel_l.classes] + [
                    tuple(i + nl for i in c) for c in rel_r.classes
                ]
                star_rel = ConvexEquiv(star_base, classes)
                assert phi_membership(glued, star_rel)


def test_json_roundtrip():
    point = rep_from_gaps([Fraction(1, 2), INF, 3])
    assert RepPoint.from_json(point.to_json()) == point
