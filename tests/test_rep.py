import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokenlines.extreal import INF, NEG_INF, ZERO, ExtReal, as_ext
from brokenlines.orders import (
    ConvexEquiv,
    LinOrder,
    LinPreorder,
    concatenate_orders,
    enumerate_convex_equivalences,
    enumerate_surjections,
    preorder_ranks,
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

# ---------------------------------------------------------------- oracles
#
# A point used to be stored as its full value table on comparable pairs.
# The table builder, the cubic check of a table and the pair-by-pair
# definitions of U_E and Phi membership stay here as oracles.


def oracle_table(base, gaps):
    """The value table the cocycle forces from gaps along the canonical
    enumeration, summed gap by gap."""
    gaps = [as_ext(g) for g in gaps]
    pos = {lab: p for p, lab in enumerate(base.enumeration())}
    table = {}
    for i, j in base.comparable_pairs():
        p, q = pos[i], pos[j]
        total = ZERO
        for m in range(min(p, q), max(p, q)):
            total = total + gaps[m]
        # a reversed pair compares both ways; the gaps between are finite
        table[(i, j)] = total if p <= q else -total
    return table


def oracle_violation(base, table):
    """None if the table is a point, otherwise (kind, where) of the first
    violation: kind is "diagonal", "range", "finiteness" or "cocycle"."""
    table = {k: as_ext(v) for k, v in table.items()}
    for i in range(base.n):
        if table[(i, i)] != ZERO:
            return "diagonal", (i,)
    for key in sorted(table):
        if table[key] == NEG_INF:
            return "range", key
    for i, j in sorted(table):
        if base.eq(i, j) and not table[(i, j)].is_finite:
            return "finiteness", (i, j)
    for i, j, k in itertools.product(range(base.n), repeat=3):
        if base.leq(i, j) and base.leq(j, k):
            if table[(i, j)] + table[(j, k)] != table[(i, k)]:
                return "cocycle", (i, j, k)
    return None


def table_of(point):
    return {pair: point.alpha(*pair) for pair in point.base.comparable_pairs()}


def u_contains_pairwise(point, rel):
    """i E j implies alpha(i,j) finite, pair by pair."""
    return all(
        point.alpha(i, j).is_finite
        for i, j in point.base.comparable_pairs()
        if rel.relates(i, j)
    )


def phi_membership_pairwise(point, rel):
    """Every finite distance happens inside a class, pair by pair."""
    return all(
        rel.relates(i, j)
        for i, j in point.base.comparable_pairs()
        if point.alpha(i, j).is_finite
    )


def test_singleton_point():
    point = rep_from_gaps([])
    assert point.base.n == 1
    assert point.alpha(0, 0) == ExtReal(0)
    assert oracle_violation(point.base, table_of(point)) is None


def test_single_infinite_gap():
    point = rep_from_gaps([INF])
    assert point.alpha(0, 1) == INF
    assert oracle_violation(point.base, table_of(point)) is None


def test_cocycle_addition():
    point = rep_from_gaps([1, 2])
    assert point.alpha(0, 2) == ExtReal(3)


def test_validate_detects_cocycle_violation():
    base = LinOrder.standard(3)
    table = {
        (0, 0): 0, (1, 1): 0, (2, 2): 0,
        (0, 1): 1, (1, 2): 1, (0, 2): 3,
    }
    assert oracle_violation(base, table) == ("cocycle", (0, 1, 2))
    with pytest.raises(ValueError, match=r"^alpha\(0,2\) = 3, but the gaps force 2$"):
        RepPoint(base, table)


def test_validate_detects_forced_finiteness():
    base = LinPreorder([0, 0])  # two-element indiscrete preorder
    table = {(0, 0): 0, (1, 1): 0, (0, 1): INF, (1, 0): INF}
    assert oracle_violation(base, table)[0] == "finiteness"
    with pytest.raises(
        ValueError,
        match=r"^gap 0 = alpha\(0,1\) joins equivalent elements and must be finite$",
    ):
        RepPoint(base, table)


def test_validate_rejects_negative_infinity_values():
    base = LinOrder.standard(2)
    table = {(0, 0): 0, (1, 1): 0, (0, 1): NEG_INF}
    assert oracle_violation(base, table)[0] == "range"
    with pytest.raises(
        ValueError, match=r"^gap 0 = alpha\(0,1\) is -inf; gap values live in \(-inf, inf\]$"
    ):
        RepPoint(base, table)


def test_table_must_cover_exactly_the_comparable_pairs():
    base = LinOrder.standard(2)
    with pytest.raises(ValueError, match="cover exactly the comparable pairs"):
        RepPoint(base, {(0, 0): 0, (1, 1): 0})
    with pytest.raises(ValueError, match="cover exactly the comparable pairs"):
        RepPoint(base, {(0, 0): 0, (1, 1): 0, (0, 1): 1, (1, 0): -1})


def test_alpha_rejects_a_pair_that_does_not_compare():
    point = rep_from_gaps([1, 2])
    for i, j in ((1, 0), (0, 3), (-1, 0)):
        with pytest.raises(ValueError, match="is not a comparable pair"):
            point.alpha(i, j)


PREORDERS = {n: preorder_ranks(n) for n in range(1, 7)}
FINITE = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def valid_tables(draw):
    """(base, gaps, table): a random preorder with n <= 6, gaps along its
    enumeration (infinite only between inequivalent neighbours) and the
    oracle's table of them."""
    n = draw(st.integers(1, 6))
    base = LinPreorder(draw(st.sampled_from(PREORDERS[n])))
    enum = base.enumeration()
    gaps = [
        ExtReal(draw(FINITE))
        if base.eq(i, j) or draw(st.booleans())
        else INF
        for i, j in zip(enum, enum[1:])
    ]
    return base, gaps, oracle_table(base, gaps)


def plant(base, table, kind, pick):
    """A copy of table with one wrong entry of the given kind, or None when
    the base has no pair where that kind can be planted; pick chooses the
    pair."""
    table = dict(table)
    if kind == "diagonal":
        i = pick % base.n
        table[(i, i)] = ExtReal(1)
    elif kind == "range":
        pairs = [(i, j) for i, j in sorted(table) if i != j]
        if not pairs:
            return None
        table[pairs[pick % len(pairs)]] = NEG_INF
    elif kind == "finiteness":
        pairs = [(i, j) for i, j in sorted(table) if i != j and base.eq(i, j)]
        if not pairs:
            return None
        table[pairs[pick % len(pairs)]] = INF
    else:
        # a finite entry moved by one, on a pair of distinct labels with a
        # third label to witness the cocycle
        pairs = [
            (i, j) for i, j in sorted(table)
            if i != j and table[(i, j)].is_finite and base.n > 2
        ]
        if not pairs:
            return None
        i, j = pairs[pick % len(pairs)]
        table[(i, j)] = table[(i, j)] + 1
    return table


FAULTS = ("diagonal", "range", "finiteness", "cocycle")


@settings(max_examples=300, deadline=None)
@given(valid_tables(), st.sampled_from((None,) + FAULTS), st.integers(0, 50))
def test_table_constructor_matches_the_oracle(drawn, kind, pick):
    base, gaps, table = drawn
    if kind is not None:
        table = plant(base, table, kind, pick) or table
    violation = oracle_violation(base, table)
    if violation is not None:
        with pytest.raises(ValueError):
            RepPoint(base, table)
        return
    point = RepPoint(base, table)
    enum = base.enumeration()
    read_off = RepPoint.from_gaps(base, [table[pair] for pair in zip(enum, enum[1:])])
    assert point == read_off and hash(point) == hash(read_off)
    assert table_of(point) == {k: as_ext(v) for k, v in table.items()}


@pytest.mark.parametrize("kind", FAULTS)
def test_each_planted_fault_fires_on_the_oracle_and_the_constructor(kind):
    # the indiscrete, linear and mixed preorders of size 3 each give every
    # kind a pair to plant on, except finiteness on the linear order
    fired = 0
    for ranks in ([0, 0, 0], [0, 1, 2], [1, 0, 1], [0, 0, 1]):
        base = LinPreorder(ranks)
        enum = base.enumeration()
        gaps = [ExtReal(Fraction(1, 2)) if base.eq(i, j) else ExtReal(2)
                for i, j in zip(enum, enum[1:])]
        for pick in range(9):
            table = plant(base, oracle_table(base, gaps), kind, pick)
            if table is None:
                continue
            assert oracle_violation(base, table)[0] == kind
            with pytest.raises(ValueError):
                RepPoint(base, table)
            fired += 1
    assert fired >= 9


@settings(max_examples=100, deadline=None)
@given(valid_tables())
def test_points_on_preorders_agree_with_the_oracle_table(drawn):
    base, gaps, table = drawn
    point = RepPoint.from_gaps(base, gaps)
    assert table_of(point) == table
    assert chart_coordinates(point)[0] == gaps
    for rel in enumerate_convex_equivalences(base):
        assert u_contains(point, rel) == u_contains_pairwise(point, rel)
        assert phi_membership(point, rel) == phi_membership_pairwise(point, rel)
        assert in_stratum(point, rel) == (
            u_contains_pairwise(point, rel) and phi_membership_pairwise(point, rel)
        )


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


def stratum_oracle(point):
    """The classes along the enumeration, a new one after each infinite gap."""
    enum = point.base.enumeration()
    classes = [[enum[0]]]
    for label, gap in zip(enum[1:], point.gaps()):
        if gap.is_finite:
            classes[-1].append(label)
        else:
            classes.append([label])
    return ConvexEquiv(point.base, classes)


def rel_slots(rel):
    return rel.base, rel.cuts, rel.classes, rel.index


@given(valid_tables())
def test_stratum_matches_the_class_list_oracle(drawn):
    base, gaps, _ = drawn
    point = RepPoint.from_gaps(base, gaps)
    assert rel_slots(stratum_of(point)) == rel_slots(stratum_oracle(point))


def test_stratum_of_each_sample_is_its_relation():
    for n in range(1, 5):
        for base in map(LinPreorder, preorder_ranks(n)):
            for rel in enumerate_convex_equivalences(base):
                for point in stratum_samples(base, rel, 2):
                    assert rel_slots(stratum_of(point)) == rel_slots(rel)
                    assert rel_slots(stratum_oracle(point)) == rel_slots(rel)


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
    assert table_of(via_small) == {
        (i, j): point.alpha(g(i), g(j)) for i, j in mid.comparable_pairs()
    }
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
                assert oracle_violation(glued.base, table_of(glued)) is None
                star_base = concatenate_orders(left_base, right_base)
                classes = [tuple(c) for c in rel_l.classes] + [
                    tuple(i + nl for i in c) for c in rel_r.classes
                ]
                star_rel = ConvexEquiv(star_base, classes)
                assert phi_membership(glued, star_rel)


def test_json_lists_the_base_and_the_gaps():
    point = rep_from_gaps([Fraction(1, 2), INF, 3])
    assert point.to_json() == {
        "base": {"n": 4, "rank": [0, 1, 2, 3]},
        "gaps": [{"fin": "1/2"}, "inf", {"fin": "3"}],
    }
