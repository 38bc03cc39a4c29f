import random
import re

import pytest

from brokenlines.extreal import INF, ExtReal
from brokenlines.families import build_family
from brokenlines.orders import (
    ConvexEquiv,
    LinOrder,
    OrderMorphism,
    enumerate_convex_equivalences,
    enumerate_surjections,
    preimage_equiv,
)
from brokenlines.rep import rep_from_gaps, stratum_samples
from brokenlines.sheaves import (
    ConstructibleSheaf,
    GlobalSheaf,
    apply_surjection,
    evaluate_on_family,
    global_to_constructible,
    stalk,
)
from brokenlines.twisted import TwMorphism, algebra_to_functor, sharp
from brokenlines.vect import (
    BUILTIN_ALGEBRAS,
    LinMap,
    NonunitalAlgebra,
    VectObject,
    matrix_algebra_2x2,
    nilpotent_upper3,
    rational_algebra,
    tensor_all,
    zero_algebra,
)

from test_twisted import _rebased
from test_vect import add


@pytest.fixture(scope="module")
def nil_sheaf():
    return GlobalSheaf.from_algebra(nilpotent_upper3(), 3)


def test_exchange_relations_validated_at_construction(nil_sheaf):
    # also for the other generated sheaves
    GlobalSheaf.from_algebra(zero_algebra(2), 3)
    GlobalSheaf.from_algebra(rational_algebra(), 4)


def merge_oracle(algebra, n, k):
    """s_k on [n] built by hand: id(A^(x)k) (x) mult (x) id(A^(x)(n-1-k))."""
    a = algebra.space
    factors = [algebra.multiplication()]
    if k > 0:
        factors.insert(0, LinMap.identity(tensor_all([a] * k)))
    if n - 1 - k > 0:
        factors.append(LinMap.identity(tensor_all([a] * (n - 1 - k))))
    return tensor_all(factors)


CROSS_ALGEBRAS = {
    **{f"builtin:{name}": make for name, make in BUILTIN_ALGEBRAS.items()},
    "mat2-seeded": lambda: _rebased(matrix_algebra_2x2(), 20181),
}


@pytest.mark.parametrize("name", sorted(CROSS_ALGEBRAS))
def test_merge_generators_match_hand_built_oracle(name):
    algebra = CROSS_ALGEBRAS[name]()
    sheaf = GlobalSheaf.from_algebra(algebra, 3)
    assert sheaf.values == tuple(tensor_all([algebra.space] * (n + 1)) for n in range(4))
    assert sheaf.gen == {
        (n, k): merge_oracle(algebra, n, k) for n in range(1, 4) for k in range(n)
    }


@pytest.mark.parametrize("N", [4, 5])
@pytest.mark.parametrize("name", sorted(CROSS_ALGEBRAS))
def test_sheaf_side_matches_twisted_side(name, N):
    # apply_surjection composes adjacent merges; the twisted functor acts
    # on sharp(n) -> sharp(m) by one tensor of folds per fiber shape
    algebra = CROSS_ALGEBRAS[name]()
    sheaf = GlobalSheaf.from_algebra(algebra, N - 1)
    functor = algebra_to_functor(algebra, N)
    cases = 0
    for n in range(1, N + 1):
        for m in range(1, n + 1):
            for f in enumerate_surjections(LinOrder.standard(n), LinOrder.standard(m)):
                twisted = functor.action[TwMorphism(sharp(n), sharp(m), f.mapping)]
                assert apply_surjection(sheaf, f) == twisted, f
                cases += 1
    assert cases == 2**N - 1


def test_from_algebra_names_the_failing_triple():
    # (e0 e0) e1 = e0 e1 = e0 + e1, but e0 (e0 e1) = 2 e0 + e1
    bad = NonunitalAlgebra(2, [[[1, 1], [0, 0]], [[0, 1], [1, 0]]])
    message = "structure constants are not associative at basis triple (0, 0, 1)"
    with pytest.raises(ValueError, match=re.escape(message)):
        GlobalSheaf.from_algebra(bad, 2)
    with pytest.raises(ValueError, match=re.escape(message)):
        algebra_to_functor(bad, 3)


def test_bad_generators_rejected():
    # a sheaf whose merges do not satisfy the exchange relations
    v = [VectObject(1), VectObject(2), VectObject(4)]
    gen = {
        (1, 0): LinMap(v[1], v[0], [[1, 0]]),
        (2, 0): LinMap(v[2], v[1], [[1, 0, 0, 0], [0, 0, 0, 1]]),
        (2, 1): LinMap(v[2], v[1], [[0, 1, 0, 0], [0, 0, 1, 0]]),
    }
    with pytest.raises(ValueError):
        GlobalSheaf(2, v, gen)


def test_apply_surjection_identity(nil_sheaf):
    base = LinOrder.standard(3)
    f = OrderMorphism.identity(base)
    assert apply_surjection(nil_sheaf, f).is_identity()


def test_apply_surjection_single_merge(nil_sheaf):
    f = OrderMorphism(LinOrder.standard(2), LinOrder.standard(1), [0, 0])  # s_0: [1] -> [0]
    assert apply_surjection(nil_sheaf, f) == nil_sheaf.gen[(1, 0)]


def test_two_factorizations_agree(nil_sheaf):
    # [2] -> [0] via s_0 o s_0 and s_0 o s_1
    lhs = nil_sheaf.gen[(1, 0)] @ nil_sheaf.gen[(2, 0)]
    rhs = nil_sheaf.gen[(1, 0)] @ nil_sheaf.gen[(2, 1)]
    assert lhs == rhs
    big = LinOrder.standard(3)
    small = LinOrder.standard(1)
    f = OrderMorphism(big, small, [0, 0, 0])
    assert apply_surjection(nil_sheaf, f) == lhs


def test_apply_surjection_is_functorial(nil_sheaf):
    sizes = [LinOrder.standard(n) for n in (1, 2, 3, 4)]
    maps = [
        f
        for a in sizes
        for b in sizes
        for f in enumerate_surjections(a, b)
    ]
    for f in maps:
        for g in maps:
            if g.source != f.target:
                continue
            assert apply_surjection(nil_sheaf, f.then(g)) == apply_surjection(
                nil_sheaf, g
            ) @ apply_surjection(nil_sheaf, f)


def test_apply_surjection_nonstandard_labels(nil_sheaf):
    # ranks permute the labels; positions drive the decomposition
    src = LinOrder([1, 0, 2])
    tgt = LinOrder([0, 1])
    f = OrderMorphism(src, tgt, [1, 0, 1])
    m = apply_surjection(nil_sheaf, f)
    std = OrderMorphism(
        LinOrder.standard(3), LinOrder.standard(2), [0, 1, 1]
    )
    assert m == apply_surjection(nil_sheaf, std)


# ------------------------------------------------- constructible sheaves


def test_global_to_constructible_extremes(nil_sheaf):
    base = LinOrder.standard(3)
    sheaf = global_to_constructible(nil_sheaf, base)
    assert sheaf.value[ConvexEquiv.discrete(base)] == nil_sheaf.value_at_size(3)
    assert sheaf.value[ConvexEquiv.indiscrete(base)] == nil_sheaf.value_at_size(1)


def test_two_element_restriction_is_the_merge(nil_sheaf):
    base = LinOrder.standard(2)
    sheaf = global_to_constructible(nil_sheaf, base)
    fine = ConvexEquiv.discrete(base)
    coarse = ConvexEquiv.indiscrete(base)
    assert sheaf.restriction[(fine, coarse)] == nil_sheaf.gen[(1, 0)]


def test_pullback_compatibility_exhaustive(nil_sheaf):
    for n_src in range(1, 5):
        for n_tgt in range(1, n_src + 1):
            src = LinOrder.standard(n_src)
            tgt = LinOrder.standard(n_tgt)
            sheaf_src = global_to_constructible(nil_sheaf, src)
            sheaf_tgt = global_to_constructible(nil_sheaf, tgt)
            rels = enumerate_convex_equivalences(tgt)
            for f in enumerate_surjections(src, tgt):
                for e in rels:
                    for e2 in rels:
                        if not e.refines(e2):
                            continue
                        eb, eb2 = preimage_equiv(f, e), preimage_equiv(f, e2)
                        assert sheaf_src.value[eb] == sheaf_tgt.value[e]
                        assert (
                            sheaf_src.restriction[(eb, eb2)]
                            == sheaf_tgt.restriction[(e, e2)]
                        )


# ------------------------------------------------------------------ stalks


def test_stalk_extremes(nil_sheaf):
    base = LinOrder.standard(3)
    sheaf = global_to_constructible(nil_sheaf, base)
    all_finite = rep_from_gaps([1, 2])
    assert stalk(sheaf, all_finite) == sheaf.value[ConvexEquiv.indiscrete(base)]
    all_inf = rep_from_gaps([INF, INF])
    assert stalk(sheaf, all_inf) == sheaf.value[ConvexEquiv.discrete(base)]


def test_all_infinite_stalk_determines_global_value(nil_sheaf):
    # stalk at the all-infinity point equals the sheaf's value on I
    for n in range(1, 5):
        base = LinOrder.standard(n)
        sheaf = global_to_constructible(nil_sheaf, base)
        point = rep_from_gaps([INF] * (n - 1))
        assert stalk(sheaf, point) == nil_sheaf.value_at_size(n)


def test_easybreak_evaluation(nil_sheaf):
    algebra = nilpotent_upper3()
    base = LinOrder.standard(2)
    points = [rep_from_gaps([g]) for g in (ExtReal(0), ExtReal(1), ExtReal(2), INF)]
    family, _ = build_family(
        base,
        points,
        ids=["t1", "t1/2", "t1/4", "t0"],
        edges=[("t1", "t1/2"), ("t1/2", "t1/4"), ("t1/4", "t0")],
        limits=["t0"],
    )
    ev = evaluate_on_family(nil_sheaf, family)
    dims = [ev.stalks[s].dim for s, _ in family.samples]
    assert dims == [3, 3, 3, 9]
    assert ev.edge_maps[("t1", "t1/2")].is_identity()
    assert ev.edge_maps[("t1/4", "t0")] == algebra.multiplication()
    assert ev.incomparable == ()


def test_constant_family_evaluation(nil_sheaf):
    base = LinOrder.standard(3)
    point = rep_from_gaps([1, INF])
    family, _ = build_family(
        base, [point, point], ids=["a", "b"], edges=[("a", "b")]
    )
    ev = evaluate_on_family(nil_sheaf, family)
    assert ev.stalks["a"] == ev.stalks["b"]
    assert ev.edge_maps[("a", "b")].is_identity()


def test_edge_maps_compose_on_random_families(nil_sheaf):
    rng = random.Random(5)
    base = LinOrder.standard(3)
    rels = enumerate_convex_equivalences(base)
    sheaf = global_to_constructible(nil_sheaf, base)
    for _ in range(25):
        chain = sorted(
            rng.sample(rels, 3), key=lambda r: len(r.classes), reverse=True
        )
        if not (chain[0].refines(chain[1]) and chain[1].refines(chain[2])):
            continue
        points = [stratum_samples(base, rel, 1)[0] for rel in chain]
        family, _ = build_family(
            base, points, ids=["a", "b", "c"], edges=[("a", "b"), ("b", "c")]
        )
        ev = evaluate_on_family(nil_sheaf, family)
        direct = sheaf.restriction[(chain[0], chain[2])]
        assert ev.edge_maps[("b", "c")] @ ev.edge_maps[("a", "b")] == direct


def test_truncation_enforced(nil_sheaf):
    base = LinOrder.standard(5)
    with pytest.raises(ValueError):
        global_to_constructible(nil_sheaf, base)


def test_constructible_functoriality_up_to_five_elements():
    # the ConstructibleSheaf constructor checks identity and composition
    # along covers of the Conv(I) poset; run it through |I| = 5
    sheaf = GlobalSheaf.from_algebra(rational_algebra(), 4)
    for n in range(1, 6):
        global_to_constructible(sheaf, LinOrder.standard(n))


def test_constructible_rejects_altered_restriction():
    base = LinOrder.standard(3)
    good = global_to_constructible(GlobalSheaf.from_algebra(rational_algebra(), 2), base)
    restriction = dict(good.restriction)
    key = (ConvexEquiv.discrete(base), ConvexEquiv.indiscrete(base))
    restriction[key] = add(restriction[key], restriction[key])
    with pytest.raises(ValueError, match="restrictions fail to compose"):
        ConstructibleSheaf(base, good.value, restriction)


def _rational_on_three():
    base = LinOrder.standard(3)
    good = global_to_constructible(GlobalSheaf.from_algebra(rational_algebra(), 2), base)
    fine, coarse = ConvexEquiv.discrete(base), ConvexEquiv.indiscrete(base)
    return base, good, fine, coarse


def test_constructible_errors_name_the_pair():
    base, good, fine, coarse = _rational_on_three()
    pair = f"({fine}, {coarse})"
    missing = {k: m for k, m in good.restriction.items() if k != (fine, coarse)}
    with pytest.raises(ValueError, match=re.escape(f"missing restriction map at {pair}")):
        ConstructibleSheaf(base, good.value, missing)
    wrong = dict(good.restriction)
    wrong[(fine, coarse)] = LinMap.zero(VectObject(2), VectObject(1))
    with pytest.raises(ValueError, match=re.escape(f"restriction map at {pair} has wrong shape")):
        ConstructibleSheaf(base, good.value, wrong)
    doubled = dict(good.restriction)
    doubled[(fine, fine)] = add(doubled[(fine, fine)], doubled[(fine, fine)])
    message = f"identity restriction at ({fine}, {fine}) must be the identity"
    with pytest.raises(ValueError, match=re.escape(message)):
        ConstructibleSheaf(base, good.value, doubled)


def test_constructible_composition_error_names_the_chain():
    base, good, fine, coarse = _rational_on_three()
    restriction = dict(good.restriction)
    restriction[(fine, coarse)] = add(restriction[(fine, coarse)], restriction[(fine, coarse)])
    # the first chain fine <= b < coarse checked, with coarse covering b
    rels = enumerate_convex_equivalences(base)
    b = next(r for r in rels if coarse in r.covers())
    message = f"restrictions fail to compose at ({fine}, {b}, {coarse})"
    with pytest.raises(ValueError, match=re.escape(message)):
        ConstructibleSheaf(base, good.value, restriction)


def test_json_shape(nil_sheaf):
    data = nil_sheaf.to_json()
    assert data["N"] == 3
    assert data["V"] == [3, 9, 27, 81]
    assert "1,0" in data["gen"]


def test_json_roundtrip(nil_sheaf):
    again = GlobalSheaf.from_json(nil_sheaf.to_json())
    assert again.values == nil_sheaf.values
    assert again.gen == nil_sheaf.gen


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False], ids=repr)
def test_json_rejects_a_float_or_bool_entry(nil_sheaf, bad):
    data = nil_sheaf.to_json()
    data["gen"]["1,0"][2][4] = bad
    message = f"rows[2][4] must be an int, a Fraction or a 'p/q' string, got {bad!r}"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        GlobalSheaf.from_json(data)


def test_truncation_errors_name_the_size_and_n(nil_sheaf):
    with pytest.raises(ValueError, match=re.escape("size 5 outside 1..4 (truncation N=3)")):
        nil_sheaf.value_at_size(5)
    with pytest.raises(ValueError, match=re.escape("size 0 outside 1..4 (truncation N=3)")):
        nil_sheaf.value_at_size(0)
    five, four = LinOrder.standard(5), LinOrder.standard(4)
    with pytest.raises(ValueError, match=re.escape(
        "source of size 5 outside truncation N=3"
    )):
        apply_surjection(nil_sheaf, OrderMorphism(five, four, [0, 1, 2, 3, 3]))
    with pytest.raises(ValueError, match=re.escape("order of size 5 outside truncation N=3")):
        global_to_constructible(nil_sheaf, five)
