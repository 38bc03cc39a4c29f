import itertools
import random
import re

import pytest

from brokenlines import cli, twisted
from brokenlines.orders import (
    ConvexEquiv,
    LinOrder,
    OrderMorphism,
    enumerate_convex_equivalences,
    enumerate_surjections,
)
from brokenlines.twisted import (
    TwFunctor,
    TwMorphism,
    TwObject,
    algebra_to_functor,
    comparison_morphism,
    day_assoc_check,
    day_convolution,
    day_square,
    factorizable_check,
    flat,
    functor_to_algebra,
    point,
    roundtrip_natural_iso,
    sharp,
    tw_enumerate,
    tw_generators,
    tw_restrict,
    tw_star,
    valid_cuts,
)
from brokenlines.vect import (
    BUILTIN_ALGEBRAS,
    LinMap,
    NonunitalAlgebra,
    VectObject,
    block_map,
    direct_sum,
    distribute,
    matrix_algebra_2x2,
    nilpotent_upper3,
    rational_algebra,
    tensor,
    tensor_all,
    zero_algebra,
)

from test_vect import add


# ------------------------------------------------------------ enumeration


def test_enumerate_sizes():
    objects, _ = tw_enumerate(1)
    assert len(objects) == 1
    objects, _ = tw_enumerate(2)
    assert len(objects) == 3  # singleton, pair discrete, pair indiscrete
    for n in (3, 4):
        objects, _ = tw_enumerate(n)
        assert len(objects) == sum(2 ** (k - 1) for k in range(1, n + 1))


def tw_objects(N):
    return [
        TwObject(LinOrder.standard(n), rel)
        for n in range(1, N + 1)
        for rel in enumerate_convex_equivalences(LinOrder.standard(n))
    ]


def tw_oracle(N):
    """Objects of size <= N, and every map between them that TwMorphism
    accepts, in itertools.product order."""
    objects = tw_objects(N)
    morphisms = []
    for x in objects:
        for y in objects:
            for mapping in itertools.product(range(y.n), repeat=x.n):
                try:
                    morphisms.append(TwMorphism(x, y, mapping))
                except ValueError:
                    pass
    return tuple(objects), tuple(morphisms)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_enumerate_matches_product_oracle(N):
    assert tw_enumerate(N) == tw_oracle(N)


def surjection_filter_oracle(N):
    """Objects of size <= N, and every monotone surjection between them
    that reflects the target relation: each surjection is tried, and the
    ones TwMorphism rejects are dropped.  In (source, target, mapping)
    order."""
    objects = tw_objects(N)
    morphisms = []
    for x in objects:
        for y in objects:
            for g in enumerate_surjections(x.order, y.order):
                try:
                    morphisms.append(TwMorphism(x, y, g.mapping))
                except ValueError:
                    continue  # the surjection does not reflect y's relation
    return tuple(objects), tuple(morphisms)


@pytest.mark.parametrize("N", [5, 6])
def test_enumerate_matches_surjection_filter_oracle(N):
    # element for element: the order of the morphisms is part of the result
    assert tw_enumerate(N) == surjection_filter_oracle(N)


@pytest.mark.parametrize("N", range(1, 7))
def test_enumerated_morphisms_equal_their_validated_rebuilds(N):
    # tw_enumerate wraps what it builds unchecked; the validating
    # constructors are the oracle
    for f in tw_enumerate(N)[1]:
        assert TwMorphism(f.source, f.target, f.mapping) == f
        assert OrderMorphism(f.source.order, f.target.order, f.mapping) == f.f


def test_composition_closed():
    objects, morphisms = tw_enumerate(3)
    pool = set(morphisms)
    for f in morphisms:
        for g in morphisms:
            if g.source == f.target:
                assert f.then(g) in pool


def test_composing_mismatched_morphisms_names_both_objects():
    one, two = tw_objects(1)[0], tw_objects(2)[-1]
    message = f"morphisms not composable: {one!r} != {two!r}"
    assert repr(two) == "TwObject(n=2, classes=[[0], [1]])"
    with pytest.raises(ValueError, match=re.escape(message)):
        TwMorphism.identity(one).then(TwMorphism.identity(two))


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_generators_generate(N):
    # the oracle behind checking functors on generators only: closing the
    # grade-one morphisms under composition reaches every non-identity map
    objects, morphisms = tw_enumerate(N)
    identities = {TwMorphism.identity(x) for x in objects}
    for f in morphisms:
        drop = f.source.grade - f.target.grade
        assert drop >= 1 or f in identities
        assert (drop == 1) == (f in tw_generators(N))
    out_of = {x: [] for x in objects}
    for g in tw_generators(N):
        out_of[g.source].append(g)
    reached = set(tw_generators(N))
    frontier = reached
    while frontier:
        frontier = {f.then(g) for f in frontier for g in out_of[f.target]} - reached
        reached |= frontier
    assert reached | identities == set(morphisms)


def test_comparison_morphism_exists_for_every_relation():
    objects, _ = tw_enumerate(3)
    for x in objects:
        cmp_map = comparison_morphism(x)
        assert cmp_map.source == sharp(x.n)
        assert cmp_map.target == x


def test_reflection_condition_enforced():
    two = LinOrder.standard(2)
    src = TwObject(two, ConvexEquiv.discrete(two))
    tgt = TwObject(two, ConvexEquiv.indiscrete(two))
    # target identifies 0 ~ 1 but the source does not: rejected
    with pytest.raises(ValueError):
        TwMorphism(src, tgt, [0, 1])
    # the other direction is fine
    TwMorphism(tgt, src, [0, 1])


def test_reflection_check_matches_pairwise_oracle():
    # every monotone surjection between objects of size <= 4 (the maps
    # tw_oracle tries): TwMorphism accepts exactly the reflecting ones
    objects = tw_oracle(4)[0]
    for x in objects:
        for y in objects:
            for mapping in itertools.product(range(y.n), repeat=x.n):
                try:
                    f = OrderMorphism(x.order, y.order, mapping)
                except ValueError:
                    continue
                if not f.is_surjective:
                    continue
                violations = {
                    (i, j)
                    for cy in y.rel.classes
                    for cx in x.rel.classes
                    for i in range(x.n)
                    for j in range(x.n)
                    if mapping[i] in cy and mapping[j] in cy
                    and i in cx and j not in cx
                }
                try:
                    TwMorphism(x, y, mapping)
                except ValueError as exc:
                    found = re.fullmatch(r"relation not reflected at \((\d+),(\d+)\)", str(exc))
                    assert tuple(map(int, found.groups())) in violations
                else:
                    assert not violations, (x, y, mapping)


# ------------------------------------------------------------------ star


def test_star_of_singletons_is_discrete_pair():
    assert tw_star(point(), point()) == flat(2)


def test_sharp_star_interaction():
    # (I*J)# has one class; I# * J# has two: the comparison is bijective
    # on labels but not an isomorphism
    lhs = sharp(3)  # (I*J)# for |I|=1, |J|=2
    rhs = tw_star(sharp(1), sharp(2))
    assert lhs.order == rhs.order
    assert len(lhs.rel.classes) == 1
    assert len(rhs.rel.classes) == 2
    assert lhs != rhs


def test_star_preserves_convexity_and_associates():
    objects, _ = tw_enumerate(2)
    for x in objects:
        for y in objects:
            glued = tw_star(x, y)
            ConvexEquiv(glued.order, glued.rel.classes)  # re-validate
            for z in objects:
                assert tw_star(tw_star(x, y), z) == tw_star(x, tw_star(y, z))


def test_valid_cuts_respect_classes():
    three = LinOrder.standard(3)
    x = TwObject(three, ConvexEquiv(three, [(0, 1), (2,)]))
    assert valid_cuts(x) == [2]
    assert valid_cuts(sharp(3)) == []
    assert valid_cuts(flat(3)) == [1, 2]
    for x in tw_enumerate(5)[0]:
        straddled = {k for c in x.rel.classes for k in range(min(c) + 1, max(c) + 1)}
        assert valid_cuts(x) == [k for k in range(1, x.n) if k not in straddled]


def test_restriction_relabels():
    three = LinOrder.standard(3)
    x = TwObject(three, ConvexEquiv(three, [(0,), (1, 2)]))
    sub = tw_restrict(x, 1, 3)
    assert sub.n == 2
    assert sub.rel.classes == ((0, 1),)


def test_restriction_cache_matches_uncached():
    objects, _ = tw_enumerate(5)
    for x in objects:
        for lo in range(x.n):
            with pytest.raises(ValueError):
                tw_restrict(x, lo, lo)
            for hi in range(lo + 1, x.n + 1):
                sub = tw_restrict(x, lo, hi)
                assert sub == tw_restrict.__wrapped__(x, lo, hi)
                assert tw_restrict(x, lo, hi) is sub


def test_star_cache_matches_validated_constructors():
    for x, y in twisted.tw_pairs(5):
        order = LinOrder.standard(x.n + y.n)
        classes = list(x.rel.classes) + [tuple(i + x.n for i in c) for c in y.rel.classes]
        assert tw_star(x, y) == TwObject(order, ConvexEquiv(order, classes))
        assert tw_star(x, y) is tw_star(x, y)


# ----------------------------------------------------- algebra functors


def test_zero_algebra_actions_vanish():
    functor = algebra_to_functor(zero_algebra(1), 3)
    _, morphisms = tw_enumerate(3)
    for f in morphisms:
        injective = len(set(f.mapping)) == f.source.n
        m = functor.action[f]
        if injective:
            assert m.is_identity()
        else:
            assert all(x == 0 for row in m.rows for x in row)


def test_rational_algebra_merge_is_multiplication():
    functor = algebra_to_functor(rational_algebra(), 2)
    merge = TwMorphism(sharp(2), point(), [0, 0])
    # dims are all 1; the merge is the 1x1 multiplication [q1 (x) q2 -> q1q2]
    assert functor.action[merge].rows == ((1,),)


def test_nilpotent_merge_action():
    functor = algebra_to_functor(nilpotent_upper3(), 2)
    merge = TwMorphism(sharp(2), point(), [0, 0])
    m = functor.action[merge]
    # basis order e12, e13, e23; column (0, 2) is e12 (x) e23 -> e13
    col_forward = 0 * 3 + 2
    assert [row[col_forward] for row in m.rows] == [0, 1, 0]
    # order-reversed factor e23 (x) e12 multiplies to zero
    col_reverse = 2 * 3 + 0
    assert [row[col_reverse] for row in m.rows] == [0, 0, 0]


def _mult_oracle(algebra, k):
    """Left-fold multiplication A^(x)k -> A, rebuilt at every call."""
    out = LinMap.identity(algebra.space)
    for _ in range(k - 1):
        out = algebra.multiplication() @ tensor(out, LinMap.identity(algebra.space))
    return out


def _fiber_shape(f):
    return tuple(len(f.f.fiber(j)) for j in range(f.target.n))


def _action_oracle(algebra, f):
    """The action of f built on its own: one fold per fiber, tensored."""
    return tensor_all([_mult_oracle(algebra, k) for k in _fiber_shape(f)])


def _rebased(algebra, seed):
    """`algebra` in a seeded unimodular basis P: mult' = P^-1 mult (P (x) P)."""
    rng = random.Random(seed)
    d = algebra.dim
    perm = rng.sample(range(d), d)
    p = [[rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(d)]
         for i in range(d)]
    for _ in range(4):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
    basis = LinMap(algebra.space, algebra.space, p)
    rows = (basis.inverse() @ algebra.multiplication() @ tensor(basis, basis)).rows
    out = NonunitalAlgebra(
        d, [[rows[k][i * d : (i + 1) * d] for i in range(d)] for k in range(d)]
    )
    assert out.validate() is None and out != algebra
    return out


ORACLE_CASES = [
    (name, make, N)
    for name, make in (
        ("zero1", zero_algebra),
        ("rational", rational_algebra),
        ("nilpotent3", nilpotent_upper3),
        ("mat2", matrix_algebra_2x2),
        ("mat2-seeded", lambda: _rebased(matrix_algebra_2x2(), 20181)),
    )
    for N in (1, 2, 3, 4)
] + [("nilpotent3", nilpotent_upper3, 5)]


@pytest.mark.parametrize(
    "make, N", [c[1:] for c in ORACLE_CASES], ids=[f"{c[0]}-{c[2]}" for c in ORACLE_CASES]
)
def test_shared_actions_match_per_morphism_oracle(make, N):
    algebra = make()
    functor = algebra_to_functor(algebra, N)
    objects, morphisms = tw_enumerate(N)
    for x in objects:
        assert functor.value[x] == tensor_all([algebra.space] * x.n)
    for f in morphisms:
        assert functor.action[f] == _action_oracle(algebra, f)


def test_actions_of_equal_shape_differ_between_algebras():
    zero = algebra_to_functor(zero_algebra(3), 3)
    nil = algebra_to_functor(nilpotent_upper3(), 3)
    _, morphisms = tw_enumerate(3)
    for f in morphisms:
        assert zero.action[f] == _action_oracle(zero_algebra(3), f)
        assert nil.action[f] == _action_oracle(nilpotent_upper3(), f)
        # the two agree on identities, and on a triple product, which is 0
        # in both; a fiber of two multiplies by mu_2 != 0 only in nil
        assert (zero.action[f] == nil.action[f]) == (2 not in _fiber_shape(f))


@pytest.mark.parametrize("N", [3, 4, 5])
def test_one_action_object_per_fiber_shape(N):
    functor = algebra_to_functor(nilpotent_upper3(), N)
    by_shape = {}
    for f, m in functor.action.items():
        by_shape.setdefault(_fiber_shape(f), set()).add(id(m))
    # the shapes are the compositions of 1..N, 2^(n-1) of each n
    assert len(by_shape) == 2**N - 1
    assert all(len(ids) == 1 for ids in by_shape.values())
    assert len({id(m) for m in functor.action.values()}) == 2**N - 1


@pytest.mark.parametrize("N", [1, 3, 5])
def test_algebra_actions_follow_enumeration_order(N):
    functor = algebra_to_functor(nilpotent_upper3(), N)
    assert list(functor.action) == list(tw_enumerate(N)[1])


def test_algebra_functors_validate():
    for make in (zero_algebra, nilpotent_upper3, rational_algebra):
        functor = algebra_to_functor(make(), 3)
        assert functor.validate() is None
        objects, _ = tw_enumerate(3)
        assert all(functor.comparison(x).is_invertible() for x in objects)
        assert functor.is_monoidal()


# -------------------------------------------------------------- roundtrip


def test_roundtrip_structure_constants():
    for make in (zero_algebra, nilpotent_upper3, matrix_algebra_2x2):
        algebra = make()
        functor = algebra_to_functor(algebra, 3)
        assert functor_to_algebra(functor) == algebra


def test_constant_dim1_functor_gives_rational_algebra():
    functor = algebra_to_functor(rational_algebra(), 3)
    back = functor_to_algebra(functor)
    assert back.dim == 1
    assert back.c[0][0][0] == 1


def test_reverse_roundtrip_natural_iso():
    for make in (zero_algebra, nilpotent_upper3):
        functor = algebra_to_functor(make(), 3)
        eta = roundtrip_natural_iso(functor)
        objects, _ = tw_enumerate(3)
        assert set(eta) == set(objects)
        assert all(m.is_invertible() for m in eta.values())


BUILTINS = [zero_algebra, nilpotent_upper3, matrix_algebra_2x2]


def roundtrip_on_all_morphisms(functor):
    """roundtrip_natural_iso with the naturality square checked on every
    morphism, not only on generators: the oracle for the generator check."""
    rebuilt = algebra_to_functor(functor_to_algebra(functor), functor.N)
    objects, morphisms = tw_enumerate(functor.N)
    pt = point()
    ident = LinMap.identity(functor.value[pt])
    folds = {1: ident}
    for n in range(2, functor.N + 1):
        folds[n] = functor.lax[(flat(n - 1), pt)] @ tensor(folds[n - 1], ident)
    eta = {}
    for x in objects:
        cmp_flat = functor.comparison(flat(x.n))
        eta[x] = functor.comparison(x) @ cmp_flat.inverse() @ folds[x.n]
        if not eta[x].is_invertible():
            raise ValueError(f"component at {x} is not invertible")
    for f in morphisms:
        if eta[f.target] @ rebuilt.action[f] != functor.action[f] @ eta[f.source]:
            raise ValueError(f"naturality fails at {f}")
    for x, y in twisted.tw_pairs(functor.N):
        lhs = eta[tw_star(x, y)] @ rebuilt.lax[(x, y)]
        if lhs != functor.lax[(x, y)] @ tensor(eta[x], eta[y]):
            raise ValueError(f"monoidal compatibility fails at ({x},{y})")
    return eta


ROUNDTRIP_CASES = [
    (make.__name__, make, N) for N in (3, 4) for make in BUILTINS
] + [
    ("nilpotent_upper3", nilpotent_upper3, 5),
    ("mat2-seeded", lambda: _rebased(matrix_algebra_2x2(), 20181), 4),
]


@pytest.mark.parametrize(
    "make, N", [c[1:] for c in ROUNDTRIP_CASES], ids=[f"{c[0]}-{c[2]}" for c in ROUNDTRIP_CASES]
)
def test_roundtrip_on_generators_matches_all_morphisms(make, N):
    functor = algebra_to_functor(make(), N)
    assert roundtrip_natural_iso(functor) == roundtrip_on_all_morphisms(functor)


@pytest.mark.parametrize("make", BUILTINS, ids=[m.__name__ for m in BUILTINS])
def test_roundtrip_checks_eta_on_the_functor_it_built(make):
    algebra = make()
    functor, recovered, eta = twisted.roundtrip(algebra, 4)
    assert recovered == algebra
    # algebra_to_functor is deterministic: the rebuilt functor is this one
    rebuilt = algebra_to_functor(recovered, 4)
    assert (rebuilt.value, rebuilt.action, rebuilt.lax) == (
        functor.value, functor.action, functor.lax
    )
    assert eta == roundtrip_natural_iso(functor)
    with pytest.raises(ValueError, match="truncation must be at least 3"):
        twisted.roundtrip(algebra, 2)


def with_zero_action(functor, f):
    """An unchecked copy of functor that acts by zero on f."""
    action = dict(functor.action)
    action[f] = LinMap.zero(functor.value[f.source], functor.value[f.target])
    return TwFunctor._of(functor.N, functor.value, action, functor.lax)


def test_roundtrip_names_a_non_natural_generator():
    three = LinOrder.standard(3)
    x = TwObject(three, ConvexEquiv(three, [(0, 1), (2,)]))
    merge = TwMorphism(x, flat(2), [0, 0, 1])
    assert merge in tw_generators(4)
    broken = with_zero_action(algebra_to_functor(nilpotent_upper3(), 4), merge)
    with pytest.raises(ValueError) as exc:
        roundtrip_natural_iso(broken)
    assert str(exc.value) == f"naturality fails at {merge}"
    with pytest.raises(ValueError, match="naturality fails at"):
        roundtrip_on_all_morphisms(broken)


def test_validate_names_a_fault_off_the_generators():
    # the premise of checking naturality on generators only: a wrong
    # action on a composite of generators is caught by validate(), and
    # not by the generator squares of roundtrip_natural_iso
    composite = TwMorphism(sharp(3), flat(2), [0, 0, 1])
    assert composite not in tw_generators(4)
    broken = with_zero_action(algebra_to_functor(nilpotent_upper3(), 4), composite)
    _, morphisms = tw_enumerate(4)
    naming = {
        f"functoriality fails at {g} o {f}"
        for f in morphisms
        for g in tw_generators(4)
        if g.source == f.target and composite in (f, f.then(g))
    }
    assert broken.validate() in naming
    roundtrip_natural_iso(broken)
    with pytest.raises(ValueError, match="naturality fails at"):
        roundtrip_on_all_morphisms(broken)


def test_validate_names_a_lax_fault_off_the_sharp_pairs():
    # the premise of checking monoidal compatibility on sharp pairs only:
    # a wrong lax map at a pair the roundtrip does not read is caught by
    # validate(), and not by roundtrip_natural_iso.  Its unfolds read the
    # lax maps at (flat(k), point()), so the fault sits elsewhere.
    three = LinOrder.standard(3)
    x = TwObject(three, ConvexEquiv(three, [(0, 1), (2,)]))
    pair = (x, point())
    functor = algebra_to_functor(nilpotent_upper3(), 4)
    lax = dict(functor.lax)
    lax[pair] = add(lax[pair], lax[pair])
    broken = TwFunctor._of(4, functor.value, functor.action, lax)
    objects, _ = tw_enumerate(4)
    naming = set()
    for g in tw_generators(4):
        for y in objects:
            if g.source.n + y.n > 4:
                continue
            ident = TwMorphism.identity(y)
            for f, h in ((g, ident), (ident, g)):
                if pair in ((f.target, h.target), (f.source, h.source)):
                    naming.add(f"lax naturality fails at ({f}, {h})")
    for a, b in twisted.tw_pairs(3):
        if tw_star(a, b) == x:
            naming.add(f"lax associativity fails at ({a}, {b}, {point()})")
    assert broken.validate() in naming
    assert roundtrip_natural_iso(broken) == roundtrip_natural_iso(functor)
    with pytest.raises(ValueError, match=re.escape(
        f"monoidal compatibility fails at ({x},{point()})"
    )):
        roundtrip_on_all_morphisms(broken)


def test_roundtrip_names_a_lax_fault_at_a_sharp_pair():
    pair = (sharp(2), point())
    functor = algebra_to_functor(nilpotent_upper3(), 4)
    lax = dict(functor.lax)
    lax[pair] = add(lax[pair], lax[pair])
    broken = TwFunctor._of(4, functor.value, functor.action, lax)
    msg = re.escape(f"monoidal compatibility fails at ({sharp(2)},{point()})")
    with pytest.raises(ValueError, match=msg):
        roundtrip_natural_iso(broken)
    with pytest.raises(ValueError, match=msg):
        roundtrip_on_all_morphisms(broken)


def _signed_permutation(dim, rng):
    cols = rng.sample(range(dim), dim)
    obj = VectObject(dim)
    return LinMap(obj, obj, [[rng.choice((-1, 1)) if c == j else 0 for j in range(dim)]
                             for c in cols])


def transported(functor, seed):
    """functor transported along a seeded signed permutation eta_x of each
    value, eta_point the identity, and the planted eta: F'(f) = eta_y F(f)
    eta_x^-1 and lax'(x, y) = eta_{x*y} lax(x, y) (eta_x (x) eta_y)^-1."""
    rng = random.Random(seed)
    eta = {x: LinMap.identity(v) if x == point() else _signed_permutation(v.dim, rng)
           for x, v in functor.value.items()}
    inv = {x: m.inverse() for x, m in eta.items()}
    action = {f: eta[f.target] @ m @ inv[f.source] for f, m in functor.action.items()}
    lax = {(x, y): eta[tw_star(x, y)] @ u @ tensor(inv[x], inv[y])
           for (x, y), u in functor.lax.items()}
    return TwFunctor(functor.N, functor.value, action, lax), eta


TRANSPORT_CASES = [
    ("nilpotent3", nilpotent_upper3),
    ("mat2-seeded", lambda: _rebased(matrix_algebra_2x2(), 20181)),
]


@pytest.mark.parametrize(
    "make", [c[1] for c in TRANSPORT_CASES], ids=[c[0] for c in TRANSPORT_CASES]
)
def test_roundtrip_of_a_transported_functor(make):
    # TwFunctor's own check is part of the test: the transport is a functor
    algebra = make()
    functor, eta = transported(algebra_to_functor(algebra, 4), seed=17)
    assert [x for x, m in eta.items() if m.is_identity()] == [point()]
    assert functor.is_monoidal()
    assert functor_to_algebra(functor) == algebra
    # eta_x F'(c_x) unfolds to eta_x itself, as F's own components are identities
    assert roundtrip_natural_iso(functor) == roundtrip_on_all_morphisms(functor) == eta


def test_functor_to_algebra_rejects_low_truncation():
    functor = algebra_to_functor(rational_algebra(), 2)
    with pytest.raises(ValueError):
        functor_to_algebra(functor)


def _unguarded_functor(algebra, N):
    """algebra_to_functor(algebra, N) without its associativity guard."""
    objects, _ = tw_enumerate(N)
    value = {x: VectObject(algebra.dim**x.n) for x in objects}
    shapes = twisted._shapes(N)
    products = algebra.fiber_products(shapes.values())
    action = {f: products[s] for f, s in shapes.items()}
    lax = {(x, y): LinMap.identity(value[tw_star(x, y)]) for x, y in twisted.tw_pairs(N)}
    return TwFunctor._of(N, value, action, lax)


def test_functor_to_algebra_rejects_non_associative_data():
    # constants that fail validate(), though mu_3 is their left fold
    bad = NonunitalAlgebra(2, [[[1, 1], [0, 0]], [[0, 1], [1, 0]]])
    with pytest.raises(ValueError, match="functor data is not associative"):
        functor_to_algebra(_unguarded_functor(bad, 3))
    # associative constants, but mu_3 is not their left fold
    functor = algebra_to_functor(matrix_algebra_2x2(), 3)
    assert _unguarded_functor(matrix_algebra_2x2(), 3).action == functor.action
    merge3 = TwMorphism(sharp(3), point(), [0, 0, 0])
    action = dict(functor.action)
    action[merge3] = add(action[merge3], action[merge3])
    broken = TwFunctor._of(3, functor.value, action, functor.lax)
    with pytest.raises(ValueError, match="functor data is not associative"):
        functor_to_algebra(broken)


def test_functor_to_algebra_requires_invertible_comparison():
    base = algebra_to_functor(zero_algebra(1), 3)
    # break the Fun_0 condition: zero out a comparison map
    action = dict(base.action)
    bad = comparison_morphism(flat(2))
    action[bad] = LinMap.zero(base.value[sharp(2)], base.value[flat(2)])
    # fix functoriality by zeroing everything out of flat(2) too; simpler:
    # construct without checks and confirm the error path fires
    broken = TwFunctor._of(3, base.value, action, base.lax)
    with pytest.raises(ValueError, match=re.escape(
        f"Fun_0 comparison map at {flat(2)} is not invertible"
    )):
        functor_to_algebra(broken)


def with_singular_comparison(functor, n):
    """functor with its Fun_0 comparison map at flat(n) set to zero."""
    action = dict(functor.action)
    action[comparison_morphism(flat(n))] = LinMap.zero(
        functor.value[sharp(n)], functor.value[flat(n)]
    )
    return TwFunctor._of(functor.N, functor.value, action, functor.lax)


def test_singular_comparison_is_named_by_its_object():
    msg = "Fun_0 comparison map at {} is not invertible"
    broken = with_singular_comparison(algebra_to_functor(nilpotent_upper3(), 3), 3)
    with pytest.raises(ValueError, match=re.escape(msg.format(flat(3)))):
        functor_to_algebra(broken)
    # the roundtrip unfolds every size; functor_to_algebra reads sizes 2 and 3
    broken = with_singular_comparison(algebra_to_functor(nilpotent_upper3(), 4), 4)
    assert functor_to_algebra(broken) == nilpotent_upper3()
    with pytest.raises(ValueError, match=re.escape(msg.format(flat(4)))):
        roundtrip_natural_iso(broken)


def test_validate_rejects_altered_composite_action():
    functor = algebra_to_functor(rational_algebra(), 3)
    merge3 = TwMorphism(sharp(3), point(), [0, 0, 0])  # a composite of merges
    action = dict(functor.action)
    action[merge3] = add(action[merge3], action[merge3])
    broken = TwFunctor._of(3, functor.value, action, functor.lax)
    assert broken.validate().startswith("functoriality fails")
    with pytest.raises(ValueError, match="functoriality fails"):
        TwFunctor(3, functor.value, action, functor.lax)


def test_validate_rejects_unnatural_lax_map():
    functor = algebra_to_functor(rational_algebra(), 3)
    lax = dict(functor.lax)
    u = lax[(point(), point())]
    lax[(point(), point())] = add(u, u)  # right shape, not natural in the merges
    broken = TwFunctor._of(3, functor.value, functor.action, lax)
    assert broken.validate().startswith("lax naturality fails")


def test_the_constructor_takes_no_check_flag():
    # the constructor always validates; TwFunctor._of is the unchecked path
    functor = algebra_to_functor(rational_algebra(), 3)
    with pytest.raises(TypeError):
        TwFunctor(3, functor.value, functor.action, functor.lax, check=False)


# --------------------------------------------------------- day convolution


@pytest.fixture(scope="module")
def const_functor():
    return algebra_to_functor(rational_algebra(), 4)


@pytest.fixture(scope="module")
def nil_functor():
    return algebra_to_functor(nilpotent_upper3(), 4)


def test_day_zero_on_indiscrete(const_functor):
    conv = day_convolution(const_functor, const_functor, 4)
    for n in (2, 3, 4):
        assert conv.value[sharp(n)] == VectObject(0)


def test_day_zero_on_singleton(const_functor):
    conv = day_convolution(const_functor, const_functor, 4)
    assert conv.value[point()] == VectObject(0)


def test_day_dims_constant_functor(const_functor):
    conv = day_convolution(const_functor, const_functor, 4)
    assert conv.value[flat(3)].dim == 2  # split after 1 or after 2
    assert conv.value[flat(4)].dim == 3


def test_day_dims_with_relations(nil_functor):
    conv = day_convolution(nil_functor, nil_functor, 4)
    three = LinOrder.standard(3)
    x = TwObject(three, ConvexEquiv(three, [(0, 1), (2,)]))
    # only the cut after position 2 survives: dim 9 * 3
    assert conv.value[x].dim == 27
    assert conv.value[flat(3)].dim == 3 * 9 + 9 * 3


def test_day_builds_summands_once_per_object(nil_functor, monkeypatch):
    calls = []
    summands = twisted._summands

    def spy(left, right, x):
        calls.append(x)
        return summands(left, right, x)

    monkeypatch.setattr(twisted, "_summands", spy)
    day_convolution(nil_functor, nil_functor, 4)
    assert sorted(calls, key=repr) == sorted(tw_enumerate(4)[0], key=repr)


def test_day_square_builds_summands_once_per_object(monkeypatch):
    calls = []
    summands = twisted._summands

    def spy(left, right, x):
        calls.append(x)
        return summands(left, right, x)

    monkeypatch.setattr(twisted, "_summands", spy)
    day_square(algebra_to_functor(matrix_algebra_2x2(), 5), 5)
    assert len(calls) == 31
    assert set(calls) == set(tw_enumerate(5)[0])


def test_day_needs_factors_one_size_below_the_truncation():
    small = algebra_to_functor(nilpotent_upper3(), 3)
    # (L ⊛ R)(x) reads L and R on proper parts of x only
    assert day_convolution(small, small, 4).validate() is None
    assert day_square(small, 4).validate() is None
    assert day_assoc_check(small, small, small, 4)["ok"]
    msg = re.escape("at truncation 5 needs factors truncated at 4 or more, got 3 and 3")
    for build in (
        lambda: day_convolution(small, small, 5),
        lambda: day_square(small, 5),
        lambda: day_assoc_check(small, small, small, 5),
    ):
        with pytest.raises(ValueError, match=msg):
            build()
    with pytest.raises(ValueError, match="got 4 and 3"):
        day_convolution(algebra_to_functor(nilpotent_upper3(), 4), small, 5)


def test_day_functor_is_a_functor(nil_functor):
    conv = day_convolution(nil_functor, nil_functor, 3)
    assert conv.validate() is None


def test_day_nonempty_on_discrete_fun0(nil_functor):
    conv = day_convolution(nil_functor, nil_functor, 4)
    for n in (2, 3, 4):
        assert conv.value[flat(n)].dim > 0


def test_day_assoc_zero_factor(const_functor):
    objects, _ = tw_enumerate(3)
    zero_values = {x: VectObject(0) for x in objects}
    _, morphisms = tw_enumerate(3)
    zero_actions = {
        f: LinMap.zero(VectObject(0), VectObject(0)) for f in morphisms
    }
    zero_f = TwFunctor._of(3, zero_values, zero_actions)
    lhs = day_convolution(day_convolution(zero_f, const_functor, 3), const_functor, 3)
    rhs = day_convolution(zero_f, day_convolution(const_functor, const_functor, 3), 3)
    for x in objects:
        assert lhs.value[x] == VectObject(0)
        assert rhs.value[x] == VectObject(0)


def test_day_assoc_constant(const_functor):
    report = day_assoc_check(const_functor, const_functor, const_functor, 4)
    assert report["ok"], report["mismatches"]
    # the unique 3-part decomposition of a discrete 3-element object
    conv2 = day_convolution(
        day_convolution(const_functor, const_functor, 4), const_functor, 4
    )
    assert conv2.value[flat(3)].dim == 1


def test_day_assoc_nilpotent(nil_functor):
    report = day_assoc_check(nil_functor, nil_functor, nil_functor, 4)
    assert report["ok"], report["mismatches"]


def test_day_assoc_mixed(const_functor, nil_functor):
    report = day_assoc_check(const_functor, nil_functor, const_functor, 3)
    assert report["ok"], report["mismatches"]


def intertwine_on_all_morphisms(f1, f2, f3, N):
    """The intertwining mismatches of day_assoc_check, checked on every
    morphism, not only on generators: the oracle for the generator check."""
    lhs = day_convolution(day_convolution(f1, f2, N), f3, N)
    rhs = day_convolution(f1, day_convolution(f2, f3, N), N)
    objects, morphisms = tw_enumerate(N)
    perms = {x: twisted._assoc_permutation(f1, f2, f3, x) for x in objects}
    return [
        ("intertwine", repr(f))
        for f in morphisms
        if perms[f.target] @ lhs.action[f] != rhs.action[f] @ perms[f.source]
    ]


@pytest.mark.parametrize("N", [3, 4])
@pytest.mark.parametrize("make", BUILTINS, ids=lambda make: make.__name__)
def test_day_assoc_on_generators_matches_all_morphisms(make, N):
    functor = algebra_to_functor(make(), N)
    objects, morphisms = tw_enumerate(N)
    assert day_assoc_check(functor, functor, functor, N) == {
        "objects_checked": len(objects),
        "morphisms_checked": len(morphisms),
        "mismatches": [],
        "ok": True,
    }
    assert intertwine_on_all_morphisms(functor, functor, functor, N) == []


def assoc_permutation_oracle(f1, f2, f3, x):
    """The reindexing ((f1⊛f2)⊛f3)(x) -> (f1⊛(f2⊛f3))(x) built from blocks:
    `reorder` takes the left side's T(l, k) from (k, l) to (l, k) order,
    and the inverse of `spread`, which distributes f1[0:l] over the right
    side's inner sum, takes them on to the right side."""
    cuts = valid_cuts(x)
    if not cuts:
        return LinMap.zero(VectObject(0), VectObject(0))
    lhs = [
        ((l, k), tensor(s, f3.value[tw_restrict(x, k, x.n)]))
        for k in cuts
        for l, s in twisted._summands(f1, f2, tw_restrict(x, 0, k)).items()
    ]
    order = sorted(range(len(lhs)), key=lambda i: lhs[i][0])
    reorder = block_map(
        [lhs[i][1] for i in order],
        [t for _, t in lhs],
        {(r, i): LinMap.identity(lhs[i][1]) for r, i in enumerate(order)},
    )
    spread = direct_sum(
        distribute(
            f1.value[tw_restrict(x, 0, l)],
            twisted._summands(f2, f3, tw_restrict(x, l, x.n)).values(),
        )
        for l in cuts
    )
    return spread.inverse() @ reorder


ASSOC_CASES = [
    (make.__name__, make, N)
    for make in (zero_algebra, rational_algebra, nilpotent_upper3, matrix_algebra_2x2)
    for N in (3, 4, 5)
] + [("mat2-seeded", lambda: _rebased(matrix_algebra_2x2(), 20181), 4)]


@pytest.mark.parametrize(
    "make, N", [c[1:] for c in ASSOC_CASES], ids=[f"{c[0]}-{c[2]}" for c in ASSOC_CASES]
)
def test_assoc_permutation_matches_block_oracle(make, N):
    functor = algebra_to_functor(make(), N)
    objects, _ = tw_enumerate(N)
    for x in objects:
        want = assoc_permutation_oracle(functor, functor, functor, x)
        assert twisted._assoc_permutation(functor, functor, functor, x) == want


def test_assoc_permutation_of_three_different_factors():
    f1, f2, f3 = (
        algebra_to_functor(make(), 4)
        for make in (rational_algebra, nilpotent_upper3, matrix_algebra_2x2)
    )
    for x in tw_enumerate(4)[0]:
        want = assoc_permutation_oracle(f1, f2, f3, x)
        assert twisted._assoc_permutation(f1, f2, f3, x) == want
    assert day_assoc_check(f1, f2, f3, 4)["ok"]


def test_day_assoc_check_reads_summands_through_day_convolution_only(
    nil_functor, monkeypatch
):
    depth, calls = [0], []
    summands, convolution = twisted._summands, twisted.day_convolution

    def summands_spy(left, right, x):
        calls.append(depth[0])
        return summands(left, right, x)

    def convolution_spy(*args):
        depth[0] += 1
        try:
            return convolution(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(twisted, "_summands", summands_spy)
    monkeypatch.setattr(twisted, "day_convolution", convolution_spy)
    assert day_assoc_check(nil_functor, nil_functor, nil_functor, 4)["ok"]
    # four convolutions, each building the summands of every object once
    assert calls == [1] * (4 * len(tw_enumerate(4)[0]))


def test_day_assoc_check_inverts_nothing(monkeypatch):
    functor = algebra_to_functor(matrix_algebra_2x2(), 4)

    def no_inverse(self):
        raise AssertionError("LinMap.inverse called")

    monkeypatch.setattr(LinMap, "inverse", no_inverse)
    assert day_assoc_check(functor, functor, functor, 4)["ok"]


def test_day_assoc_reports_a_permutation_that_does_not_intertwine(monkeypatch):
    functor = algebra_to_functor(matrix_algebra_2x2(), 4)
    assoc_permutation = twisted._assoc_permutation

    def swapped(f1, f2, f3, x):
        perm = assoc_permutation(f1, f2, f3, x)
        if x != flat(3):
            return perm
        rows = list(perm.sparse)
        rows[0], rows[1] = rows[1], rows[0]
        return LinMap._of(perm.source, perm.target, tuple(rows))

    monkeypatch.setattr(twisted, "_assoc_permutation", swapped)
    report = day_assoc_check(functor, functor, functor, 4)
    assert not report["ok"]
    assert report["mismatches"]
    assert {kind for kind, _ in report["mismatches"]} == {"intertwine"}
    oracle = intertwine_on_all_morphisms(functor, functor, functor, 4)
    assert set(report["mismatches"]) <= set(oracle)


# ------------------------------------------------ lazily built Day actions


def eager_day_actions(left, right, N):
    """Every action of left ⊛ right built up front, one `_day_action` per
    morphism: the oracle for the actions day_convolution builds on read."""
    objects, morphisms = tw_enumerate(N)
    summands = {x: twisted._summands(left, right, x) for x in objects}
    return {f: twisted._day_action(left, right, f, summands) for f in morphisms}


def spy_day_action(monkeypatch):
    """Patch twisted._day_action to log (summands, f) per call; the summands
    dict, one per convolution, tells the convolutions apart."""
    calls = []
    day_action = twisted._day_action

    def spy(left, right, f, summands):
        calls.append((summands, f))
        return day_action(left, right, f, summands)

    monkeypatch.setattr(twisted, "_day_action", spy)
    return calls


DAY_PAIRS = [(name, name) for name in BUILTIN_ALGEBRAS] + [("nilpotent3", "zero1")]


@pytest.mark.parametrize("N", [3, 4])
@pytest.mark.parametrize("names", DAY_PAIRS, ids="⊛".join)
def test_lazy_day_actions_match_eager_oracle(names, N):
    left, right = (algebra_to_functor(BUILTIN_ALGEBRAS[name](), N) for name in names)
    conv = day_convolution(left, right, N)
    want = eager_day_actions(left, right, N)
    assert list(conv.action) == list(want)
    for f in reversed(tw_enumerate(N)[1]):  # the order of first reads is free
        assert conv.action[f] == want[f]


def test_lazy_day_actions_of_a_lazy_factor_match_eager_oracle(nil_functor):
    inner = day_convolution(nil_functor, nil_functor, 4)
    eager_inner = TwFunctor._of(
        4, inner.value, eager_day_actions(nil_functor, nil_functor, 4)
    )
    outer = day_convolution(inner, nil_functor, 4)
    want = eager_day_actions(eager_inner, nil_functor, 4)
    for f in tw_enumerate(4)[1]:
        assert outer.action[f] == want[f]


def test_day_actions_are_built_once_on_first_read(nil_functor, monkeypatch):
    calls = spy_day_action(monkeypatch)
    conv = day_convolution(nil_functor, nil_functor, 4)
    _, morphisms = tw_enumerate(4)
    assert all(f in conv.action for f in morphisms)
    assert list(conv.action) == list(morphisms)
    assert len(conv.action) == len(morphisms)
    assert calls == []
    f = morphisms[len(morphisms) // 2]
    first = conv.action[f]
    assert conv.action[f] is first
    assert [g for _, g in calls] == [f]
    with pytest.raises(TypeError):
        conv.action[f] = first
    beyond = next(g for g in tw_enumerate(5)[1] if g.source.n == 5)
    assert beyond not in conv.action
    with pytest.raises(KeyError):
        conv.action[beyond]
    assert conv.validate() is None
    built = [g for _, g in calls]
    assert len(built) == len(morphisms) and set(built) == set(morphisms)


def test_functor_keeps_lazy_actions_and_copies_others(nil_functor, monkeypatch):
    calls = spy_day_action(monkeypatch)
    conv = day_convolution(nil_functor, nil_functor, 3)
    assert TwFunctor._of(3, conv.value, conv.action).action is conv.action
    square = day_square(nil_functor, 3)
    assert isinstance(square.action, twisted._Actions)
    assert calls == []  # the lax maps of day_square read no action
    plain = dict(nil_functor.action)
    assert TwFunctor._of(4, nil_functor.value, plain).action is not plain
    assert square.validate() is None


def test_daycon_builds_only_the_actions_it_reads(monkeypatch, capsys):
    calls = spy_day_action(monkeypatch)
    assert cli.main(["--truncation", "4", "daycon", "--algebra", "builtin:nilpotent3"]) == 0
    capsys.readouterr()
    per_convolution = {}
    for summands, _ in calls:
        per_convolution[id(summands)] = per_convolution.get(id(summands), 0) + 1
    # day_assoc_check reads its two outer convolutions on the 34 generators,
    # and those build 13 actions of each inner one; the printed square
    # builds none.  All five built every action before: 5 * 85 = 425.
    assert len(tw_generators(4)) == 34
    assert sorted(per_convolution.values()) == [13, 13, 34, 34]
    assert len(calls) == 94


# ------------------------------------------------------- factorizability


def test_algebra_functor_is_factorizable(nil_functor):
    assert factorizable_check(nil_functor)


def test_planted_counterexample_fails():
    base = algebra_to_functor(zero_algebra(1), 3)
    lax = dict(base.lax)
    lax[(point(), point())] = LinMap.zero(
        VectObject(1), base.value[flat(2)]
    )
    planted = TwFunctor(3, base.value, base.action, lax)
    assert planted.validate() is None  # still a valid lax functor
    assert not factorizable_check(planted)


def test_day_square_not_factorizable(nil_functor):
    square = day_square(nil_functor, 4)
    assert square.validate() is None
    assert not factorizable_check(square)


def test_day_square_of_constant_not_factorizable(const_functor):
    square = day_square(const_functor, 3)
    assert square.validate() is None
    assert not factorizable_check(square)


# -------------------------------------------------------------- adjunction


def test_sharp_left_adjoint_to_forgetful():
    objects, morphisms = tw_enumerate(3)
    for x in objects:
        for n in (1, 2, 3):
            order = LinOrder.standard(n)
            hom_tw = [
                f
                for f in morphisms
                if f.source == sharp(n) and f.target == x
            ]
            hom_lin = enumerate_surjections(order, x.order)
            assert {f.mapping for f in hom_tw} == {g.mapping for g in hom_lin}
    # triangle identities as literal morphism equalities
    for n in (1, 2, 3):
        unit_sharp = TwMorphism.identity(sharp(n))  # unit's image under sharp
        counit = comparison_morphism(sharp(n))
        assert unit_sharp.then(counit) == TwMorphism.identity(sharp(n))
    for x in objects:
        counit = comparison_morphism(x)
        # underlying map of the counit composed with the unit is identity
        assert counit.mapping == tuple(range(x.n))
