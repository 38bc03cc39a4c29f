import itertools
import math
import re

import pytest

from brokenlines import orders
from brokenlines.orders import (
    Amalgam,
    ConvexEquiv,
    LinOrder,
    LinPreorder,
    OrderMorphism,
    _monotone,
    concatenate_orders,
    enumerate_amalgams,
    enumerate_convex_equivalences,
    enumerate_linear_preorders,
    enumerate_surjections,
    induced_quotient_map,
    grow_ranks,
    preimage_equiv,
    preorder_count,
    preorder_ranks,
    quotient,
)

# ---------------------------------------------------------------- oracles


def relation_matrix_oracle(n):
    """All total transitive relations on n labels, as canonical rank
    vectors.  Exponential in n^2; usable for n <= 4."""
    found = set()
    for bits in range(2 ** (n * n)):
        rel = [[bool(bits >> (i * n + j) & 1) for j in range(n)] for i in range(n)]
        if not all(rel[i][j] or rel[j][i] for i in range(n) for j in range(n)):
            continue
        if not all(
            (not (rel[i][j] and rel[j][k])) or rel[i][k]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        ):
            continue
        found.add(preorder_from_relation(rel).ranks)
    return found


def preorder_from_relation(rel):
    """The LinPreorder of a total transitive boolean matrix: each label
    ranks by the number of classes strictly below its own."""
    n = len(rel)
    for i in range(n):
        for j in range(n):
            if not (rel[i][j] or rel[j][i]):
                raise ValueError("relation is not total")
    reps = []
    cls = [None] * n
    for i in range(n):
        for r in reps:
            if rel[i][r] and rel[r][i]:
                cls[i] = cls[r]
                break
        else:
            cls[i] = len(reps)
            reps.append(i)
    below = [sum(1 for rb in reps if rel[rb][ra] and not rel[ra][rb]) for ra in reps]
    return LinPreorder([below[cls[i]] for i in range(n)])


def join_closure_oracle(a, b):
    """a v b as the transitive closure of the union of the two relations."""
    n = a.n
    rel = [
        [a.preorder.leq(i, j) or b.preorder.leq(i, j) for j in range(n)]
        for i in range(n)
    ]
    for k in range(n):
        for i in range(n):
            if rel[i][k]:
                for j in range(n):
                    if rel[k][j]:
                        rel[i][j] = True
    return Amalgam(a.left, a.right, preorder_from_relation(rel))


def ordered_partition_oracle(n):
    """All linear preorders as (set partition, block order) pairs; rank
    vectors.  Independent of the enumerator; fine up to n = 6."""
    found = set()
    for partition in set_partitions(list(range(n))):
        for perm in itertools.permutations(range(len(partition))):
            ranks = [0] * n
            for pos, block_idx in enumerate(perm):
                for i in partition[block_idx]:
                    ranks[i] = pos
            found.add(tuple(ranks))
    return found


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def convex_equiv_oracle(base):
    """Filter all equivalence relations by the convexity triple."""
    out = []
    for partition in set_partitions(list(range(base.n))):
        cls = {}
        for block in partition:
            for i in block:
                cls[i] = tuple(sorted(block))
        ok = True
        for i in range(base.n):
            for j in range(base.n):
                for k in range(base.n):
                    if base.leq(i, j) and base.leq(j, k) and cls[i] == cls[k]:
                        if cls[j] != cls[i]:
                            ok = False
        if ok:
            out.append(frozenset(cls.values()))
    return out


def surjection_oracle(source, target):
    """Filter every map source -> target by surjectivity and monotonicity,
    in itertools.product order."""
    out = []
    for mapping in itertools.product(range(target.n), repeat=source.n):
        if set(mapping) != set(range(target.n)):
            continue
        if all(
            target.leq(mapping[i], mapping[j])
            for i in range(source.n)
            for j in range(source.n)
            if source.leq(i, j)
        ):
            out.append(mapping)
    return out


def amalgam_oracle(left, right):
    """Filter enumerate_linear_preorders(|I|+|J|) by direct predicates."""
    out = []
    for p in enumerate_linear_preorders(left.n + right.n):
        ok = True
        for base, off in ((left, 0), (right, left.n)):
            for i in range(base.n):
                for j in range(base.n):
                    if base.leq(i, j) and not p.leq(i + off, j + off):
                        ok = False
            hit = {p.ranks[i + off] for i in range(base.n)}
            if hit != set(range(p.num_classes)):
                ok = False
        if ok:
            out.append(p.ranks)
    return out


# ------------------------------------------------------------ preorders


def test_preorder_counts_small():
    assert len(enumerate_linear_preorders(1)) == 1
    # brute force over all 2x2 relation matrices: 0<1, 1<0, 0=1
    assert len(enumerate_linear_preorders(2)) == 3
    # ordered set partitions of a 3-set
    assert len(enumerate_linear_preorders(3)) == 13
    # ordered set partitions in general: the Fubini numbers, OEIS A000670
    for n, count in [(4, 75), (5, 541), (6, 4683), (7, 47293)]:
        assert len(enumerate_linear_preorders(n)) == count


def test_preorders_match_relation_matrix_oracle():
    for n in range(1, 5):
        ours = {p.ranks for p in enumerate_linear_preorders(n)}
        assert ours == relation_matrix_oracle(n)


def test_preorders_match_ordered_partition_oracle():
    for n in range(1, 7):
        items = enumerate_linear_preorders(n)
        ours = [p.ranks for p in items]
        assert len(ours) == len(set(ours)), "duplicates"
        assert ours == sorted(ours), "not sorted lexicographically"
        assert set(ours) == ordered_partition_oracle(n)
        for p in items:
            assert isinstance(p, LinOrder) == (len(set(p.ranks)) == n)


def test_preorders_all_validate():
    for p in enumerate_linear_preorders(4):
        LinPreorder(p.ranks)  # re-validation must not raise


def fubini(n):
    """Ordered set partitions of an n-set: choose the k labels of the
    lowest class, then order the rest."""
    return 1 if n == 0 else sum(math.comb(n, k) * fubini(n - k) for k in range(1, n + 1))


def test_enumerated_preorders_equal_their_validated_rebuilds():
    # the enumerator wraps its rank words unchecked; the validating
    # constructors are the oracle
    for n in range(1, 8):
        items = enumerate_linear_preorders(n)
        assert len(items) == fubini(n)
        for p in items:
            is_order = sorted(p.ranks) == list(range(n))
            assert type(p) is (LinOrder if is_order else LinPreorder)
            assert type(p)(p.ranks) == p


def test_preorder_ranks_are_the_enumerated_rank_vectors():
    for n in range(1, 8):
        words = preorder_ranks(n)
        items = enumerate_linear_preorders(n)
        assert words == [p.ranks for p in items]
        assert all(a < b for a, b in zip(words, words[1:])), "not strictly increasing"
        assert len(words) == fubini(n)
        assert all(type(word) is tuple for word in words)


def test_preorder_count_is_the_fubini_number():
    for n in range(1, 13):
        assert preorder_count(n) == fubini(n), n
    for n in range(1, 7):
        assert preorder_count(n) == len(preorder_ranks(n))


def test_words_grown_below_each_prefix_are_its_subtree():
    # growing the prefixes of the first k labels, then each prefix's own
    # subtree, gives every rank vector once, in order, whatever k is
    for n in range(1, 7):
        pieces = [lambda v: (v,)] * n
        for k in range(n + 1):
            prefixes, masks = grow_ranks([()], [0], pieces[:k], n - k)
            assert len(set(prefixes)) == len(prefixes)
            words = []
            for prefix, used in zip(prefixes, masks):
                grown, grown_masks = grow_ranks([prefix], [used], pieces[k:])
                assert grown_masks == [sum(1 << v for v in set(w)) for w in grown]
                words += grown
            assert words == preorder_ranks(n), (n, k)


def test_pieces_are_appended_per_label():
    # the piece of the first label may differ from the others', as the
    # report's first rank line has no comma
    pieces = [str] + ["+{}".format] * 2
    words, _ = grow_ranks([""], [0], pieces)
    assert words == ["+".join(map(str, w)) for w in preorder_ranks(3)]


def plant_gap(monkeypatch):
    """_next_ranks also lets the last label take the rank one above the
    top, which leaves the top rank of its prefix unused."""
    next_ranks = orders._next_ranks

    def planted(used, left):
        ranks, masks = next_ranks(used, left)
        if left == 0:
            top = used.bit_length()
            ranks, masks = ranks + [top + 1], masks + [used | 1 << (top + 1)]
        return ranks, masks

    monkeypatch.setattr(orders, "_next_ranks", planted)


def test_a_rank_step_that_leaves_a_gap_is_caught(monkeypatch):
    plant_gap(monkeypatch)
    with pytest.raises(ValueError, match=r"ranks \(1,\) are no initial segment"):
        preorder_ranks(1)
    with pytest.raises(ValueError, match=r"ranks \(0, 0, 2\) are no initial segment"):
        preorder_ranks(3)
    for n in (1, 3):
        with pytest.raises(ValueError, match="bitmask 0b[01]+ are no initial segment"):
            preorder_count(n)


def test_zero_rejected():
    with pytest.raises(ValueError):
        preorder_ranks(0)
    with pytest.raises(ValueError):
        preorder_count(0)
    with pytest.raises(ValueError):
        enumerate_linear_preorders(0)
    with pytest.raises(ValueError):
        LinPreorder([])


def test_rank_image_must_be_initial_segment():
    with pytest.raises(ValueError):
        LinPreorder([0, 2])


@pytest.mark.parametrize(
    "ranks, bad",
    [([0.9, 1.2], "0.9"), (["1", "0"], "'1'"), ([0, 1.0], "1.0"), ([0, 1.5], "1.5"),
     ([True, False], "True"), ([0, False], "False")],
)
def test_non_integer_ranks_rejected(ranks, bad):
    # int() would truncate 0.9 and 1.2 to the linear order [0, 1] and parse
    # "1", and operator.index reads True as 1; a generator is read once, so
    # it names the same entry as the list
    message = re.escape(f"ranks must be integers, got {bad}")
    for build in (LinPreorder, LinOrder):
        for given in (ranks, (r for r in ranks)):
            with pytest.raises(ValueError, match=message):
                build(given)
    with pytest.raises(ValueError, match=message):
        LinPreorder.from_json({"n": 2, "rank": ranks})


def test_non_integer_mapping_rejected():
    two, one = LinOrder.standard(2), LinOrder.standard(1)
    for bad in (0.0, False):
        message = re.escape(f"mapping entries must be integers, got {bad}")
        for mapping in ([0, bad], (v for v in [0, bad])):
            with pytest.raises(ValueError, match=message):
                OrderMorphism(two, one, mapping)


def test_ranks_and_mapping_from_a_generator_equal_the_list():
    assert LinPreorder(r for r in [0, 0, 1]) == LinPreorder([0, 0, 1])
    assert LinOrder(r for r in [1, 0]) == LinOrder([1, 0])
    two, one = LinOrder.standard(2), LinOrder.standard(1)
    assert OrderMorphism(two, one, (v for v in [0, 0])) == OrderMorphism(two, one, [0, 0])


def test_json_roundtrip():
    for p in enumerate_linear_preorders(3):
        again = LinPreorder.from_json(p.to_json())
        assert again == p
        assert isinstance(again, LinOrder) == p.is_linear_order


# ------------------------------------------------------------- quotient


def test_quotient_indiscrete_pair():
    q, proj = quotient(LinPreorder([0, 0]))
    assert q.n == 1
    assert proj.mapping == (0, 0)


def test_quotient_of_linear_order_is_identity():
    base = LinOrder([2, 0, 1])
    q, proj = quotient(base)
    assert q.n == 3
    assert proj.mapping == base.ranks


def test_quotient_three_elements():
    q, proj = quotient(LinPreorder([0, 0, 1]))
    assert q.n == 2
    assert proj.fiber(0) == (0, 1)
    assert proj.fiber(1) == (2,)


# ------------------------------------------------------------ morphisms


def test_morphism_validation():
    two = LinOrder.standard(2)
    three = LinOrder.standard(3)
    with pytest.raises(ValueError):
        OrderMorphism(three, two, [1, 0, 1])  # not nondecreasing
    with pytest.raises(ValueError):
        OrderMorphism(three, two, [0, 0, 0])  # misses a class


def test_surjections_counts():
    three = LinOrder.standard(3)
    two = LinOrder.standard(2)
    assert len(enumerate_surjections(three, three)) == 1  # identity only
    assert len(enumerate_surjections(three, two)) == 2
    assert enumerate_surjections(two, three) == []


@pytest.mark.parametrize(
    "source, target",
    [
        (LinOrder.standard(n), LinOrder.standard(m))
        for n in range(1, 7)
        for m in range(1, 7)
    ]
    + [(LinOrder([2, 0, 1, 3]), LinOrder([1, 0]))],
)
def test_surjections_match_product_oracle(source, target):
    maps = enumerate_surjections(source, target)
    assert [f.mapping for f in maps] == surjection_oracle(source, target)
    assert all(f.source == source and f.target == target for f in maps)
    # they are wrapped unchecked; the validating constructor is the oracle
    assert all(OrderMorphism(source, target, f.mapping) == f for f in maps)
    if source.n >= target.n:
        assert len(maps) == math.comb(source.n - 1, target.n - 1)


def test_composition_is_associative_with_identities():
    sizes = [LinOrder.standard(n) for n in (1, 2, 3)]
    all_maps = [
        f
        for a in sizes
        for b in sizes
        for f in enumerate_surjections(a, b)
    ]
    for f in all_maps:
        assert f.then(OrderMorphism.identity(f.target)) == f
        assert OrderMorphism.identity(f.source).then(f) == f
    for f in all_maps:
        for g in all_maps:
            if g.source != f.target:
                continue
            fg = f.then(g)
            assert isinstance(fg, OrderMorphism)
            for h in all_maps:
                if h.source != g.target:
                    continue
                assert fg.then(h) == f.then(g.then(h))


def test_composing_mismatched_morphisms_names_both_orders():
    two, three = LinOrder.standard(2), LinOrder.standard(3)
    message = "morphisms not composable: LinOrder([0, 1]) != LinOrder([0, 1, 2])"
    with pytest.raises(ValueError, match=re.escape(message)):
        OrderMorphism.identity(two).then(OrderMorphism.identity(three))


# --------------------------------------------------------------- convex


def test_convex_counts():
    assert len(enumerate_convex_equivalences(LinOrder.standard(1))) == 1
    assert len(enumerate_convex_equivalences(LinOrder.standard(3))) == 4
    for n in range(1, 7):
        base = LinOrder.standard(n)
        rels = enumerate_convex_equivalences(base)
        assert len(rels) == 2 ** (n - 1)
        oracle = {
            frozenset(tuple(sorted(c)) for c in r.classes) for r in rels
        }
        assert oracle == {
            frozenset(tuple(b) for b in blocks)
            for blocks in convex_equiv_oracle(base)
        }


def test_refinement_generated_by_covers():
    # the oracle behind checking constructible sheaves on covers only
    for n in range(1, 7):
        rels = enumerate_convex_equivalences(LinOrder.standard(n))
        above = {}
        for b in sorted(rels, key=lambda r: len(r.classes)):
            covers = b.covers()
            assert set(covers) == {
                c
                for c in rels
                if b.refines(c) and len(c.classes) == len(b.classes) - 1
            }
            above[b] = {b}.union(*(above[c] for c in covers))
        for b in rels:
            assert above[b] == {c for c in rels if b.refines(c)}


def test_convexity_rejected():
    base = LinOrder.standard(3)
    with pytest.raises(ValueError):
        ConvexEquiv(base, [(0, 2), (1,)])


@pytest.mark.parametrize(
    "classes, message",
    [
        ([(0, 1), ()], "classes must partition the labels"),
        ([(0,), (0, 1)], "classes must partition the labels"),
        ([(0, 1.0)], "labels must be integers, got 1.0"),
        ([(0,), (True,)], "labels must be integers, got True"),
    ],
    ids=["empty-class", "repeated-label", "float-label", "bool-label"],
)
def test_malformed_class_lists_are_rejected_by_name(classes, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        ConvexEquiv(LinOrder.standard(2), classes)


def test_conv_is_a_lattice_of_interval_partitions():
    base = LinOrder.standard(4)
    rels = enumerate_convex_equivalences(base)
    bottom = ConvexEquiv.discrete(base)
    top = ConvexEquiv.indiscrete(base)
    assert all(bottom.refines(r) and r.refines(top) for r in rels)
    # meets and joins exist: cut-sets form a boolean lattice
    def cuts(rel):
        return frozenset(
            k for k in range(1, base.n) if not rel.relates(k - 1, k)
        )

    by_cuts = {cuts(r): r for r in rels}
    for a in rels:
        for b in rels:
            assert by_cuts[cuts(a) | cuts(b)].refines(a)
            assert a.refines(by_cuts[cuts(a) & cuts(b)])


def test_preimage_and_quotient_maps():
    src = LinOrder.standard(4)
    tgt = LinOrder.standard(2)
    f = OrderMorphism(src, tgt, [0, 0, 1, 1])
    e = ConvexEquiv.indiscrete(tgt)
    eb = preimage_equiv(f, e)
    assert eb.classes == ((0, 1, 2, 3),)
    fine = ConvexEquiv.discrete(src)
    q = induced_quotient_map(fine, eb)
    assert q.mapping == (0, 0, 0, 0)


# -------------------------------------------------------------- amalgams


def test_amalgam_singletons():
    one = LinOrder.standard(1)
    amalgams = enumerate_amalgams(one, one)
    assert len(amalgams) == 1
    assert amalgams[0].preorder.ranks == (0, 0)  # the indiscrete preorder


def test_amalgams_match_oracle():
    pairs = [
        (LinOrder.standard(nl), LinOrder.standard(nr))
        for nl, nr in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]
    ]
    pairs.append((LinOrder([1, 0, 2]), LinOrder([1, 0])))
    for left, right in pairs:
        ours = [a.preorder.ranks for a in enumerate_amalgams(left, right)]
        assert ours == amalgam_oracle(left, right)  # same order too


def test_amalgam_counts_are_binomial():
    for p in range(1, 8):
        for q in range(1, 9 - p):
            amalgams = enumerate_amalgams(LinOrder.standard(p), LinOrder.standard(q))
            assert len(amalgams) == math.comb(p + q - 2, p - 1)
            ranks = [a.preorder.ranks for a in amalgams]
            assert ranks == sorted(set(ranks))


def test_join_idempotent_and_least_upper_bound():
    left = right = LinOrder.standard(3)
    amalgams = enumerate_amalgams(left, right)
    for a in amalgams:
        assert a.join(a) == a
    for a in amalgams:
        for b in amalgams:
            j = a.join(b)
            assert j in amalgams
            assert a.leq_amalgam(j) and b.leq_amalgam(j)
            for c in amalgams:
                if a.leq_amalgam(c) and b.leq_amalgam(c):
                    assert j.leq_amalgam(c)


def test_join_matches_closure_oracle():
    sides = [LinOrder.standard(n) for n in range(1, 5)]
    pairs = [(left, right) for left in sides for right in sides]
    pairs.append((LinOrder([2, 0, 3, 1]), LinOrder.standard(3)))
    for left, right in pairs:
        amalgams = enumerate_amalgams(left, right)
        for a in amalgams:
            for b in amalgams:
                assert a.join(b) == join_closure_oracle(a, b), (a, b)


def test_amalgam_inclusions_nondecreasing():
    left = LinOrder.standard(2)
    right = LinOrder.standard(3)
    for a in enumerate_amalgams(left, right):
        for i in range(left.n):
            for j in range(left.n):
                if left.leq(i, j):
                    assert a.preorder.leq(i, j)
        for i in range(right.n):
            for j in range(right.n):
                if right.leq(i, j):
                    assert a.preorder.leq(i + left.n, j + left.n)


def test_amalgam_rejects_bad_preorder():
    one = LinOrder.standard(1)
    with pytest.raises(ValueError):
        Amalgam(one, one, LinPreorder([0, 1]))  # not essentially surjective


@pytest.mark.parametrize(
    "left, right, ranks",
    [
        (LinOrder.standard(2), LinOrder.standard(3), [0, 0, 0, 0, 0]),
        (LinOrder.standard(3), LinOrder.standard(1), [0, 0, 0, 0]),
        # same sizes, other left order
        (LinOrder([1, 0]), LinOrder.standard(2), [1, 0, 0, 1]),
    ],
)
def test_amalgams_of_other_orders_are_rejected(left, right, ranks):
    two = LinOrder.standard(2)
    a = Amalgam(two, two, LinPreorder([0, 1, 0, 1]))
    b = Amalgam(left, right, LinPreorder(ranks))
    for call in (a.leq_amalgam, a.join):
        with pytest.raises(ValueError, match="amalgams of different orders") as err:
            call(b)
        assert repr(a) in str(err.value) and repr(b) in str(err.value)
    for call in (b.leq_amalgam, b.join):
        with pytest.raises(ValueError, match="amalgams of different orders"):
            call(a)


def test_amalgams_of_equal_orders_need_not_share_them():
    a = Amalgam(LinOrder.standard(2), LinOrder.standard(2), LinPreorder([0, 1, 0, 1]))
    b = Amalgam(LinOrder.standard(2), LinOrder.standard(2), LinPreorder([0, 0, 0, 0]))
    assert a.left is not b.left and a.right is not b.right
    assert a.leq_amalgam(b) and not b.leq_amalgam(a)
    assert a.join(b) == b


# ---------------------------------------------------------- concatenation


def test_concatenate_singletons():
    one = LinOrder.standard(1)
    assert concatenate_orders(one, one).ranks == (0, 1)


def test_concatenate_initial_segment():
    two = LinOrder.standard(2)
    three = LinOrder.standard(3)
    glued = concatenate_orders(two, three)
    assert glued.n == 5
    assert glued.ranks == (0, 1, 2, 3, 4)


def test_concatenate_associative():
    a = LinOrder.standard(2)
    b = LinOrder.standard(1)
    c = LinOrder.standard(3)
    assert (
        concatenate_orders(concatenate_orders(a, b), c).ranks
        == concatenate_orders(a, concatenate_orders(b, c)).ranks
    )


# ------------------------------------ linear-time checks, pairwise oracles
#
# The constructors check monotonicity, convexity, refinement and class
# membership in linear time.  These tests hold them to the definitions,
# written pairwise (or triple-wise) here.


def preorders_up_to(n):
    return [p for m in range(1, n + 1) for p in enumerate_linear_preorders(m)]


def monotone_violations(src, img):
    """Every (i, j) with src[i] <= src[j] but img[i] > img[j]."""
    labels = range(len(src))
    return {
        (i, j) for i in labels for j in labels if src[i] <= src[j] and img[i] > img[j]
    }


def convex_violations(base, classes):
    """Every (i, j, k) with i <= j <= k and i ~ k but not i ~ j."""
    cls = {i: c for c in map(tuple, classes) for i in c}
    labels = range(base.n)
    return {
        (i, j, k)
        for i in labels
        for j in labels
        for k in labels
        if base.leq(i, j) and base.leq(j, k) and cls[i] == cls[k] != cls[j]
    }


def pairs_related(rel):
    return {(i, j) for c in rel.classes for i in c for j in c}


def test_monotone_matches_pairwise_oracle():
    for p in preorders_up_to(4):
        for img in itertools.product(range(p.n), repeat=p.n):
            bad = _monotone(p.ranks, img)
            violations = monotone_violations(p.ranks, img)
            assert (bad is None) == (not violations), (p, img)
            assert bad is None or bad in violations, (p, img, bad)


def test_order_morphism_check_matches_pairwise_oracle():
    for source in preorders_up_to(4):
        for target in preorders_up_to(3):
            classes = set(range(target.num_classes))
            for mapping in itertools.product(range(target.n), repeat=source.n):
                image = [target.ranks[v] for v in mapping]
                violations = monotone_violations(source.ranks, image)
                surjective = set(image) == classes
                try:
                    OrderMorphism(source, target, mapping)
                except ValueError as exc:
                    found = re.fullmatch(
                        r"not nondecreasing: (\d+) <= (\d+) but (\d+) !<= (\d+)",
                        str(exc),
                    )
                    if found is None:
                        assert str(exc) == "not essentially surjective"
                        assert not violations and not surjective
                        continue
                    i, j, vi, vj = map(int, found.groups())
                    assert (i, j) in violations and (vi, vj) == (mapping[i], mapping[j])
                else:
                    assert not violations and surjective, (source, target, mapping)


def test_amalgam_check_matches_pairwise_oracle():
    for p in range(1, 5):
        for q in range(1, 6 - p):
            rights = [LinOrder(r) for r in itertools.permutations(range(q))]
            for left in map(LinOrder, itertools.permutations(range(p))):
                for right in rights:
                    for pre in enumerate_linear_preorders(p + q):
                        ok = all(
                            not monotone_violations(base.ranks, image)
                            and set(image) == set(range(pre.num_classes))
                            for base, image in (
                                (left, pre.ranks[:p]),
                                (right, pre.ranks[p:]),
                            )
                        )
                        try:
                            Amalgam(left, right, pre)
                        except ValueError:
                            assert not ok, (left, right, pre)
                        else:
                            assert ok, (left, right, pre)


def test_leq_amalgam_matches_pairwise_oracle():
    for left, right in [
        (LinOrder.standard(4), LinOrder.standard(4)),
        (LinOrder([2, 0, 1]), LinOrder([3, 1, 4, 0, 2])),
    ]:
        amalgams = enumerate_amalgams(left, right)
        for a in amalgams:
            for b in amalgams:
                expect = not monotone_violations(a.preorder.ranks, b.preorder.ranks)
                assert a.leq_amalgam(b) == expect, (a, b)


def test_convexity_check_matches_triple_oracle():
    for base in preorders_up_to(5):
        for partition in set_partitions(list(range(base.n))):
            violations = convex_violations(base, partition)
            try:
                ConvexEquiv(base, partition)
            except ValueError as exc:
                found = re.fullmatch(r"not convex at (\d+) <= (\d+) <= (\d+)", str(exc))
                assert tuple(map(int, found.groups())) in violations
            else:
                assert not violations, (base, partition)


def test_refinement_and_class_index_match_pairwise_oracle():
    bases = [LinOrder.standard(n) for n in range(1, 7)]
    bases += [LinOrder([3, 5, 0, 2, 4, 1]), LinPreorder([2, 0, 1, 0, 2, 1])]
    bases += preorders_up_to(3)
    for base in bases:
        rels = enumerate_convex_equivalences(base)
        for a in rels:
            for pos, c in enumerate(a.classes):
                assert all(a.class_index(i) == pos for i in c)
            for i in (-1, base.n, base.n + 1):
                with pytest.raises(KeyError):
                    a.class_index(i)
            related = pairs_related(a)
            for i in range(base.n):
                for j in range(base.n):
                    assert a.relates(i, j) == ((i, j) in related)
            for b in rels:
                assert a.refines(b) == (related <= pairs_related(b)), (a, b)


# ------------------------------------------- relations stored as their cuts
#
# A ConvexEquiv is its cut mask; the enumerator, `from_cuts` and every
# operation build it from its cuts.  The class-list code below is how they
# built it before, kept as the oracle.


def cut_bases():
    return (
        preorders_up_to(4)
        + [LinOrder.standard(n) for n in range(1, 8)]
        + [LinPreorder([2, 0, 1, 0, 2, 1])]
    )


def rel_slots(rel):
    return rel.base, rel.cuts, rel.classes, rel.index


def normal_form_oracle(base, classes):
    """The classes sorted by their first position in base.enumeration(),
    each class by position: the normal form of the class-list constructor."""
    pos = {label: p for p, label in enumerate(base.enumeration())}
    return tuple(
        tuple(sorted(c, key=pos.__getitem__))
        for c in sorted(map(tuple, classes), key=lambda c: min(map(pos.__getitem__, c)))
    )


def test_from_cuts_equals_the_validated_relation_on_its_classes():
    for base in cut_bases():
        rels = enumerate_convex_equivalences(base)
        assert len(rels) == 2 ** (base.num_classes - 1)
        for cuts, rel in enumerate(rels):
            built = ConvexEquiv.from_cuts(base, cuts)
            assert rel_slots(built) == rel_slots(rel) and rel.cuts == cuts
            assert rel.classes == normal_form_oracle(base, rel.classes)
            assert rel.index == tuple(
                next(a for a, c in enumerate(rel.classes) if i in c) for i in range(base.n)
            )
            # bit r-1 is set exactly when a class starts at rank r
            assert cuts == sum(1 << base.ranks[c[0]] - 1 for c in rel.classes[1:])
            shuffled = [c[::-1] for c in reversed(rel.classes)]
            for classes in (rel.classes, shuffled):
                assert rel_slots(ConvexEquiv(base, classes)) == rel_slots(rel)
        assert rel_slots(ConvexEquiv.indiscrete(base)) == rel_slots(rels[0])
        assert rel_slots(ConvexEquiv.discrete(base)) == rel_slots(rels[-1])


def covers_oracle(rel):
    """Two adjacent classes merged, for each pair in turn."""
    c = rel.classes
    merged = (c[:a] + (c[a] + c[a + 1],) + c[a + 2 :] for a in range(len(c) - 1))
    return [ConvexEquiv(rel.base, m) for m in merged]


def test_covers_match_the_class_list_oracle():
    for base in cut_bases():
        for rel in enumerate_convex_equivalences(base):
            assert list(map(rel_slots, rel.covers())) == list(map(rel_slots, covers_oracle(rel)))


def preimage_oracle(f, rel):
    """The labels of the source grouped by the class of their image."""
    groups = {}
    for i in range(f.source.n):
        groups.setdefault(rel.class_index(f.mapping[i]), []).append(i)
    return ConvexEquiv(f.source, list(groups.values()))


def test_preimage_matches_the_class_list_oracle():
    for source in preorders_up_to(4):
        for target in preorders_up_to(3):
            for mapping in itertools.product(range(target.n), repeat=source.n):
                try:
                    f = OrderMorphism(source, target, mapping)
                except ValueError:
                    continue
                for rel in enumerate_convex_equivalences(target):
                    assert rel_slots(preimage_equiv(f, rel)) == rel_slots(
                        preimage_oracle(f, rel)
                    ), (f, rel)
