import inspect
import math

import pytest

from brokenlines import configurations
from brokenlines.configurations import (
    Configuration,
    config_from_amalgam_point,
    k_of,
    sample_configurations,
    u_membership,
    verify_join_identity,
)
from brokenlines.extreal import NEG_INF
from brokenlines.lines import BrokenLine, translation_distance
from brokenlines.orders import (
    Amalgam,
    LinOrder,
    enumerate_amalgams,
    enumerate_convex_equivalences,
)
from brokenlines.rep import stratum_samples

from test_orders import preorder_from_relation


def k_of_distance_oracle(config):
    """K_s by its definition: a <= b iff the translation distance from
    a's mark to b's mark is not -inf."""
    n = config.left.n + config.right.n
    rel = [
        [
            translation_distance(config.line, config.mark(a), config.mark(b))
            != NEG_INF
            for b in range(n)
        ]
        for a in range(n)
    ]
    return Amalgam(config.left, config.right, preorder_from_relation(rel))


def verify_join_identity_oracle(left, right):
    """The covering facts by brute force: the leq matrix, each pair's join
    as its last common upper bound in the enumeration, the
    least-upper-bound condition over every triple (x, y, z) and the join
    identity over every pair, once per realized K_s."""
    amalgams = enumerate_amalgams(left, right)
    index = {a: k for k, a in enumerate(amalgams)}
    n = len(amalgams)
    leq = [[a.leq_amalgam(b) for b in amalgams] for a in amalgams]

    joins = [[None] * n for _ in range(n)]
    violations = []
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if leq[x][z] and leq[y][z]:
                    joins[x][y] = z
            j = joins[x][y]
            if j is None:
                violations.append(("join-not-upper-bound", x, y))
                continue
            for z in range(n):
                if leq[x][z] and leq[y][z] and not leq[j][z]:
                    violations.append(("join-not-least", x, y, z))

    configs_checked = 0
    strata_hit = set()
    for config in sample_configurations(left, right):
        ks = k_of(config)
        if ks not in index:
            violations.append(("k-of-not-amalgam", repr(ks)))
            continue
        s = index[ks]
        if not leq[s][s]:
            violations.append(("covering", s))
        strata_hit.add(s)
        configs_checked += 1
    for s in sorted(strata_hit):
        for x in range(n):
            for y in range(n):
                j = joins[x][y]
                if j is not None and (leq[x][s] and leq[y][s]) != leq[j][s]:
                    violations.append(("join-identity", x, y, s))

    return {
        "amalgams": n,
        "pairs_checked": n**2,
        "configs_checked": configs_checked,
        "violations": violations,
    }


def singleton_config():
    one = LinOrder.standard(1)
    line = BrokenLine(1)
    return Configuration(
        line, one, one, {0: line.point(1, 0)}, {0: line.point(1, 2)}
    )


def test_k_of_both_marks_in_one_component():
    config = singleton_config()
    k = k_of(config)
    assert k.preorder.ranks == (0, 0)  # the indiscrete amalgam


def test_k_of_marks_in_distinct_components():
    one = LinOrder.standard(1)
    line = BrokenLine(2)
    # I's mark must hit every component, so a 1-element I cannot span a
    # 2-component line; use 2-element orders instead
    two = LinOrder.standard(2)
    config = Configuration(
        line,
        two,
        two,
        {0: line.point(1, 0), 1: line.point(2, 0)},
        {0: line.point(1, 5), 1: line.point(2, -3)},
    )
    k = k_of(config)
    # strict order between marks in different components
    assert not k.preorder.leq(1, 0)
    assert not k.preorder.leq(3, 2)
    assert k.preorder.eq(0, 2) and k.preorder.eq(1, 3)


def test_k_of_roundtrip_through_amalgam_points():
    for nl, nr in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]:
        left = LinOrder.standard(nl)
        right = LinOrder.standard(nr)
        for amalgam in enumerate_amalgams(left, right):
            # the stratum where exactly the amalgam's identifications hold:
            # quotient-gaps infinite, within-class gaps finite
            quotient_classes = amalgam.preorder.classes()
            from brokenlines.orders import ConvexEquiv

            rel = ConvexEquiv(amalgam.preorder, quotient_classes)
            for point in stratum_samples(amalgam.preorder, rel, 2):
                config = config_from_amalgam_point(amalgam, point)
                assert k_of(config) == amalgam


def test_k_of_matches_distance_oracle():
    for nl in range(1, 5):
        for nr in range(1, 5):
            configs = sample_configurations(LinOrder.standard(nl), LinOrder.standard(nr))
            for config in configs:
                assert k_of(config) == k_of_distance_oracle(config), config


def test_u_membership_cases():
    left = right = LinOrder.standard(2)
    amalgams = enumerate_amalgams(left, right)
    configs = sample_configurations(left, right)
    for config in configs:
        ks = k_of(config)
        assert u_membership(config, ks)
        for k in amalgams:
            if k.leq_amalgam(ks):
                assert u_membership(config, k)
            else:
                assert not u_membership(config, k)


def test_u_membership_wrong_orders_rejected():
    config = singleton_config()
    two = LinOrder.standard(2)
    bad = enumerate_amalgams(two, two)[0]
    with pytest.raises(ValueError):
        u_membership(config, bad)


def test_u_membership_monotone_decreasing():
    left = LinOrder.standard(2)
    right = LinOrder.standard(3)
    amalgams = enumerate_amalgams(left, right)
    configs = sample_configurations(left, right)
    for config in configs:
        for a in amalgams:
            for b in amalgams:
                if a.leq_amalgam(b) and u_membership(config, b):
                    assert u_membership(config, a)


def test_sample_configurations_streams():
    # verify amalgams reads the configurations once, one at a time
    configs = sample_configurations(LinOrder.standard(2), LinOrder.standard(2))
    assert inspect.isgenerator(configs)


def test_covering_property():
    # some U_K contains every configuration: K = K_s works
    left = right = LinOrder.standard(3)
    amalgams = enumerate_amalgams(left, right)
    for config in sample_configurations(left, right):
        ks = k_of(config)
        assert ks in amalgams
        assert u_membership(config, ks)


def test_join_identity_singletons():
    report = verify_join_identity(LinOrder.standard(1), LinOrder.standard(1))
    assert report["amalgams"] == 1
    assert report["violations"] == []


def test_join_identity_two_by_two():
    report = verify_join_identity(LinOrder.standard(2), LinOrder.standard(2))
    assert report["violations"] == []
    assert report["configs_checked"] > 0


def test_join_identity_full_sweep():
    for nl in (1, 2, 3):
        for nr in (1, 2, 3):
            report = verify_join_identity(
                LinOrder.standard(nl), LinOrder.standard(nr)
            )
            assert report["violations"] == [], (nl, nr)


def test_k_of_is_valid_amalgam_for_all_samples():
    left = LinOrder.standard(2)
    right = LinOrder.standard(2)
    for amalgam in enumerate_amalgams(left, right):
        for rel in enumerate_convex_equivalences(amalgam.preorder):
            for point in stratum_samples(amalgam.preorder, rel, 2):
                # Amalgam constructor re-validates both inclusions
                k_of(config_from_amalgam_point(amalgam, point))


def configs_closed_form(p, q):
    """Sampled configurations: one per amalgam with j + 1 classes and per
    cut pattern of its j inner gaps."""
    return sum(
        math.comb(p - 1, j) * math.comb(q - 1, j) * 2**j for j in range(min(p, q))
    )


def test_configs_closed_form_at_seven_by_seven():
    assert configs_closed_form(7, 7) == 8989


@pytest.mark.parametrize("p", range(1, 6))
def test_join_identity_counts_match_closed_forms(p):
    for q in range(1, 6):
        amalgams = math.comb(p + q - 2, p - 1)
        assert verify_join_identity(LinOrder.standard(p), LinOrder.standard(q)) == {
            "amalgams": amalgams,
            "pairs_checked": amalgams**2,
            "configs_checked": configs_closed_form(p, q),
            "violations": [],
        }, q


def test_join_identity_report_equals_the_cubic_oracle():
    for p in range(1, 5):
        for q in range(1, 5):
            left, right = LinOrder.standard(p), LinOrder.standard(q)
            assert verify_join_identity(left, right) == verify_join_identity_oracle(
                left, right
            ), (p, q)


def plant_join(monkeypatch, amalgams, x, y, z):
    """Amalgam.join answers amalgams[z] on the pair (x, y) only."""
    join = Amalgam.join

    def planted(self, other):
        if (self, other) == (amalgams[x], amalgams[y]):
            return amalgams[z]
        return join(self, other)

    monkeypatch.setattr(Amalgam, "join", planted)


def plant_leq_row(monkeypatch, amalgams, x, answer):
    """Amalgam.leq_amalgam, which the oracle reads, and the up-set rows of
    verify_join_identity both answer `answer` on the whole row of
    amalgams[x]."""
    leq = Amalgam.leq_amalgam
    up_sets = configurations._up_sets

    def planted(self, other):
        return answer if self == amalgams[x] else leq(self, other)

    def planted_up_sets(enumerated):
        up = up_sets(enumerated)
        up[x] = (1 << len(up)) - 1 if answer else 0
        return up

    monkeypatch.setattr(Amalgam, "leq_amalgam", planted)
    monkeypatch.setattr(configurations, "_up_sets", planted_up_sets)


def leq_bitmasks(amalgams):
    """up[x] with bit z set when amalgams[x].leq_amalgam(amalgams[z])."""
    return [
        sum(1 << z for z, b in enumerate(amalgams) if a.leq_amalgam(b))
        for a in amalgams
    ]


def test_up_sets_are_the_leq_amalgam_bitmasks():
    sides = [LinOrder.standard(n) for n in range(1, 6)]
    pairs = [(left, right) for left in sides for right in sides]
    pairs.append((LinOrder([2, 0, 3, 1]), LinOrder.standard(3)))
    pairs.append((LinOrder.standard(3), LinOrder([1, 2, 0])))
    for left, right in pairs:
        amalgams = enumerate_amalgams(left, right)
        assert configurations._up_sets(amalgams) == leq_bitmasks(amalgams), (
            left, right,
        )


def test_up_sets_skip_coarsenings_outside_the_list():
    amalgams = enumerate_amalgams(LinOrder.standard(3), LinOrder.standard(3))
    # amalgams[0], the indiscrete top, coarsens every amalgam; without it
    # each row loses that bit and nothing else
    rest = amalgams[1:]
    assert configurations._up_sets(rest) == [
        mask >> 1 for mask in leq_bitmasks(amalgams)[1:]
    ]


def join_mismatches(left, right):
    """The pairs (x, y) whose `Amalgam.join` is not their last common
    upper bound in the enumeration, read off `leq_amalgam` bitmasks: the
    join that `verify_join_identity` uses."""
    amalgams = enumerate_amalgams(left, right)
    up = leq_bitmasks(amalgams)
    return [
        (x, y)
        for x, a in enumerate(amalgams)
        for y, b in enumerate(amalgams)
        if a.join(b) != amalgams[(up[x] & up[y]).bit_length() - 1]
    ]


def test_join_is_the_last_common_upper_bound():
    sides = [LinOrder.standard(n) for n in range(1, 6)]
    pairs = [(left, right) for left in sides for right in sides]
    pairs.append((LinOrder([2, 0, 3, 1]), LinOrder.standard(3)))
    for left, right in pairs:
        assert join_mismatches(left, right) == [], (left, right)


def three_by_three():
    left = right = LinOrder.standard(3)
    amalgams = enumerate_amalgams(left, right)
    # amalgam 0 is the indiscrete top and amalgam 5 the linear order
    # 0 = 3 < 1 = 4 < 2 = 5 on ranks, with 5 < 1 < 0
    assert amalgams[0].preorder.ranks == (0, 0, 0, 0, 0, 0)
    assert amalgams[5].preorder.ranks == (0, 1, 2, 0, 1, 2)
    assert amalgams[5].leq_amalgam(amalgams[1]) and amalgams[1] != amalgams[0]
    return left, right, amalgams


# Amalgam.join answers amalgams[z] on the pair (x, y)
PLANTED_JOINS = {"join below both": (0, 0, 5), "join above the least": (1, 1, 0)}


@pytest.mark.parametrize("fault", sorted(PLANTED_JOINS))
def test_planted_join_faults_fire_on_the_cross_check(monkeypatch, fault):
    left, right, amalgams = three_by_three()
    x, y, z = PLANTED_JOINS[fault]
    plant_join(monkeypatch, amalgams, x, y, z)
    assert join_mismatches(left, right) == [(x, y)]


# Amalgam.leq_amalgam answers `answer` on the row of amalgams[x]; the
# kinds and the number of violations each fault fires
PLANTED_ROWS = {
    "leq row all false": (
        0, False, {"join-not-upper-bound", "join-not-least", "join-identity", "covering"}, 49
    ),
    "leq row all true": (1, True, {"join-not-least", "join-identity"}, 4),
    # its join-identity violations come out of the pass out of (s, x, y)
    # order, so the report's order is checked too
    "leq top row all true": (0, True, {"join-not-least", "join-identity"}, 84),
}


@pytest.mark.parametrize("fault", sorted(PLANTED_ROWS))
def test_planted_faults_fire_on_the_bitmasks_and_the_oracle(monkeypatch, fault):
    left, right, amalgams = three_by_three()
    x, answer, kinds, count = PLANTED_ROWS[fault]
    plant_leq_row(monkeypatch, amalgams, x, answer)
    report = verify_join_identity(left, right)
    assert report == verify_join_identity_oracle(left, right)
    assert {v[0] for v in report["violations"]} == kinds
    assert len(report["violations"]) == count


def test_verify_builds_no_amalgam_per_pair(monkeypatch):
    left = right = LinOrder.standard(3)
    want = verify_join_identity(left, right)
    built = []
    init = Amalgam.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    def refuse(self, other):
        raise AssertionError("verify_join_identity called Amalgam.join")

    monkeypatch.setattr(Amalgam, "__init__", counted)
    monkeypatch.setattr(Amalgam, "join", refuse)
    assert verify_join_identity(left, right) == want
    # the two enumerations and one K_s per configuration, none per pair
    assert len(built) == 2 * want["amalgams"] + want["configs_checked"]
