import pytest

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
