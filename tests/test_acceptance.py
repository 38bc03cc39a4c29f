"""The acceptance suite: one test per criterion, each printing its
pass/fail line (run pytest with -s to see them inline)."""

from brokenlines import acceptance


def _check(result, budget=None):
    """Assert the criterion passed and, when it carries a time budget
    from the spec, that it ran within it."""
    mark = "PASS" if result["ok"] else "FAIL"
    print(f"[{mark}] {result['name']} ({result['seconds']}s): {result['detail']}")
    assert result["ok"], result["detail"]
    if budget is not None:
        assert result["seconds"] < budget, f"{result['name']} over {budget}s"


def test_criterion_1_mainc_roundtrip():
    _check(acceptance.criterion_mainc_roundtrip(), budget=10.0)


def test_criterion_2_pullback_squares():
    _check(acceptance.criterion_pullback_squares(), budget=10.0)


def test_criterion_3_fiber_product_covering():
    _check(acceptance.criterion_fiber_product_covering(), budget=30.0)


def test_criterion_4_classification():
    _check(acceptance.criterion_classification(), budget=5.0)


def test_criterion_5_stratification():
    _check(acceptance.criterion_stratification(), budget=5.0)


def test_criterion_6_day_convolution():
    _check(acceptance.criterion_day_convolution(), budget=30.0)


def test_criterion_7_representability_roundtrip():
    _check(acceptance.criterion_representability_roundtrip(), budget=5.0)


def test_criterion_8_cospecialization_demo():
    _check(acceptance.criterion_cospecialization_demo())


def test_criterion_9_morse_demo():
    _check(acceptance.criterion_morse_demo())
