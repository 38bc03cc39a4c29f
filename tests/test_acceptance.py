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


def test_criterion_10_truncation_five(monkeypatch):
    truncations = []
    day_assoc_check = acceptance.day_assoc_check

    def spy(f1, f2, f3, N):
        truncations.append(N)
        return day_assoc_check(f1, f2, f3, N)

    monkeypatch.setattr(acceptance, "day_assoc_check", spy)
    # about 1.2 s on a 2-core host that drifts up to 1.8x: 10 s is over 4x
    _check(acceptance.criterion_truncation_five(), budget=10.0)
    assert truncations == [5] * 4  # one check per builtin algebra


def test_roundtrip_criteria_name_the_algebra_that_fails(monkeypatch):
    monkeypatch.setattr(
        acceptance, "day_assoc_check", lambda *args: {"mismatches": [("shape", "x")]}
    )
    assert acceptance._roundtrips(["zero1", "mat2"], 3, assoc=True)() == (
        False, "zero1: associativity reindexing: [('shape', 'x')]"
    )
    assert acceptance._roundtrips(["zero1", "mat2"], 3)() == (
        True, "exact roundtrips for zero1, mat2"
    )
