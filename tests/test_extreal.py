import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brokenlines.extreal import INF, NEG_INF, ExtReal, UndefinedSum, as_ext

rationals = st.fractions(max_denominator=50)


def test_basic_arithmetic():
    assert ExtReal(1) + ExtReal(2) == ExtReal(3)
    assert ExtReal(Fraction(1, 2)) + ExtReal(Fraction(1, 3)) == ExtReal(Fraction(5, 6))
    assert -ExtReal(Fraction(2, 7)) == ExtReal(Fraction(-2, 7))


def test_infinity_absorbs():
    assert INF + ExtReal(5) == INF
    assert ExtReal(5) + INF == INF
    assert NEG_INF + ExtReal(-3) == NEG_INF
    assert INF + INF == INF


def test_undefined_sum_rejected():
    with pytest.raises(UndefinedSum):
        INF + NEG_INF
    with pytest.raises(UndefinedSum):
        NEG_INF + INF


def test_total_order():
    assert NEG_INF < ExtReal(-(10**9)) < ExtReal(0) < ExtReal(10**9) < INF
    assert not INF < INF
    assert INF <= INF


@given(rationals, rationals)
def test_addition_matches_fractions(a, b):
    assert (ExtReal(a) + ExtReal(b)).finite == a + b


@given(rationals)
def test_json_roundtrip(a):
    for value in (ExtReal(a), INF, NEG_INF):
        assert ExtReal.from_json(value.to_json()) == value


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False], ids=repr)
def test_json_rejects_a_float_or_bool_value(bad):
    message = f"fin must be an int, a Fraction or a 'p/q' string, got {bad!r}"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        ExtReal.from_json({"fin": bad})


def test_json_names_a_zero_denominator():
    with pytest.raises(ValueError, match="^" + re.escape("fin has a zero denominator, got '1/0'")):
        ExtReal.from_json({"fin": "1/0"})


def test_json_takes_ints_fractions_and_strings():
    for value, want in ((3, 3), ("1/2", Fraction(1, 2)), (Fraction(2, 4), Fraction(1, 2))):
        assert ExtReal.from_json({"fin": value}) == ExtReal(want)


def test_coercion():
    assert as_ext(3) == ExtReal(3)
    assert as_ext("5/2") == ExtReal(Fraction(5, 2))
    assert as_ext(INF) is INF


extended = st.one_of(
    rationals.map(ExtReal), st.sampled_from([INF, NEG_INF]), rationals, st.integers()
)


@given(extended, extended)
def test_equal_values_hash_alike(a, b):
    if a == b:
        assert hash(a) == hash(b)


def test_equality_with_other_types():
    assert len({ExtReal(1), 1, Fraction(1)}) == 1
    assert ExtReal(1) != "1"
    assert ExtReal(0) != float("inf")
    assert INF != float("inf")


def oracle_key(x):
    """(sign, value): -inf and +inf as signs -1 and 1 with value 0, a
    rational as sign 0 and its Fraction value."""
    if isinstance(x, ExtReal):
        return (x.sign, 0) if x.sign else (0, x.finite)
    return (0, Fraction(x))


@given(extended, extended)
def test_comparisons_and_hash_match_key_oracle(a, b):
    ka, kb = oracle_key(a), oracle_key(b)
    x = as_ext(a)
    assert (x == b) == (ka == kb)
    assert (b == x) == (ka == kb)
    assert (x < b) == (ka < kb)
    assert (x <= b) == (ka <= kb)
    assert (x > b) == (ka > kb)
    assert (x >= b) == (ka >= kb)
    if ka == kb:
        assert hash(x) == hash(as_ext(b)) == hash(b)


@given(rationals)
def test_fraction_is_stored_as_given(a):
    assert ExtReal(a).finite is a
    assert type(ExtReal(1).finite) is Fraction
