"""Dyadic arithmetic: normalization, exactness against Fraction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closegraph.dyadic import Dyadic


def test_make_normalizes():
    assert Dyadic(4, 2) == Dyadic(1, 0)
    assert Dyadic(4, 2).numerator == 1
    assert Dyadic(4, 2).exponent == 0
    assert Dyadic(0, 7) == Dyadic(0, 0)
    assert Dyadic(0, 7).exponent == 0
    d = Dyadic(88, 4)
    assert (d.numerator, d.exponent) == (11, 1)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Dyadic(1, -1)


def test_arith_examples():
    assert Dyadic(1, 1) + Dyadic(1, 2) == Dyadic(3, 2)
    assert Dyadic(3, 1) * Dyadic(0) == Dyadic(0)
    half = Dyadic(1) - Dyadic(1, 1)
    assert half + half == Dyadic(1)
    assert Dyadic(5, 2) - Dyadic(1, 2) == Dyadic(1)
    assert 2 * Dyadic(3, 2) == Dyadic(3, 1)
    assert 1 + Dyadic(1, 1) == Dyadic(3, 1)
    assert 1 - Dyadic(1, 1) == Dyadic(1, 1)


def test_pow2():
    assert Dyadic.pow2(0) == Dyadic(1)
    assert Dyadic.pow2(10) == Dyadic(1024)
    assert Dyadic.pow2(-3) == Dyadic(1, 3)


def test_comparisons():
    assert Dyadic(1, 1) < Dyadic(3, 2)
    assert Dyadic(3, 2) <= Dyadic(3, 2)
    assert Dyadic(-1, 1) < Dyadic(0)
    assert Dyadic(11, 1) > 5
    assert Dyadic(11, 1) < 6


def test_canonical_and_parse():
    assert Dyadic(11, 1).canonical() == "11/2^1"
    assert Dyadic(7).canonical() == "7/2^0"
    assert Dyadic.parse("11/2^1") == Dyadic(88, 4)
    assert Dyadic.parse("-3/2^2") == Dyadic(-3, 2)
    with pytest.raises(ValueError):
        Dyadic.parse("3/4")


@pytest.mark.parametrize(
    "text",
    ["\u0661/2^\u0663", "1/2^\u0663", "\u0661/2^3", "\uff11\uff11/2^1", "-\u09e7/2^0",
     "11/2^1x", "x11/2^1", "11/2^1\n3"],
    ids=["arabic-indic", "exponent", "numerator", "fullwidth", "bengali", "suffix",
         "prefix", "second-line"],
)
def test_parse_rejects_non_ascii_digits_and_extra_text(text):
    with pytest.raises(ValueError, match="not a canonical dyadic string"):
        Dyadic.parse(text)


def test_float_is_approximate_rendering():
    assert float(Dyadic(11, 1)) == 5.5
    assert float(Dyadic(49, 3)) == 6.125
    # huge numerators must not overflow the conversion
    big = Dyadic(3 ** 200, 300)
    assert float(big) > 0


def test_long_runs_of_trailing_zeros_normalize_exactly():
    # stripped in one shift, not one bit at a time
    d = Dyadic(3 << 200_000, 200_005)
    assert (d.numerator, d.exponent) == (3, 5)
    # the strip stops at the exponent; the rest stays in the numerator
    d = Dyadic(-5 << 200_000, 100_000)
    assert (d.numerator, d.exponent) == (-5 << 100_000, 0)
    assert Dyadic(1 << 200_000, 200_000) == Dyadic(1)


def test_hash_agrees_with_equal_ints_and_fractions():
    assert hash(Dyadic(2)) == hash(2)
    assert hash(Dyadic(-7)) == hash(-7)
    assert hash(Dyadic(11, 1)) == hash(Fraction(11, 2))
    assert {2, Dyadic(2), Dyadic(4, 1)} == {2}
    assert len({Dyadic(3, 2), Dyadic(12, 4)}) == 1


def test_truth_str_and_repr():
    assert not Dyadic(0, 5)
    assert Dyadic(-1, 3)
    assert str(Dyadic(88, 4)) == "11/2^1"
    assert repr(Dyadic(88, 4)) == "Dyadic(11, 1)"


@pytest.mark.parametrize(
    "op",
    [lambda d: d + "x", lambda d: "x" + d, lambda d: d - "x", lambda d: "x" - d,
     lambda d: d * 1.5, lambda d: d < "x"],
    ids=["add", "radd", "sub", "rsub", "mul", "lt"],
)
def test_other_types_are_not_implemented(op):
    with pytest.raises(TypeError):
        op(Dyadic(1))


def test_equality_with_other_types_is_false():
    assert Dyadic(1) != "x"
    assert not Dyadic(1) == "x"
    # floats are not coerced: a Dyadic leaves the comparison to them
    assert Dyadic(1).__eq__(1.0) is NotImplemented


def test_slots_leave_no_instance_dict():
    assert not hasattr(Dyadic(3, 1), "__dict__")


nums = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
exps = st.integers(min_value=0, max_value=30)


@settings(max_examples=300, deadline=None)
@given(nums, exps)
def test_normalization_idempotent_and_exact(n, e):
    d = Dyadic(n, e)
    again = Dyadic(d.numerator, d.exponent)
    assert (again.numerator, again.exponent) == (d.numerator, d.exponent)
    assert d.as_fraction() == Fraction(n, 2 ** e)
    assert d.numerator == 0 or d.exponent == 0 or d.numerator % 2 == 1


@settings(max_examples=300, deadline=None)
@given(nums, exps, nums, exps)
def test_arithmetic_matches_big_rationals(p, e1, q, e2):
    a, b = Dyadic(p, e1), Dyadic(q, e2)
    fa, fb = Fraction(p, 2 ** e1), Fraction(q, 2 ** e2)
    assert (a + b).as_fraction() == fa + fb
    assert (a - b).as_fraction() == fa - fb
    assert (a * b).as_fraction() == fa * fb
    assert (a == b) == (fa == fb)
    assert (a < b) == (fa < fb)
    assert (a <= b) == (fa <= fb)
    assert (a > b) == (fa > fb)
    assert (a >= b) == (fa >= fb)
    assert (a < q) == (fa < q) and (a >= q) == (fa >= q)


@settings(max_examples=200, deadline=None)
@given(nums, exps, st.integers(min_value=0, max_value=20))
def test_round_trip_expansion(n, e, extra):
    # n/2^e written with a larger exponent compares equal
    assert Dyadic(n << extra, e + extra) == Dyadic(n, e)


@settings(max_examples=200, deadline=None)
@given(nums, exps)
def test_canonical_round_trips_through_parse(n, e):
    d = Dyadic(n, e)
    back = Dyadic.parse(d.canonical())
    assert (back.numerator, back.exponent) == (d.numerator, d.exponent)
