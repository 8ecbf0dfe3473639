from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrquot.exactnum import TruncSeries, as_fraction


FRACTIONS = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50))


def test_rat_parsing():
    assert as_fraction("3/6") == Fraction(1, 2)
    assert as_fraction(" -7/2 ") == Fraction(-7, 2)
    assert as_fraction(5) == Fraction(5)
    assert as_fraction("0") == 0
    half = Fraction(1, 2)
    assert as_fraction(half) is half


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.5)
    with pytest.raises(TypeError):
        as_fraction(1.5)
    with pytest.raises(TypeError):
        as_fraction(True)


def test_rational_canonical_form():
    x = as_fraction("-4/6")
    assert x.numerator == -2 and x.denominator == 3
    assert as_fraction("0/7") == Fraction(0, 1)
    assert as_fraction("0/7").denominator == 1


@settings(max_examples=200)
@given(FRACTIONS, FRACTIONS, FRACTIONS)
def test_rational_ring_laws_random(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a


# -- truncated series ---------------------------------------------------------


def test_geom_div_of_one():
    assert TruncSeries.one(6).geom_div(2) == TruncSeries(
        [1, 0, 1, 0, 1, 0, 1], 6
    )


def test_geom_div_telescoping_quotient():
    # (1 - t^6) / (1 - t^2) = 1 + t^2 + t^4
    a = TruncSeries.from_dict({0: 1, 6: -1}, 6)
    assert a.geom_div(2) == TruncSeries([1, 0, 1, 0, 1, 0, 0], 6)


def test_geom_div_zero():
    assert TruncSeries.zero(5).geom_div(2) == TruncSeries.zero(5)


@given(st.data())
def test_geom_div_inverts_multiplication_random(data):
    bound = data.draw(st.integers(2, 12))
    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=bound + 1, max_size=bound + 1))
    a = TruncSeries(coeffs, bound)
    k = 2 * data.draw(st.integers(1, bound // 2))
    assert (a - a.shift(k)).geom_div(k) == a


def test_shift_multiplies_by_a_power_of_t():
    a = TruncSeries([1, 2, 3], 4)
    assert a.shift(0) == a
    assert a.shift(1) == TruncSeries([0, 1, 2, 3], 4)
    assert a.shift(3) == TruncSeries([0, 0, 0, 1, 2], 4)


def test_shift_past_the_bound_is_zero():
    a = TruncSeries([1, 2, 3], 4)
    assert a.shift(5) == TruncSeries.zero(4)
    # no list of 10**11 zeros is built
    assert a.shift(10 ** 11) == TruncSeries.zero(4)


def test_shift_rejects_a_negative_power():
    with pytest.raises(ValueError):
        TruncSeries.one(4).shift(-1)


def test_series_difference_truncates_to_min_bound():
    a = TruncSeries([1, 1], 3)
    b = TruncSeries([0, 2, 5], 7)
    assert a - b == TruncSeries([1, -1, -5], 3)


def test_geom_div_validates_stride():
    a = TruncSeries.one(4)
    for bad in (0, 1, 3, -2):
        with pytest.raises(ValueError):
            a.geom_div(bad)


def test_series_rejects_non_integer_coefficients():
    with pytest.raises(ValueError):
        TruncSeries([Fraction(1, 2)], 2)
    with pytest.raises(TypeError):
        TruncSeries([0.5], 2)
    # integral Fractions are fine
    assert TruncSeries([Fraction(4, 2)], 1) == TruncSeries([2], 1)


def test_series_str():
    assert str(TruncSeries([1, 0, 1, 0, 1], 4)) == "1 + t^2 + t^4"
    assert str(TruncSeries([0, 0, 1, 0, 2], 4)) == "t^2 + 2*t^4"
    assert str(TruncSeries.zero(3)) == "0"
    assert str(TruncSeries([1, -1], 1)) == "1 - t"


def test_series_degree_and_coefficient():
    a = TruncSeries([0, 0, 3], 5)
    assert a.degree() == 2
    assert a.coefficient(2) == 3
    assert a.coefficient(5) == 0
    with pytest.raises(IndexError):
        a.coefficient(6)
