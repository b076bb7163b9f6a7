from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from egpkit import ExtValue, INF, ValidationError, fin
from egpkit.values import format_value, parse_count, parse_fraction, parse_value


def test_finite_arithmetic():
    assert fin(2) + fin(3) == fin(5)
    assert fin("1/2") + fin("1/3") == fin(Fraction(5, 6))
    assert fin(5) - fin(7) == fin(-2)


def test_infinity_absorbs_addition():
    assert INF + fin(3) == INF
    assert fin(3) + INF == INF
    assert INF + INF == INF


def test_infinity_subtraction_guards():
    assert INF - fin(1) == INF
    with pytest.raises(ValidationError):
        INF - INF
    with pytest.raises(ValidationError):
        fin(0) - INF


def test_comparisons():
    assert fin(1) <= INF
    assert fin(1) < INF
    assert not INF <= fin(100)
    assert INF <= INF
    assert fin(1) <= fin(1)
    assert INF >= fin(5)


def test_parse_and_format():
    assert parse_value("inf") == INF
    assert parse_value("3/4") == fin(Fraction(3, 4))
    assert parse_value("-2") == fin(-2)
    assert format_value(INF) == "inf"
    assert format_value(fin(Fraction(6, 4))) == "3/2"
    with pytest.raises(ValidationError):
        parse_value("abc")
    with pytest.raises(ValidationError):
        parse_value("1/0")


def test_parse_accepts_only_the_written_forms():
    assert parse_value("3/4") == fin(Fraction(3, 4))
    assert parse_value("-2") == fin(-2)
    assert parse_value(" 5 ") == fin(5)
    assert parse_value(" inf ") == INF
    assert parse_fraction("+6/4") == Fraction(3, 2)
    for text in ["1e10000000", "1.5", "1_000", "3/-4", "3/ 4", "0x10", "\u0663", "inf/2", "", "/2", "2/"]:
        with pytest.raises(ValidationError):
            parse_fraction(text)
        with pytest.raises(ValidationError):
            parse_value(text)
    with pytest.raises(ValidationError):
        parse_fraction("inf")
    with pytest.raises(ValidationError):
        parse_fraction("9" * 5000)  # over Python's digit limit


def test_parse_count():
    assert parse_count("12") == 12
    assert parse_count(" 0 ") == 0
    for text in ["-1", "+1", "1/1", "1e3", "x", ""]:
        with pytest.raises(ValidationError):
            parse_count(text)


def test_finite_accessor():
    assert fin(7).finite() == 7
    with pytest.raises(ValidationError):
        INF.finite()


@given(st.fractions())
def test_round_trip(q):
    assert parse_value(format_value(ExtValue(q))) == ExtValue(q)


@given(st.fractions(), st.fractions())
def test_addition_matches_fractions(a, b):
    assert (ExtValue(a) + ExtValue(b)).finite() == a + b
