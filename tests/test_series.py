"""Truncated-series arithmetic, precision discipline, and principal parts."""

from fractions import Fraction

import pytest

from akizuki import (
    ExactDivisionError,
    LaurentTail,
    NotInvertibleError,
    PrecisionError,
    PrimeField,
    RationalField,
    TruncatedSeries,
    parse_series,
)

QQ = RationalField()
F101 = PrimeField(101)


def S(text, field=QQ, precision=8):
    return parse_series(text, field, precision)


# ----------------------------------------------------------------------
# frozen examples


def test_add_examples():
    assert S("1+t", precision=4) + S("t", precision=4) == S("1+2*t", precision=4)
    a = S("t^2+t^6")
    assert a + a == S("2*t^2+2*t^6")


def test_mul_examples():
    assert S("1+t", precision=4) * S("1+t", precision=4) == S("1+2t+t^2", precision=4)
    w = S("t^3+t^7", precision=14)
    assert w * w == S("t^6+2t^10", precision=14)  # the t^14 term falls off


def test_mixed_precision_is_an_error():
    with pytest.raises(PrecisionError):
        S("1", precision=4) + S("1", precision=5)
    with pytest.raises(PrecisionError):
        S("1", precision=4) * S("1", precision=5)
    with pytest.raises(PrecisionError):
        S("1", QQ, 4) + S("1", F101, 4)


def test_invert_examples():
    assert S("1-t", precision=4).invert() == S("1+t+t^2+t^3", precision=4)
    assert S("1+t^2", precision=6).invert() == S("1-t^2+t^4", precision=6)
    with pytest.raises(NotInvertibleError):
        S("t").invert()


def test_shift_examples():
    assert S("t^3+t^7").shift(-3) == S("1+t^4", precision=5)
    assert S("1+t", precision=4).shift(1) == S("t+t^2", precision=4)
    with pytest.raises(ExactDivisionError):
        S("1+t").shift(-1)
    with pytest.raises(PrecisionError):
        S("0", precision=2).shift(-2)


def test_valuation():
    assert S("t^2+t^3").valuation() == 2
    assert S("0").valuation() is None
    assert S("3").valuation() == 0


def test_truncate_bounds():
    a = S("1+t+t^2", precision=5)
    assert a.truncate(2) == S("1+t", precision=2)
    with pytest.raises(PrecisionError):
        a.truncate(6)
    with pytest.raises(PrecisionError):
        a.truncate(0)


def test_tail_examples():
    assert S("1", precision=4).principal_part(3) == LaurentTail.from_coeffs(QQ, [0, 0, 1])
    assert str(S("1", precision=4).principal_part(3)) == "t^-3"
    assert S("t^3+t^7").principal_part(1).is_zero()
    assert str(S("1+t", precision=4).principal_part(2)) == "t^-2 + t^-1"
    with pytest.raises(PrecisionError):
        S("1", precision=2).principal_part(3)


def test_tail_constructor_drops_vanishing_deepest_coefficients():
    assert LaurentTail(F101, (1, 0, 0)) == LaurentTail.from_coeffs(F101, [1])
    assert LaurentTail(F101, (1, 0, 0)).depth == 1
    assert LaurentTail(QQ, (QQ.zero(), QQ.one(), QQ.zero())) == LaurentTail.from_coeffs(QQ, [0, 1])
    assert LaurentTail(F101, (0, 0)) == LaurentTail(F101, ())
    assert LaurentTail(F101, (0, 0)).is_zero() and str(LaurentTail(F101, (0,))) == "0"


def test_tail_scale_examples():
    t = S("t", precision=4)
    assert S("1", precision=4).principal_part(1).scaled_by(t).is_zero()
    assert str(S("1+t", precision=4).principal_part(2).scaled_by(t)) == "t^-1"
    tail = S("1", precision=4).principal_part(2)
    assert str(tail.scaled_by(S("1+t", precision=4))) == "t^-2 + t^-1"


def test_tail_numerator_roundtrip():
    tail = S("1+2t", precision=4).principal_part(3)
    assert tail.numerator(3).principal_part(3) == tail
    with pytest.raises(PrecisionError):
        tail.numerator(2)


def test_prime_field_reduction():
    a = TruncatedSeries.from_coeffs(F101, [102, -1], 3)
    assert a == parse_series("1+100*t", F101, 3)
    assert str(a) == "1 + 100t"


def test_char_two_arithmetic():
    F2 = PrimeField(2)
    a = parse_series("1+t", F2, 4)
    assert a + a == TruncatedSeries.zero(F2, 4)
    assert a.scale(2).is_zero()
    assert (a * a) == parse_series("1+t^2", F2, 4)


def test_fraction_coefficients():
    a = S("1/2 + 3/2*t", precision=3)
    assert a.coeffs[0] == Fraction(1, 2)
    assert a + a == S("1+3*t", precision=3)
