"""Classes of generalized fractions (x + y*w)/t^n and their module structure."""

import pytest

from akizuki import (
    CohomologyClass,
    PrecisionError,
    RationalField,
    TruncatedSeries,
    parse_gf,
    parse_series,
)
from support import RING_Q

QQ = RationalField()


def S(text, precision, ring=RING_Q):
    return parse_series(text, ring.field, precision)


def K(text, ring=RING_Q):
    return parse_gf(text, ring)


# ----------------------------------------------------------------------
# canonicalization


def test_make_strips_common_powers():
    f = RING_Q.nf(S("t", 4), S("t^2", 4))
    k = CohomologyClass.make(f, 4)
    assert k.exponent == 3
    assert str(k) == "gf(1;t;3)"


def test_make_zero_collapses():
    f = RING_Q.constant_nf(0, 7)
    k = CohomologyClass.make(f, 7)
    assert k.is_zero()
    assert k.exponent == 1
    assert k == CohomologyClass.zero(RING_Q)
    assert CohomologyClass(RING_Q, f.x, f.y) == k  # built directly, too


@pytest.mark.parametrize(
    "x, y, n",
    [("1", "0", 1), ("1 + t", "2t", 3), ("0", "1", 1), ("t", "1/2", 4), ("-t^3", "1", 5)],
)
def test_constructor_cuts_to_least_level(x, y, n):
    """A class built directly from numerators t x, t y over t^(n + 1) is the
    class of x, y over t^n: the constructor stores the least level.  In
    gf(-t^3; 1; 5) the stored part x + ŵ y is zero (ŵ = t^3 mod t^5) while
    x is not, and the level and x read back alike."""
    lower = CohomologyClass(RING_Q, S(x, n), S(y, n))
    raised = CohomologyClass(RING_Q, S(x, n).promote(1), S(y, n).promote(1))
    assert raised == lower == CohomologyClass.make(RING_Q.nf(S(x, n), S(y, n)), n)
    assert raised.exponent == n
    assert (raised.x, raised.y) == (S(x, n), S(y, n))


def test_make_respects_unit_floor():
    k = CohomologyClass.make(RING_Q.one_nf(3), 3)
    assert k.exponent == 3
    with pytest.raises(ValueError):
        CohomologyClass.make(RING_Q.one_nf(3), 0)
    with pytest.raises(PrecisionError):
        CohomologyClass.make(RING_Q.one_nf(3), 4)


def test_literal_roundtrip():
    k = K("gf(1+t;2;3)")
    assert str(k) == "gf(1 + t;2;3)"
    assert K(str(k)) == k


# ----------------------------------------------------------------------
# the motivating example: the fraction w/t is a nonzero class even though
# the principal part of w/t over the subring A vanishes


def test_w_over_t_vanishing_tail_nonzero_class():
    w = RING_Q.w
    assert w.principal_part(1).is_zero()
    k = K("gf(0;1;1)")
    assert not k.is_zero()
    assert k.numerator == RING_Q.w_nf(1)


# ----------------------------------------------------------------------
# equality by raising


def test_equivalent_across_exponents():
    assert K("gf(1;0;1)") == K("gf(t;0;2)")
    assert K("gf(1;0;1)") != K("gf(1;0;2)")
    assert K("gf(t;0;2)") == K("gf(1;0;1)")  # every class is at its least level


def test_raised_numerator():
    k = K("gf(1;1;2)")
    assert k.raised(4) == (S("t^2", 4), S("t^2", 4))
    assert k.raised(2) == (k.x, k.y)
    with pytest.raises(PrecisionError):
        k.raised(1)


# ----------------------------------------------------------------------
# module structure


def test_action_golden():
    k = K("gf(0;1;6)")
    acted = k.act(RING_Q.w_nf(6))
    assert str(acted) == "gf(0;2;3)"
    assert acted == K("gf(0;2;3)")


def test_action_level_guard():
    with pytest.raises(PrecisionError):
        K("gf(0;1;6)").act(RING_Q.w_nf(5))


def test_scaling_by_a_series_below_the_exponent_is_a_precision_error():
    omega = CohomologyClass.make(RING_Q.one_nf(3), 3)
    with pytest.raises(PrecisionError):
        omega.scaled(S("1+t", 2))


def test_t_power_annihilates():
    for text in ("gf(1;1;3)", "gf(0;1;1)", "gf(1+t;2t;4)"):
        k = K(text)
        n = k.exponent
        killer = TruncatedSeries.t_power(QQ, n, RING_Q.precision)
        assert k.scaled(killer).is_zero()
        # one power less does not kill a canonical representative
        survivor = TruncatedSeries.t_power(QQ, n - 1, RING_Q.precision)
        assert not k.scaled(survivor).is_zero()


def test_addition_and_negation():
    a = K("gf(1;0;2)")
    b = K("gf(0;1;1)")
    total = a + b
    assert total.exponent == 2
    assert total.numerator.x == S("1", 2)
    assert total.numerator.y == S("t", 2)
    assert (total + (-total)).is_zero()
    assert (a + (-a)).is_zero()
