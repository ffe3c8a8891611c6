"""Literal grammar: parse(print(v)) == v and error reporting."""

import random
from fractions import Fraction

import pytest

from akizuki import (
    LaurentTail,
    ParseError,
    PrimeField,
    RationalField,
    parse_comp,
    parse_gf,
    parse_hom,
    parse_pair,
    parse_series,
    parse_tail,
)
from support import (
    RING_P101,
    RING_Q,
    rand_comp,
    rand_hom,
    rand_klass,
    rand_pair,
    rand_series,
)

QQ = RationalField()
F101 = PrimeField(101)


# ----------------------------------------------------------------------
# series literals


def test_series_literal_forms():
    assert str(parse_series("2t^3", QQ, 5)) == "2t^3"
    assert parse_series("2*t^3", QQ, 5) == parse_series("2t^3", QQ, 5)
    assert parse_series("t + t", QQ, 5) == parse_series("2t", QQ, 5)
    assert parse_series("3/2*t^2", QQ, 5).coeffs[2] == parse_series("3/2", QQ, 1).coeffs[0]
    assert str(parse_series("3/2*t^2", QQ, 5)) == "3/2*t^2"
    assert parse_series("1 - 1", QQ, 4).is_zero()
    assert str(parse_series("0", QQ, 4)) == "0"
    assert parse_series("t^9", QQ, 4).is_zero()  # beyond the window
    assert str(parse_series("-t + 1", QQ, 4)) == "1 - t"


def test_series_literal_errors():
    for bad in ("", "t^-1", "1 +", "* t", "x", "2**t", "t^"):
        with pytest.raises(ParseError):
            parse_series(bad, QQ, 4)
    with pytest.raises(ParseError):
        parse_series("1", QQ, 0)
    with pytest.raises(ParseError):
        parse_series("1/0", QQ, 4)


def test_term_without_sign_is_named():
    with pytest.raises(ParseError, match=r"^expected '\+' or '-' before 't'$"):
        parse_series("t t", QQ, 4)


def test_whitespace_after_star():
    assert parse_series("2* t", QQ, 4) == parse_series("2t", QQ, 4)
    assert parse_series("3/2 *  t^2", QQ, 4) == parse_series("3/2*t^2", QQ, 4)


def test_prime_field_literals():
    assert str(parse_series("-1", F101, 3)) == "100"
    # p/q literals are read through the modular inverse
    assert parse_series("1/2", F101, 3) == parse_series("51", F101, 3)
    with pytest.raises(ParseError):
        parse_series("1/101", F101, 3)  # denominator vanishes mod p
    assert parse_series("102", F101, 3) == parse_series("1", F101, 3)


def test_a_sign_is_read_with_its_coefficient():
    """Each field parses a coefficient together with its sign; a bare t
    takes the field's +-1.  Errors quote the signed coefficient, and an
    overlong coefficient or exponent counts its digits without the sign."""
    assert parse_series("5 - 3/2*t - t^2", QQ, 3).coeffs == (5, Fraction(-3, 2), -1)
    assert parse_series("+5 - 3 / 2*t - t^2", F101, 3).coeffs == (5, 49, 100)
    with pytest.raises(ParseError, match=r"^zero denominator in coefficient '-1/0'$"):
        parse_series("t - 1/0", QQ, 3)
    with pytest.raises(ParseError, match=r"^denominator of '-1/101' is zero mod 101$"):
        parse_series("t - 1/101", F101, 3)
    for field in (QQ, F101):
        with pytest.raises(ParseError, match=r"^integer with 5000 digits is too long$"):
            parse_series("t - " + "7" * 5000, field, 3)
        with pytest.raises(ParseError, match=r"^integer with 5000 digits is too long$"):
            parse_tail("t^-" + "9" * 5000, field)


# ----------------------------------------------------------------------
# tail literals


def test_tail_literals():
    tail = parse_tail("t^-2 + 2t^-1", QQ)
    assert tail == LaurentTail.from_coeffs(QQ, [2, 1])
    assert str(tail) == "t^-2 + 2t^-1"
    assert parse_tail("0", QQ).is_zero()
    with pytest.raises(ParseError):
        parse_tail("1 + t^-1", QQ)


# ----------------------------------------------------------------------
# composite literals


def test_composite_goldens():
    k = parse_gf("gf(1;0;1)", RING_Q)
    assert str(k) == "gf(1;0;1)"
    h = parse_hom("hom(2;1;t)", RING_Q)
    assert (h.level, str(h.alpha), str(h.beta)) == (2, "1", "t")
    p = parse_pair("pair(1;1+t)", RING_Q)
    assert str(p.rho) == "1 + t"
    c = parse_comp("comp(0;1)", RING_Q)
    assert c.rho.is_zero() and str(c.sigma) == "1"


def test_composite_literals_canonicalize():
    assert str(parse_gf("gf(t;t^2;4)", RING_Q)) == "gf(1;t;3)"
    assert str(parse_hom("hom(2;t;0)", RING_Q)) == "hom(1;1;0)"


def test_composite_errors():
    with pytest.raises(ParseError):
        parse_gf("gf(1;0)", RING_Q)  # missing field
    with pytest.raises(ParseError):
        parse_gf("hom(1;0;1)", RING_Q)  # wrong head
    with pytest.raises(ParseError):
        parse_gf("gf(1;0;0)", RING_Q)  # exponent must be >= 1
    with pytest.raises(ParseError):
        parse_gf("gf(1;0;99)", RING_Q)  # beyond working precision
    with pytest.raises(ParseError):
        parse_hom("hom(x;1;0)", RING_Q)
    with pytest.raises(ParseError):
        parse_pair("pair(1)", RING_Q)
    with pytest.raises(ParseError):
        parse_comp("comp 1;0", RING_Q)


# ----------------------------------------------------------------------
# round-trips over both coefficient fields


@pytest.mark.parametrize("ring", [RING_Q, RING_P101], ids=lambda r: str(r.field))
def test_print_parse_roundtrip(ring):
    rng = random.Random(47)
    field = ring.field
    for _ in range(40):
        s = rand_series(rng, field, rng.randint(1, 12))
        assert parse_series(str(s), field, s.precision) == s

        tail = rand_series(rng, field, 8).principal_part(rng.randint(1, 8))
        assert parse_tail(str(tail), field) == tail

        k = rand_klass(rng, ring, 10)
        assert parse_gf(str(k), ring) == k

        h = rand_hom(rng, ring, 10)
        assert parse_hom(str(h), ring) == h

        p = rand_pair(rng, ring, invertible=False)
        assert parse_pair(str(p), ring) == p

        c = rand_comp(rng, ring)
        assert parse_comp(str(c), ring) == c
