"""The key = value instance configuration format."""

from dataclasses import replace

import pytest

from akizuki import (
    MINIMAL,
    ParseError,
    PrimeField,
    RationalField,
    RingSettings,
    default_ring,
    parse_field_spec,
)


def test_field_specs():
    assert parse_field_spec("q") == RationalField()
    assert parse_field_spec("fp:101") == PrimeField(101)
    assert parse_field_spec(" fp:2 ") == PrimeField(2)
    for bad in ("Q", "fp:", "fp:10", "fp:-3", "gf(9)"):
        with pytest.raises(ParseError):
            parse_field_spec(bad)


def test_default_ring():
    ring = default_ring()
    assert ring.field == RationalField()
    assert ring.precision == 31
    assert ring.exponents == (0, 2, 6, 14, 30)


def test_from_text_full():
    settings = RingSettings.from_text(
        """
        # a five-adic toy instance
        field = fp:5
        precision = 9       # small window
        exponents = 0,3,8
        units = 1,2,4
        """
    )
    assert settings == RingSettings("fp:5", 9, (0, 3, 8), ("1", "2", "4"))
    ring = settings.build()
    assert ring.field == PrimeField(5)
    assert str(ring.z) == "1 + 2t^3 + 4t^8"


def test_from_text_defaults_and_minimal():
    settings = RingSettings.from_text("")
    assert settings == RingSettings()
    assert settings.exponents == MINIMAL
    assert RingSettings.from_text("exponents = minimal").exponents == MINIMAL


def test_units_reinterpreted_on_field_override():
    """Units stay textual, so swapping the field re-reads them."""
    settings = RingSettings.from_text("exponents = 0,3,8\nunits = 1,-1,2")
    q_ring = replace(settings, precision=9).build()
    p_ring = replace(settings, precision=9, field_spec="fp:7").build()
    assert q_ring.units[1] == RationalField().from_int(-1)
    assert p_ring.units[1] == 6


def test_from_text_errors():
    for bad in (
        "volume = 11",
        "precision",
        "precision = many",
        "exponents = 0,two",
        "units = 1,,2",
        "field = zz",
    ):
        with pytest.raises(ParseError):
            RingSettings.from_text(bad)


def test_from_file(tmp_path):
    path = tmp_path / "ring.conf"
    path.write_text("precision = 15\n")
    assert RingSettings.from_file(path).precision == 15


def test_overlong_precision_is_parse_error():
    with pytest.raises(ParseError, match="5000 digits"):
        RingSettings.from_text("precision = " + "1" * 5000)
