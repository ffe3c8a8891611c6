"""The key = value instance configuration format."""

import pytest

from akizuki import (
    MINIMAL,
    AkizukiRing,
    InstanceError,
    ParseError,
    PrimeField,
    RationalField,
    RingSettings,
    default_ring,
    parse_field_spec,
)
from akizuki.cli import main
from akizuki.fields import PRIME_LIMIT, is_prime
from akizuki.ring import MAX_PRECISION


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
    q_ring = settings.replace(precision=9).build()
    p_ring = settings.replace(precision=9, field_spec="fp:7").build()
    assert q_ring.units[1] == RationalField().from_int(-1)
    assert p_ring.units[1] == 6


def test_replace_changes_only_the_given_fields():
    settings = RingSettings.from_text("exponents = 0,3,8\nunits = 1,-1,2")
    assert settings.replace(precision=9) == RingSettings("q", 9, (0, 3, 8), ("1", "-1", "2"))
    assert settings == RingSettings(exponents=(0, 3, 8), units=("1", "-1", "2"))
    with pytest.raises(TypeError):
        settings.replace(volume=11)


def test_from_text_errors():
    for bad in (
        "volume = 11",
        "precision",
        "precision = many",
        "exponents = 0,two",
        # an exponent is read like a precision: decimal digits, no sign or underscore
        "exponents = 0,+5",
        "exponents = 0,2_0",
        "exponents = 0,-5",
        "exponents = 0,,5",
        "precision = +40",
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


def test_exponent_list_parse_error_from_the_cli(tmp_path, capsys):
    conf = tmp_path / "exps.conf"
    conf.write_text("exponents = 0, 5 ,20,50\nprecision = 40\n")
    assert RingSettings.from_file(conf).exponents == (0, 5, 20, 50)
    assert main(["nf", "w", "--config", str(conf)]) == 0
    capsys.readouterr()
    conf.write_text("exponents = 0, +5 ,2_0,50\nprecision = 40\n")
    assert main(["nf", "w", "--config", str(conf)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: config line 1: bad exponent list '0, +5 ,2_0,50'\n"


def test_prime_test_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(10**4) if is_prime(n) != trial(n)] == []


@pytest.mark.parametrize(
    "n",
    [561, 3215031751, 3825123056546413051],
    ids=["carmichael", "spsp-2-3-5-7", "spsp-to-23"],
)
def test_strong_pseudoprimes_are_composite(n):
    assert not is_prime(n)
    with pytest.raises(ParseError, match="not prime"):
        parse_field_spec(f"fp:{n}")


def test_large_primes():
    assert parse_field_spec("fp:1000000000000000003") == PrimeField(1000000000000000003)
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
    with pytest.raises(ParseError, match="too large"):
        parse_field_spec(f"fp:{PRIME_LIMIT}")


def test_precision_cap():
    with pytest.raises(ParseError, match="line 2: precision 1000000000 exceeds"):
        RingSettings.from_text("field = q\nprecision = 1000000000")
    assert RingSettings.from_text(f"precision = {MAX_PRECISION}").precision == MAX_PRECISION
    with pytest.raises(InstanceError, match="outside 2.."):
        AkizukiRing(RationalField(), MAX_PRECISION + 1)


@pytest.mark.parametrize("field", ["q", "fp:5"])
def test_negative_denominator_unit_is_parse_error_over_both_fields(field, tmp_path, capsys):
    """Both fields read a coefficient by one grammar, with an unsigned
    denominator."""
    conf = tmp_path / "neg.conf"
    conf.write_text(f"field = {field}\nunits = 1/-2,1,1,1,1\n")
    assert main(["nf", "w", "--config", str(conf)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: bad ") and "'1/-2'" in captured.err
    assert len(captured.err.splitlines()) == 1
