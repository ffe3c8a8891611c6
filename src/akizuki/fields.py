"""Exact coefficient fields.

Series coefficients live in an exact field with decidable equality: either
the rationals (backed by fractions.Fraction) or the integers modulo a prime.
Field objects are lightweight immutable descriptors; element values are plain
Fraction or int objects, and all arithmetic on them is routed through the
descriptor so that the series layer stays field-agnostic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInvertibleError, ParseError

_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?$")


def parse_int(text: str) -> int:
    """int(text) for a decimal string; past Python's limit on digits
    (``sys.get_int_max_str_digits``) that is a parse error."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer with {len(text)} digits is too long") from None


@dataclass(frozen=True)
class RationalField:
    """The field of exact rational numbers."""

    @property
    def characteristic(self) -> int:
        return 0

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise NotInvertibleError("0 has no inverse")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def parse(self, text: str):
        text = text.strip()
        if not _RATIONAL_RE.match(text):
            raise ParseError(f"bad rational coefficient {text!r}")
        num, _, den = text.partition("/")
        try:
            return Fraction(parse_int(num), parse_int(den or "1"))
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in coefficient {text!r}") from None

    def fmt(self, a) -> str:
        return str(a)

    def __str__(self) -> str:
        return "q"


@dataclass(frozen=True)
class PrimeField:
    """The field of integers modulo a prime p; values are ints in [0, p)."""

    p: int

    def __post_init__(self):
        p = self.p
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")

    @property
    def characteristic(self) -> int:
        return self.p

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise NotInvertibleError(f"0 has no inverse mod {self.p}")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def parse(self, text: str):
        text = text.strip()
        m = re.match(r"(-?\d+)(?:/(-?\d+))?$", text)
        if not m:
            raise ParseError(f"bad coefficient {text!r} for {self}")
        value = self.from_int(parse_int(m.group(1)))
        if m.group(2) is not None:
            den = self.from_int(parse_int(m.group(2)))
            if self.is_zero(den):
                raise ParseError(
                    f"denominator of {text!r} is zero mod {self.p}"
                )
            value = self.mul(value, self.inv(den))
        return value

    def fmt(self, a) -> str:
        return str(a % self.p)

    def __str__(self) -> str:
        return f"fp:{self.p}"
