"""Exact coefficient fields.

Series coefficients live in an exact field with decidable equality: either
the rationals (backed by fractions.Fraction) or the integers modulo a prime.
Field objects are lightweight immutable descriptors; element values are plain
Fraction or int objects, always canonical (over F_p an int in [0, p)), so
zero is falsy and one equals the int 1, and code reads them directly.  A
descriptor works on single values (make, parse, print, add and invert);
``parse`` reads a coefficient with its sign (``-3/2``), so no descriptor
negates.  Window arithmetic is the series kernel's (``series._window_mul``,
which subtracts a term by its own sign), reaching the values through two
hooks:

- ``to_ints(values)`` gives integers n_i over one common denominator d,
  with the least and the largest n_i (over F_p simply 0 and p - 1, with no
  scan), for the packed series kernel;
- ``from_ints(ints, d)`` turns the integers of the kernel's sum of
  products back into values.
"""

from __future__ import annotations

import math
import re
import sys

from .errors import FormatError, NotInvertibleError, ParseError
from .value import Value, set_field

_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?$")
Fraction = _ZERO = None  # bound by RationalField(): F_p never loads fractions

# Miller-Rabin with the first 13 prime bases is exact below PRIME_LIMIT, the
# least strong pseudoprime to all of them (J. Sorenson and J. Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality for n < PRIME_LIMIT (ValueError above it)."""
    if n >= PRIME_LIMIT:
        raise ValueError(f"{n} is too large: the prime test is exact below {PRIME_LIMIT}")
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def parse_int(text: str) -> int:
    """int(text) for a decimal string; past Python's limit on digits
    (``sys.get_int_max_str_digits``) that is a parse error."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer with {len(text.lstrip('-'))} digits is too long") from None


def _ratio(text: str, bad: str, field) -> tuple[int, int]:
    """The integers p and q of a stripped coefficient ``p`` or ``p/q`` (q = 1
    for ``p``, and p may carry a ``-``); other text raises
    ParseError(bad.format(text, field))."""
    if not _RATIONAL_RE.match(text):
        raise ParseError(bad.format(text, field))
    num, _, den = text.partition("/")
    return parse_int(num), parse_int(den) if den else 1


class RationalField(Value):
    """The field of exact rational numbers."""

    __slots__ = ()

    def __init__(self, *args, **named):
        global Fraction, _ZERO
        from fractions import Fraction
        _ZERO = Fraction(0)
        super().__init__(*args, **named)

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

    def inv(self, a):
        if a == 0:
            raise NotInvertibleError("0 has no inverse")
        return 1 / Fraction(a)

    def to_ints(self, values):
        """Integers n_i, one denominator d with values[i] = n_i / d, and the
        least and the largest n_i."""
        den = math.lcm(*[v.denominator for v in values])
        if den == 1:
            ints = [v.numerator for v in values]
        else:
            ints = [v.numerator * (den // v.denominator) for v in values]
        return ints, den, min(ints), max(ints)

    def from_ints(self, ints, den: int) -> list:
        """The values n_i / d in lowest terms."""
        if den == 1:
            return [Fraction(v) if v else _ZERO for v in ints]
        return [Fraction(v, den) if v else _ZERO for v in ints]

    def parse(self, text: str):
        text = text.strip()
        num, den = _ratio(text, "bad rational coefficient {!r}", self)
        if not den:
            raise ParseError(f"zero denominator in coefficient {text!r}")
        return Fraction(num, den)

    def fmt(self, a) -> str:
        try:
            return str(a)
        except ValueError:  # past Python's limit on int-to-string digits
            raise FormatError(
                f"a coefficient with more than {sys.get_int_max_str_digits()} "
                "digits is too long to print"
            ) from None

    def __str__(self) -> str:
        return "q"


class PrimeField(Value):
    """The field of integers modulo a prime p; values are ints in [0, p)."""

    __slots__ = _fields = ("p",)

    def __init__(self, p: int):
        set_field(self, "p", p)
        self.__post_init__()  # a method of its own: perfbench/spans.py times it by name

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

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

    def inv(self, a):
        if a % self.p == 0:
            raise NotInvertibleError(f"0 has no inverse mod {self.p}")
        return pow(a, -1, self.p)

    def to_ints(self, values):
        """The values themselves over the denominator 1; they lie in [0, p)."""
        return values, 1, 0, self.p - 1

    def from_ints(self, ints, den: int) -> list:
        """Integers reduced mod p (``den`` is always 1 here)."""
        p = self.p
        return [v % p for v in ints]

    def parse(self, text: str):
        text = text.strip()
        num, den = _ratio(text, "bad coefficient {!r} for {}", self)
        p = self.p
        if den % p == 0:
            raise ParseError(f"denominator of {text!r} is zero mod {p}")
        return num % p if den == 1 else num * pow(den, -1, p) % p

    def fmt(self, a) -> str:
        return str(a % self.p)

    def __str__(self) -> str:
        return f"fp:{self.p}"
