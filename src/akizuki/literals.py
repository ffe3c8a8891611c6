"""Textual literals for series, tails, and the composite value types.

Series text is a signed sum of terms ``c``, ``c*t^k``, ``t^k``, ``t`` with
integer or ``p/q`` coefficients; juxtaposed coefficients (``2t^3``) are also
accepted, which is how integer coefficients are printed.  Tails use the same
grammar with negative exponents.  Composite literals:

    gf( <series x> ; <series y> ; <n> )        cohomology class
    hom( <n> ; <series alpha> ; <series beta> ) continuous hom
    pair( <series sigma> ; <series rho> )       residue pair
    comp( <series rho> ; <series sigma> )       completion element

Printing (the types' __str__) is canonical and parse(print(v)) == v.
"""

from __future__ import annotations

import re

from .cohomology import CohomologyClass
from .duality import CompletionElement, ContinuousHom, ResiduePair
from .errors import ParseError
from .fields import parse_int
from .ring import AkizukiRing
from .series import LaurentTail, TruncatedSeries

# One term: a sign, a coefficient p or p/q with an optional '*', and t or
# t^k.  Every part is optional, so the pattern matches at any position and
# the scanner names what is missing.
_TERM_RE = re.compile(r"([+-]?)\s*(?:(\d+(?:\s*/\s*\d+)?)\s*(\*?)\s*)?(t(\^(-?\d+)?)?)?\s*")


def _scan_terms(text: str, field):
    """Yield (exponent, signed coefficient) pairs from a sum of terms."""
    s = text.strip()
    if not s:
        raise ParseError("empty series literal")
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        sign, coeff_text, star, t, caret, exp = m.groups()
        if not sign and pos:
            raise ParseError(f"expected '+' or '-' before {s[pos:]!r}")
        if caret and exp is None:
            raise ParseError(f"missing exponent after '^' in {text!r}")
        if star and not t:
            raise ParseError(f"dangling '*' in {text!r}")
        if coeff_text is None and not t:
            raise ParseError(f"expected a term at {s[m.end():]!r}")
        exponent = parse_int(exp) if exp else 1 if t else 0
        if coeff_text:  # the sign is part of the coefficient: "-3/2", not -(3/2)
            yield exponent, field.parse("".join((sign + coeff_text).lstrip("+").split()))
        else:
            yield exponent, field.from_int(-1 if sign == "-" else 1)
        pos = m.end()


def parse_series(text: str, field, precision: int) -> TruncatedSeries:
    """Parse a series literal at the given precision (higher terms reduce away)."""
    if precision < 1:
        raise ParseError("series precision must be at least 1")
    coeffs = [field.zero()] * precision
    for exponent, coeff in _scan_terms(text, field):
        if exponent < 0:
            raise ParseError(f"negative exponent t^{exponent} in a series literal")
        if exponent < precision:
            coeffs[exponent] = field.add(coeffs[exponent], coeff)
    return TruncatedSeries(field, tuple(coeffs))


def parse_tail(text: str, field) -> LaurentTail:
    """Parse a principal-part literal (negative exponents, or just 0)."""
    deep: dict[int, object] = {}
    for exponent, coeff in _scan_terms(text, field):
        if exponent >= 0:
            if not coeff:
                continue
            raise ParseError(
                f"tail terms carry negative exponents, got t^{exponent}"
            )
        j = -exponent
        deep[j] = field.add(deep.get(j, field.zero()), coeff)
    depth = max(deep, default=0)
    return LaurentTail.from_coeffs(
        field, [deep.get(j, field.zero()) for j in range(1, depth + 1)]
    )


def _call_body(text: str, name: str, count: int) -> list[str]:
    s = text.strip()
    if not s.startswith(name):
        raise ParseError(f"expected a {name}(...) literal, got {text!r}")
    rest = s[len(name):].strip()
    if not (rest.startswith("(") and rest.endswith(")")):
        raise ParseError(f"malformed {name}(...) literal: {text!r}")
    parts = rest[1:-1].split(";")
    if len(parts) != count:
        raise ParseError(f"{name}(...) takes {count} ';'-separated fields")
    return [p.strip() for p in parts]


def _parse_level(text: str, ring: AkizukiRing, what: str) -> int:
    level = parse_int(text) if re.fullmatch(r"\d+", text) else 0
    if level < 1:
        raise ParseError(f"level field must be a positive integer, got {text!r}")
    if level > ring.precision:
        raise ParseError(f"{what} {level} exceeds working precision {ring.precision}")
    return level


def parse_gf(text: str, ring: AkizukiRing) -> CohomologyClass:
    x_text, y_text, n_text = _call_body(text, "gf", 3)
    n = _parse_level(n_text, ring, "class exponent")
    x = parse_series(x_text, ring.field, n)
    y = parse_series(y_text, ring.field, n)
    return CohomologyClass.make(ring.nf(x, y), n)


def parse_hom(text: str, ring: AkizukiRing) -> ContinuousHom:
    n_text, a_text, b_text = _call_body(text, "hom", 3)
    n = _parse_level(n_text, ring, "hom level")
    alpha = parse_series(a_text, ring.field, n)
    beta = parse_series(b_text, ring.field, n)
    return ContinuousHom.make(ring, alpha, beta)


def _full_width(text: str, name: str, ring: AkizukiRing) -> list:
    """The two series fields of a pair(...) or comp(...) literal, mod t^N."""
    return [parse_series(s, ring.field, ring.precision) for s in _call_body(text, name, 2)]


def parse_pair(text: str, ring: AkizukiRing) -> ResiduePair:
    return ResiduePair(ring, *_full_width(text, "pair", ring))


def parse_comp(text: str, ring: AkizukiRing) -> CompletionElement:
    return CompletionElement(ring, *_full_width(text, "comp", ring))
