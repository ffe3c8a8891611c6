"""Instance configuration: a small ``key = value`` text format.

::

    field = q            # or fp:<prime>
    precision = 31
    exponents = minimal  # or an explicit comma list starting at 0
    units = 1,1,1,1,1    # optional; defaults to all ones

Unknown keys are rejected.  ``#`` starts a comment; blank lines are ignored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .errors import ParseError
from .fields import PrimeField, RationalField, parse_int
from .ring import MINIMAL, AkizukiRing

DEFAULT_PRECISION = 31


def parse_field_spec(spec: str):
    spec = spec.strip()
    if spec == "q":
        return RationalField()
    m = re.fullmatch(r"fp:(\d+)", spec)
    if m:
        try:
            return PrimeField(int(m.group(1)))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown field spec {spec!r} (expected 'q' or 'fp:<prime>')")


@dataclass(frozen=True)
class RingSettings:
    """Everything needed to build a ring; units stay textual until the
    field is known, so a field override re-interprets them correctly."""

    field_spec: str = "q"
    precision: int = DEFAULT_PRECISION
    exponents: object = MINIMAL  # MINIMAL or a tuple of ints
    units: tuple[str, ...] | None = None

    @classmethod
    def from_text(cls, text: str) -> "RingSettings":
        settings = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"config line {lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "field":
                parse_field_spec(value)  # validate early
                settings = replace(settings, field_spec=value)
            elif key == "precision":
                if not re.fullmatch(r"\d+", value):
                    raise ParseError(f"config line {lineno}: bad precision {value!r}")
                settings = replace(settings, precision=parse_int(value))
            elif key == "exponents":
                if value == MINIMAL:
                    settings = replace(settings, exponents=MINIMAL)
                else:
                    try:
                        exps = tuple(int(part) for part in value.split(","))
                    except ValueError as exc:
                        raise ParseError(
                            f"config line {lineno}: bad exponent list {value!r}"
                        ) from exc
                    settings = replace(settings, exponents=exps)
            elif key == "units":
                parts = tuple(part.strip() for part in value.split(","))
                if not all(parts):
                    raise ParseError(f"config line {lineno}: bad unit list {value!r}")
                settings = replace(settings, units=parts)
            else:
                raise ParseError(f"config line {lineno}: unknown key {key!r}")
        return settings

    @classmethod
    def from_file(cls, path) -> "RingSettings":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
            raise ParseError(f"cannot read config file {path}: {reason}") from None
        return cls.from_text(text)

    def build(self) -> AkizukiRing:
        field = parse_field_spec(self.field_spec)
        units = None
        if self.units is not None:
            units = [field.parse(u) for u in self.units]
        return AkizukiRing(field, self.precision, self.exponents, units)


def default_ring() -> AkizukiRing:
    """The desk-scale default: rationals, N = 31, minimal exponents, all
    units 1 (so z = 1 + t^2 + t^6 + t^14 + t^30)."""
    return RingSettings().build()
