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

from .errors import ParseError
from .fields import PrimeField, RationalField, parse_int
from .ring import MAX_PRECISION, MINIMAL, AkizukiRing
from .value import Value

DEFAULT_PRECISION = 31


def parse_field_spec(spec: str):
    spec = spec.strip()
    if spec == "q":
        return RationalField()
    m = re.fullmatch(r"fp:(\d+)", spec)
    if m:
        try:  # a ParseError from parse_int passes through with its own text
            return PrimeField(parse_int(m.group(1)))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown field spec {spec!r} (expected 'q' or 'fp:<prime>')")


class RingSettings(Value):
    """Everything needed to build a ring; units stay textual until the
    field is known, so a field override re-interprets them correctly.

    ``exponents`` is MINIMAL or a tuple of ints, ``units`` a tuple of
    strings or None.
    """

    __slots__ = _fields = ("field_spec", "precision", "exponents", "units")

    def __init__(
        self,
        field_spec: str = "q",
        precision: int = DEFAULT_PRECISION,
        exponents=MINIMAL,
        units: tuple[str, ...] | None = None,
    ):
        super().__init__(field_spec, precision, exponents, units)

    def replace(self, **changes) -> "RingSettings":
        """These settings with the given fields changed."""
        return RingSettings(**dict(zip(self._fields, self._values()), **changes))

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
                settings = settings.replace(field_spec=value)
            elif key == "precision":
                if not re.fullmatch(r"\d+", value):
                    raise ParseError(f"config line {lineno}: bad precision {value!r}")
                precision = parse_int(value)
                if precision > MAX_PRECISION:
                    raise ParseError(
                        f"config line {lineno}: precision {precision} exceeds "
                        f"the maximum {MAX_PRECISION}"
                    )
                settings = settings.replace(precision=precision)
            elif key == "exponents":
                if value == MINIMAL:
                    settings = settings.replace(exponents=MINIMAL)
                else:  # each exponent by the grammar of precision
                    parts = [part.strip() for part in value.split(",")]
                    if not all(re.fullmatch(r"\d+", part) for part in parts):
                        raise ParseError(f"config line {lineno}: bad exponent list {value!r}")
                    settings = settings.replace(exponents=tuple(map(parse_int, parts)))
            elif key == "units":
                parts = tuple(part.strip() for part in value.split(","))
                if not all(parts):
                    raise ParseError(f"config line {lineno}: bad unit list {value!r}")
                settings = settings.replace(units=parts)
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
