"""Exception types shared across the library."""


class AlgebraError(Exception):
    """A mathematically invalid operation was requested."""


class PrecisionError(AlgebraError):
    """Operands disagree on precision, or not enough precision remains."""


class ExactDivisionError(AlgebraError):
    """Division by a power of t that is not exact."""


class NotInvertibleError(AlgebraError):
    """Inversion of an element that is not a unit."""


class FormatError(AlgebraError):
    """A value too large to render as text."""


class InstanceError(AlgebraError):
    """Invalid construction data for a ring instance."""


class ParseError(ValueError):
    """Malformed textual input: series literals, expressions, config files."""
