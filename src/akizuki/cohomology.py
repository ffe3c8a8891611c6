"""Generalized-fraction classes in the top local cohomology of the ring.

The localization sequence 0 -> C_M -> (C_M)_t -> H -> 0 presents the top
local cohomology H supported at the maximal ideal as fractions f / t^n with
f in C_M, taken modulo ring elements: the class of f / t^n vanishes exactly
when f lies in t^n C_M.  With f kept in normal form x + y*w at level n, that
vanishing criterion becomes simply x = y = 0 in the window, so classes have
an exact equality test.

Classes are stored canonically with the least possible exponent: while both
numerator components are divisible by t (and the exponent exceeds 1), the
common factor is cancelled.  The zero class is gf(0; 0; 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PrecisionError
from .ring import AkizukiRing, NormalForm
from .series import TruncatedSeries, raise_pair, strip_common_t


@dataclass(frozen=True)
class CohomologyClass:
    """The class of (x + y*w) / t^n, written gf(x; y; n)."""

    numerator: NormalForm

    @property
    def ring(self) -> AkizukiRing:
        return self.numerator.ring

    @property
    def exponent(self) -> int:
        return self.numerator.level

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def make(cls, numerator: NormalForm, exponent: int) -> "CohomologyClass":
        """Build the class of numerator / t^exponent and canonicalize."""
        if exponent < 1:
            raise ValueError("the denominator exponent must be at least 1")
        if numerator.level < exponent:
            raise PrecisionError(
                f"numerator level {numerator.level} below exponent {exponent}"
            )
        f = numerator.truncate(exponent)
        return cls(f.ring.nf(*strip_common_t(f.x, f.y)))

    @classmethod
    def zero(cls, ring: AkizukiRing) -> "CohomologyClass":
        return cls(ring.zero_nf(1))

    # ------------------------------------------------------------------
    # queries

    def is_zero(self) -> bool:
        return self.numerator.x.is_zero() and self.numerator.y.is_zero()

    def raised_numerator(self, n: int) -> NormalForm:
        """The numerator over the larger denominator t^n (t^{n-e} * f)."""
        f = self.numerator
        return f.ring.nf(*raise_pair(f.x, f.y, n, "exponent"))

    def equivalent(self, other: "CohomologyClass") -> bool:
        """Equality checked by raising to a common denominator (does not
        rely on both sides being canonical)."""
        if other.ring is not self.ring:
            raise ValueError("classes belong to different ring instances")
        n = max(self.exponent, other.exponent)
        return self.raised_numerator(n) == other.raised_numerator(n)

    # ------------------------------------------------------------------
    # module structure

    def __add__(self, other):
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        if other.ring is not self.ring:
            raise ValueError("classes belong to different ring instances")
        n = max(self.exponent, other.exponent)
        return CohomologyClass.make(
            self.raised_numerator(n) + other.raised_numerator(n), n
        )

    def __neg__(self):
        return CohomologyClass(-self.numerator)

    def act(self, f: NormalForm) -> "CohomologyClass":
        """The class of (f * numerator) / t^n for a ring element f."""
        n = self.exponent
        if f.level < n:
            raise PrecisionError(f"acting element level {f.level} below exponent {n}")
        return CohomologyClass.make(f.truncate(n).mul(self.numerator), n)

    def scaled(self, a: TruncatedSeries) -> "CohomologyClass":
        """The A-module action of a scalar series a."""
        if a.precision < self.exponent:
            raise PrecisionError(
                f"scalar precision {a.precision} below exponent {self.exponent}"
            )
        return self.act(self.ring.nf(
            a.truncate(self.exponent),
            TruncatedSeries.zero(self.ring.field, self.exponent),
        ))

    # ------------------------------------------------------------------

    def __str__(self) -> str:
        return f"gf({self.numerator.x};{self.numerator.y};{self.exponent})"

    def __repr__(self) -> str:
        return f"CohomologyClass({self})"
