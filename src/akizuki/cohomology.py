"""Generalized-fraction classes in the top local cohomology of the ring.

The localization sequence 0 -> C_M -> (C_M)_t -> H -> 0 presents the top
local cohomology H supported at the maximal ideal as fractions f / t^n with
f in C_M, taken modulo ring elements: the class of f / t^n vanishes exactly
when f lies in t^n C_M.  With f kept in normal form x + y*w at level n, that
vanishing criterion becomes simply x = y = 0 in the window, so classes have
an exact equality test.

A class is the pair of numerators x, y over t^n, a ``series.FractionPair``
like the continuous homs, stored like its numerator on 1 and w - ŵ: its
constructor stores every class at its least exponent, so ``==`` is equality
of classes however a class is built, and the base gives raising, addition
and the zero class gf(0; 0; 1).  This module adds the action of the ring.
"""

from __future__ import annotations

from .errors import PrecisionError
from .ring import NormalForm
from .series import FractionPair, TruncatedSeries


class CohomologyClass(FractionPair, names=("x", "y"), shift=NormalForm._shift):
    """The class of (x + y*w) / t^n, written gf(x; y; n), stored as its numerator is."""

    __slots__ = ()
    exponent = FractionPair.level  # the level n of the denominator t^n

    @property
    def numerator(self) -> NormalForm:
        return NormalForm.from_parts(self.ring, *self.parts)

    @classmethod
    def make(cls, numerator: NormalForm, exponent: int) -> "CohomologyClass":
        """The class of numerator / t^exponent (the numerator cut to that
        level)."""
        if exponent < 1:
            raise ValueError("the denominator exponent must be at least 1")
        if numerator.level < exponent:
            raise PrecisionError(
                f"numerator level {numerator.level} below exponent {exponent}"
            )
        f = numerator.truncate(exponent)
        return cls.from_parts(f.ring, *f.parts)

    # ------------------------------------------------------------------
    # module structure

    def act(self, f: NormalForm) -> "CohomologyClass":
        """The class of (f * numerator) / t^n for a ring element f."""
        n = self.exponent
        if f.level < n:
            raise PrecisionError(f"acting element level {f.level} below exponent {n}")
        return CohomologyClass.make(f.truncate(n).mul(self.numerator), n)

    def scaled(self, a: TruncatedSeries) -> "CohomologyClass":
        """The A-module action of a scalar series a, on both parts."""
        n = self.exponent
        if a.precision < n:
            raise PrecisionError(f"scalar precision {a.precision} below exponent {n}")
        return CohomologyClass.from_parts(self.ring, *(a.truncate(n) * part for part in self.parts))

    # ------------------------------------------------------------------

    def __str__(self) -> str:
        return f"gf({self.x};{self.y};{self.exponent})"

    def __repr__(self) -> str:
        return f"CohomologyClass({self})"
