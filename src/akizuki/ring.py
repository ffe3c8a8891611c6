"""A finite-precision model of Akizuki's one-dimensional local domain.

The classical construction starts from a discrete valuation ring A with
uniformizer t and completion A^, picks a series

    z = a_0 + a_1 t^{n_1} + a_2 t^{n_2} + ...

whose coefficients a_i are units of A and whose exponents grow fast enough
that n_r >= 2 n_{r-1} + 2, and forms the subring

    C = A[w, g_0, g_1, ...],   w = t (z - a_0),   g_i = (z_i - a_i)^2,

localized at the maximal ideal M = (t, w); here z_i is the i-th shifted tail
of z, so g_i is the square of the tail of z past a_i divided by t^{n_i}.
The local ring C_M is a one-dimensional Noetherian domain whose completion
has nilpotents.

This module realizes C_M at a working precision t^N.  In the completed DVR,
w is the series ŵ = t (z - a_0), and at each level m <= N the difference
squares to zero:

    (w - ŵ)^2 = 0   (mod t^m C_M).

Indeed, write s_r = a_1 t^{n_1} + ... + a_r t^{n_r} for the partial sums and
take any r with 2 n_r + 2 >= m (r = R, the top index, always qualifies).
Then w - t s_r = t^{n_r + 1} (z_r - a_r) squares to t^{2 n_r + 2} g_r, which
lies in t^m C_M; and t s_r = ŵ mod t^m, because every later term of ŵ has
exponent n_j + 1 >= n_{r+1} + 1 >= 2 n_r + 3 > m.  So C_M / t^m C_M is
A/t^m [w] / (w - ŵ)^2, one relation with the same sparse coefficient at
every level.  Consequently every ring element is congruent mod t^m C_M to a
normal form x + y*w with x, y series over A, and the pair (x mod t^m,
y mod t^m) is a complete invariant of the class.  It is stored on 1 and
v = w - ŵ, as (x + ŵ y, y), where products and inverses are those of dual
numbers; the discarded remainder in t^m C_M is never materialized.
"""

from __future__ import annotations

from .errors import InstanceError, NotInvertibleError, PrecisionError
from .series import SeriesPair, Terms, TruncatedSeries, dual_invert, dual_mul
from .value import Value, set_field

MINIMAL = "minimal"

# The largest working precision.  A ring holds several series of this length
# and every product packs that many coefficients, so the cap keeps a stray
# configuration value from allocating gigabytes.
MAX_PRECISION = 1 << 16


class AkizukiRing:
    """The model ring at a fixed working precision.

    Parameters
    ----------
    field:
        Coefficient field descriptor (RationalField or PrimeField).
    precision:
        Working precision 2 <= N <= MAX_PRECISION; all full-width series
        live mod t^N.
    exponents:
        Either the string ``"minimal"`` (fastest admissible growth,
        n_r = 2 n_{r-1} + 2) or an explicit increasing list starting at 0
        that satisfies the same lower bound.  Exponents are materialized up
        to the least index R with 2 n_R + 2 >= N, which guarantees that the
        relation (w - ŵ)^2 = 0 holds at every level up to N.
    units:
        The units a_0 .. a_R (ints accepted); defaults to all ones.

    Instances are immutable and shareable; all element types keep a
    reference to their ring.  As for ``value.Value``, assigning or deleting
    an attribute raises AttributeError.
    """

    def __init__(self, field, precision: int, exponents=MINIMAL, units=None):
        if not 2 <= precision <= MAX_PRECISION:
            raise InstanceError(
                f"working precision {precision} outside 2..{MAX_PRECISION}"
            )
        set_field(self, "field", field)
        set_field(self, "precision", precision)

        if isinstance(exponents, str):
            if exponents != MINIMAL:
                raise InstanceError(f"unknown exponent rule {exponents!r}")
            ns = [0]
            while 2 * ns[-1] + 2 < precision:
                ns.append(2 * ns[-1] + 2)
        else:
            ns = [int(n) for n in exponents]
            if not ns or ns[0] != 0:
                raise InstanceError("the exponent list must start at n_0 = 0")
            for prev, cur in zip(ns, ns[1:]):
                if cur < 2 * prev + 2:
                    raise InstanceError(
                        f"exponent {cur} violates the growth condition "
                        f"n_r >= 2*{prev} + 2"
                    )
            top = next((r for r, n in enumerate(ns) if 2 * n + 2 >= precision), None)
            if top is None:
                raise InstanceError(
                    f"exponent list exhausted before reaching precision {precision}"
                )
            ns = ns[: top + 1]
        if ns[-1] >= precision:
            raise InstanceError(
                f"materialized exponent {ns[-1]} must stay below precision {precision}"
            )
        set_field(self, "exponents", tuple(ns))

        count = len(ns)
        if units is None:
            us = [field.one()] * count
        else:
            us = [field.from_int(u) if isinstance(u, int) else u for u in units]
            if len(us) < count:
                raise InstanceError(
                    f"need {count} units a_0..a_{count - 1}, got {len(us)}"
                )
            us = us[:count]
        if not all(us):
            raise InstanceError("every coefficient a_i must be a unit")
        set_field(self, "units", tuple(us))

        # Derived data: z and w = t(z - a_0), and w as sparse terms.
        set_field(self, "z", self._terms(0, count, precision))
        set_field(self, "w", self._terms(1, count, precision).shift(1))
        w_terms = Terms((n_j + 1, a_j) for n_j, a_j in zip(ns[1:], us[1:]) if n_j + 1 < precision)
        set_field(self, "w_terms", w_terms)

    __setattr__, __delattr__ = Value.__setattr__, Value.__delattr__

    # ------------------------------------------------------------------
    # instance data

    def _terms(self, first: int, stop: int, precision: int) -> TruncatedSeries:
        """The sum of a_j t^{n_j} over first <= j < stop, mod t^precision."""
        coeffs = [self.field.zero()] * precision
        for n_j, a_j in zip(self.exponents[first:stop], self.units[first:stop]):
            if n_j < precision:
                coeffs[n_j] = a_j
        return TruncatedSeries(self.field, tuple(coeffs))

    @property
    def top_index(self) -> int:
        """The largest materialized tail index R."""
        return len(self.exponents) - 1

    def t_partial_sum(self, m: int) -> TruncatedSeries:
        """ŵ = t (z - a_0) mod t^m: the coefficient of the square-zero
        relation (w - ŵ)^2 = 0 at level m, equal to t s_r mod t^m for every
        r with 2 n_r + 2 >= m."""
        return self.w.truncate(m)

    # ------------------------------------------------------------------
    # element construction

    def nf(self, x: TruncatedSeries, y: TruncatedSeries) -> "NormalForm":
        return NormalForm(self, x, y)

    def constant_nf(self, c, m: int) -> "NormalForm":
        field = self.field
        return self.nf(
            TruncatedSeries.constant(field, c, m), TruncatedSeries.zero(field, m)
        )

    def one_nf(self, m: int) -> "NormalForm":
        return self.constant_nf(self.field.one(), m)

    def w_nf(self, m: int) -> "NormalForm":
        """w at level m, stored as (ŵ, 1) mod t^m without a basis conversion."""
        return NormalForm.from_parts(self, self.w.truncate(m), TruncatedSeries.one(self.field, m))

    def generator_nf(self, i: int, m: int) -> "NormalForm":
        """The normal form of the generator g_i = (z_i - a_i)^2 at level m.

        From w - t s_i = t^{n_i + 1} (z_i - a_i) one gets
        t^{2 n_i + 2} g_i = (w - t s_i)^2 = (v + d)^2 with v = w - t s_R and
        d = t (s_R - s_i), and the relation v^2 = 0 at level m + 2 n_i + 2
        yields the stored parts of

            g_i = [ d^2  +  2 d v ] / t^{2 n_i + 2},

        where both divisions are exact.  The relation must hold at level
        m + 2 n_i + 2, so m is capped at 2 n_R + 2 - (2 n_i + 2).
        """
        drop = self._generator_drop(i, m)
        need = m + drop
        d = self._terms(i + 1, len(self.exponents), need).shift(1)
        return NormalForm.from_parts(self, (d * d).shift(-drop), d.scale(2).shift(-drop))

    def _generator_drop(self, i: int, m: int) -> int:
        """Check that g_i is representable at level m; return the headroom
        2 n_i + 2 its expansion consumes below the top rule 2 n_R + 2."""
        if i < 0:
            raise ValueError("generator index must be nonnegative")
        if not 1 <= m <= self.precision:
            raise PrecisionError(f"level {m} outside 1..{self.precision}")
        if i >= self.top_index:
            raise PrecisionError(
                f"generator g{i} is not representable: only tails up to "
                f"index {self.top_index} are materialized"
            )
        drop = 2 * self.exponents[i] + 2
        cap = 2 * self.exponents[self.top_index] + 2 - drop
        if m > cap:
            raise PrecisionError(
                f"generator g{i} exceeds the precision headroom at level {m}"
                f" (maximum {cap})"
            )
        return drop

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"AkizukiRing(field={self.field}, precision={self.precision}, "
            f"exponents={self.exponents})"
        )


class NormalForm(SeriesPair, names=("x", "y"), shift=(0, 1)):
    """The class of x + y*w modulo t^m C_M, stored as (a, y) = (x + ŵ y, y).

    Both components are series at precision m (the *level* of the form).
    By construction the pair determines the class uniquely, so ``==``,
    which compares ring, a and y, is exact equality in C_M / t^m C_M.
    """

    __slots__ = ()

    def is_unit(self) -> bool:
        """Units of the local ring: forms whose A-part has a unit constant."""
        return self.parts[0].is_unit()

    def truncate(self, m: int) -> "NormalForm":
        return NormalForm.from_parts(self.ring, *(part.truncate(m) for part in self.parts))

    def mul(self, other) -> "NormalForm":
        """Product, with v^2 = 0 at this level."""
        self._compat(other)
        return NormalForm.from_parts(self.ring, *dual_mul(*self.parts, *other.parts))

    def __mul__(self, other):
        return self.mul(other)

    def invert(self) -> "NormalForm":
        """The inverse of a unit a + y v: i - y i^2 v for i = a^-1, one
        series inversion."""
        if not self.is_unit():
            raise NotInvertibleError(
                "not a unit of the local ring: the A-part has no constant term"
            )
        return NormalForm.from_parts(self.ring, *dual_invert(*self.parts))

    def embed(self) -> TruncatedSeries:
        """The image a = x + y * t(z - a_0) in the completed DVR, mod t^level."""
        return self.parts[0]

    def __str__(self) -> str:
        return f"({self.x}) + ({self.y})*w mod t^{self.level}"
