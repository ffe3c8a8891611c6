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

This module realizes C_M at a working precision t^N.  Writing
s_r = a_1 t^{n_1} + ... + a_r t^{n_r} for the partial sums, the identity
w - t s_r = t^{n_r + 1} (z_r - a_r) squares to the rewriting rule

    w^2 = 2 t s_r w - t^2 s_r^2   (mod t^{2 n_r + 2} C_M),

since t^{2 n_r + 2} g_r lies in t^{2 n_r + 2} C_M.  Consequently every ring
element is congruent mod t^m C_M to a normal form x + y*w with x, y series
over A, and the pair (x mod t^m, y mod t^m) is a complete invariant of the
class.  All arithmetic below works on such pairs; the discarded remainder in
t^m C_M is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InstanceError, NotInvertibleError, PrecisionError
from .series import TruncatedSeries, check_components, dual_invert, dual_mul

MINIMAL = "minimal"


def _least_index(exponents, need: int) -> int | None:
    """The least r with 2 n_r + 2 >= need (the cheapest rewriting rule valid
    at level ``need``), or None."""
    return next((r for r, n in enumerate(exponents) if 2 * n + 2 >= need), None)


class AkizukiRing:
    """The model ring at a fixed working precision.

    Parameters
    ----------
    field:
        Coefficient field descriptor (RationalField or PrimeField).
    precision:
        Working precision N >= 2; all full-width series live mod t^N.
    exponents:
        Either the string ``"minimal"`` (fastest admissible growth,
        n_r = 2 n_{r-1} + 2) or an explicit increasing list starting at 0
        that satisfies the same lower bound.  Exponents are materialized up
        to the least index R with 2 n_R + 2 >= N, which guarantees that the
        rewriting rule covers every level up to N.
    units:
        The units a_0 .. a_R (ints accepted); defaults to all ones.

    Instances are immutable and shareable; all element types keep a
    reference to their ring.
    """

    def __init__(self, field, precision: int, exponents=MINIMAL, units=None):
        if precision < 2:
            raise InstanceError("working precision must be at least 2")
        self.field = field
        self.precision = precision

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
            top = _least_index(ns, precision)
            if top is None:
                raise InstanceError(
                    f"exponent list exhausted before reaching precision {precision}"
                )
            ns = ns[: top + 1]
        if ns[-1] >= precision:
            raise InstanceError(
                f"materialized exponent {ns[-1]} must stay below precision {precision}"
            )
        self.exponents = tuple(ns)

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
        if any(field.is_zero(u) for u in us):
            raise InstanceError("every coefficient a_i must be a unit")
        self.units = tuple(us)

        # Derived data: z and w = t(z - a_0).
        self.z = self._terms(0, count, precision)
        self.w = self._terms(1, count, precision).shift(1)

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

    def partial_sum(self, r: int) -> TruncatedSeries:
        """s_r = a_1 t^{n_1} + ... + a_r t^{n_r} at full precision."""
        return self.partial_sum_at(r, self.precision)

    def partial_sum_at(self, r: int, precision: int) -> TruncatedSeries:
        """s_r rebuilt in a window of the given width (terms past it drop).

        Needed for generator expansions whose intermediate numerators live
        in windows wider than N; faithful because the dropped terms cannot
        reach the requested output window.
        """
        if not 0 <= r <= self.top_index:
            raise IndexError(f"partial sum index {r} outside 0..{self.top_index}")
        return self._terms(1, r + 1, precision)

    def upper_sum_at(self, i: int, precision: int) -> TruncatedSeries:
        """z - a_0 - s_i rebuilt in a window of the given width."""
        return self._terms(i + 1, len(self.exponents), precision)

    def reduction_index(self, m: int) -> int:
        """The least r with 2 n_r + 2 >= m, i.e. the cheapest valid rewriting
        rule for products at level m.  Always exists for m <= N."""
        if not 1 <= m <= self.precision:
            raise ValueError(f"level {m} outside 1..{self.precision}")
        return _least_index(self.exponents, m)

    def admissible_indices(self, m: int) -> range:
        """All tail indices whose rewriting rule is valid at level m."""
        return range(self.reduction_index(m), self.top_index + 1)

    def t_partial_sum(self, m: int, r_index: int | None = None) -> TruncatedSeries:
        """t * s_r mod t^m for an admissible r (default: the least one).

        Every admissible choice yields the same window, which is what makes
        normal-form products independent of r.
        """
        least = self.reduction_index(m)
        r = least if r_index is None else r_index
        if not least <= r <= self.top_index:
            raise ValueError(f"reduction index {r} not admissible at level {m}")
        return self.partial_sum_at(r, m).shift(1)

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

    def zero_nf(self, m: int) -> "NormalForm":
        return self.constant_nf(self.field.zero(), m)

    def w_nf(self, m: int) -> "NormalForm":
        field = self.field
        return self.nf(
            TruncatedSeries.zero(field, m), TruncatedSeries.one(field, m)
        )

    def generator_nf(self, i: int, m: int, r_index: int | None = None) -> "NormalForm":
        """The normal form of the generator g_i = (z_i - a_i)^2 at level m.

        From w - t s_i = t^{n_i + 1} (z_i - a_i) one gets
        t^{2 n_i + 2} g_i = (w - t s_i)^2, and rewriting w^2 yields

            g_i = [ t^2 (s_i^2 - s_r^2)  +  2 t (s_r - s_i) w ] / t^{2 n_i + 2},

        where both divisions are exact.  The rewriting rule must hold at
        level m + 2 n_i + 2, so m is capped at 2 n_R + 2 - (2 n_i + 2).
        """
        drop = self._generator_drop(i, m)
        need = m + drop
        least = _least_index(self.exponents, need)
        r = least if r_index is None else r_index
        if not least <= r <= self.top_index:
            raise ValueError(f"reduction index {r} not admissible for g{i} at level {m}")
        s_i = self.partial_sum_at(i, need)
        s_r = self.partial_sum_at(r, need)
        x = (s_i * s_i - s_r * s_r).shift(2).shift(-drop)
        y = (s_r - s_i).shift(1).scale(2).shift(-drop)
        return self.nf(x, y)

    def generator_series(self, i: int, m: int) -> TruncatedSeries:
        """g_i evaluated directly in the completed DVR: ((z - a_0 - s_i)/t^{n_i})^2.

        An independent route used for cross-checks; subject to the same
        headroom cap as generator_nf.
        """
        self._generator_drop(i, m)
        n_i = self.exponents[i]
        q = self.upper_sum_at(i, m + n_i).shift(-n_i)
        return q * q

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


@dataclass(frozen=True)
class NormalForm:
    """The class of x + y*w modulo t^m C_M.

    Both components are series at precision m (the *level* of the form).
    By construction the pair determines the class uniquely, so dataclass
    equality is exact equality in C_M / t^m C_M.
    """

    ring: AkizukiRing
    x: TruncatedSeries
    y: TruncatedSeries

    def __post_init__(self):
        check_components(self, self.x, self.y)

    @property
    def level(self) -> int:
        return self.x.precision

    def _compat(self, other):
        if not isinstance(other, NormalForm):
            raise TypeError(f"expected a normal form, got {type(other).__name__}")
        if other.ring is not self.ring:
            raise ValueError("normal forms belong to different ring instances")
        if other.level != self.level:
            raise PrecisionError(f"level mismatch: {self.level} vs {other.level}")

    def is_unit(self) -> bool:
        """Units of the local ring: forms whose A-part has a unit constant."""
        return self.x.is_unit()

    def truncate(self, m: int) -> "NormalForm":
        return NormalForm(self.ring, self.x.truncate(m), self.y.truncate(m))

    def __add__(self, other):
        self._compat(other)
        return NormalForm(self.ring, self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        self._compat(other)
        return NormalForm(self.ring, self.x - other.x, self.y - other.y)

    def __neg__(self):
        return NormalForm(self.ring, -self.x, -self.y)

    def mul(self, other, r_index: int | None = None) -> "NormalForm":
        """Product, rewriting w^2 = 2 t s_r w - t^2 s_r^2 at this level."""
        self._compat(other)
        u = self.ring.t_partial_sum(self.level, r_index)
        return NormalForm(self.ring, *dual_mul(self.x, self.y, other.x, other.y, u))

    def __mul__(self, other):
        return self.mul(other)

    def invert(self, r_index: int | None = None) -> "NormalForm":
        """The inverse of a unit x + y*w.

        Writing u = t s_r, the level-m ring is A/t^m [w] with (w - u)^2 = 0,
        so x + y w = a + y (w - u) with a = x + y u, whose inverse is
        i - y i^2 (w - u) for i = a^-1: one series inversion.
        """
        if not self.is_unit():
            raise NotInvertibleError(
                "not a unit of the local ring: the A-part has no constant term"
            )
        u = self.ring.t_partial_sum(self.level, r_index)
        return NormalForm(self.ring, *dual_invert(self.x, self.y, u))

    def embed(self) -> TruncatedSeries:
        """The image x + y * t(z - a_0) in the completed DVR, mod t^level."""
        return self.x + self.ring.w.truncate(self.level) * self.y

    def __str__(self) -> str:
        return f"({self.x}) + ({self.y})*w mod t^{self.level}"
