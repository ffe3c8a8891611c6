"""Residue maps, continuous homomorphisms, and the completed ring.

A pair of series (sigma, rho) defines an A-linear *residue map* on
cohomology classes:

    gf(x; y; n)  |-->  principal part of (x sigma + y rho) / t^n.

Well-defined because raising the representative multiplies the numerator by
t while deepening the denominator.

Pairing against a fixed class turns ring elements into values in K/A; the
resulting maps are exactly the *continuous* homomorphisms, those killing
t^n C_M for some n.  Such a map is determined by its level n together with
its values at 1 and w, stored here as numerators alpha, beta over t^n.  The
assignment

    class omega  |-->  (f |--> residue of f * omega)

is A-linear in omega, and when rho is a unit it is an isomorphism onto the
continuous dual.  In the basis 1, w - u of the numerator (u = t s_r, so
(w - u)^2 = 0) the map is triangular, and its inverse below solves the
triangle with a single inversion of d = rho - u sigma.

Composing the forward map of one pair with the inverse of another yields a
ring structure on pairs: the completed ring

    A^[X] / (X + t(z - a_0))^2,

with (rho, sigma) playing rho + sigma X.  The closed product formula and
the operational composition route agree window-for-window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .cohomology import CohomologyClass
from .errors import AlgebraError, NotInvertibleError, PrecisionError
from .ring import AkizukiRing, NormalForm
from .series import LaurentTail, TruncatedSeries, check_components, dual_mul
from .series import raise_pair, strip_common_t


@dataclass(frozen=True)
class ResiduePair:
    """The defining data (sigma, rho) of a residue map, at one precision."""

    ring: AkizukiRing
    sigma: TruncatedSeries
    rho: TruncatedSeries

    def __post_init__(self):
        check_components(self, self.sigma, self.rho)

    @property
    def precision(self) -> int:
        return self.sigma.precision

    def is_invertible(self) -> bool:
        """Whether rho is a unit, i.e. the duality map is invertible."""
        return self.rho.is_unit()

    def truncated(self, n: int) -> "ResiduePair":
        return ResiduePair(self.ring, self.sigma.truncate(n), self.rho.truncate(n))

    def __add__(self, other):
        if not isinstance(other, ResiduePair):
            return NotImplemented
        if other.ring is not self.ring:
            raise ValueError("pairs belong to different ring instances")
        return ResiduePair(self.ring, self.sigma + other.sigma, self.rho + other.rho)

    # ------------------------------------------------------------------
    # the three maps

    def _window(self, n: int, what: str):
        """sigma and rho mod t^n, for an argument of level n."""
        if n > self.precision:
            raise PrecisionError(f"{what} {n} exceeds pair precision {self.precision}")
        return self.sigma.truncate(n), self.rho.truncate(n)

    def residue(self, omega: CohomologyClass) -> LaurentTail:
        """The value of the residue map on a class."""
        n = omega.exponent
        sig, rho = self._window(n, "class exponent")
        f = omega.numerator
        return (f.x * sig + f.y * rho).principal_part(n)

    def forward(self, omega: CohomologyClass, r_index: int | None = None) -> "ContinuousHom":
        """The continuous hom obtained by pairing against omega.

        Its value at 1 is the residue alpha = x sigma + y rho of omega
        itself; its value at w uses the rewriting rule once.  With u = t s_r,
        a = x + u y and d = rho - u sigma, these are

            alpha = a sigma + y d,    beta = a d + u alpha.
        """
        n = omega.exponent
        sig, rho = self._window(n, "class exponent")
        f = omega.numerator
        u = self.ring.t_partial_sum(n, r_index)
        a = f.x + u * f.y
        d = rho - u * sig
        alpha = a * sig + f.y * d
        return ContinuousHom.make(self.ring, alpha, a * d + u * alpha)

    def inverse(self, hom: "ContinuousHom", r_index: int | None = None) -> CohomologyClass:
        """The class sent to a given continuous hom (requires rho a unit).

        The forward map is triangular (see ``forward``), so with
        u = t s_r and d = rho - u sigma, a unit exactly when rho is,

            a = (beta - u alpha) / d,  y = (alpha - a sigma) / d,  x = a - u y.
        """
        if not self.is_invertible():
            raise NotInvertibleError(
                "rho is not a unit, so the duality map has no inverse"
            )
        n = hom.level
        sig, rho = self._window(n, "hom level")
        u = self.ring.t_partial_sum(n, r_index)
        e = (rho - u * sig).invert()
        a = (hom.beta - u * hom.alpha) * e
        y = (hom.alpha - a * sig) * e
        return CohomologyClass.make(self.ring.nf(a - u * y, y), n)

    # ------------------------------------------------------------------

    def __str__(self) -> str:
        return f"pair({self.sigma};{self.rho})"

    def __repr__(self) -> str:
        return f"ResiduePair({self})"


@dataclass(frozen=True)
class ContinuousHom:
    """A continuous A-linear map C_M -> K/A killing t^n C_M.

    Determined by the level n and the numerators alpha, beta of its values
    at 1 and w; the value at x + y*w + t^n z is the class of
    (x alpha + y beta) / t^n.  Stored at the least level that represents
    the map: while alpha and beta share a factor of t, both sides of the
    fraction are cancelled.  The zero hom is hom(1; 0; 0).
    """

    ring: AkizukiRing
    alpha: TruncatedSeries
    beta: TruncatedSeries

    def __post_init__(self):
        check_components(self, self.alpha, self.beta)

    @property
    def level(self) -> int:
        return self.alpha.precision

    @classmethod
    def make(cls, ring: AkizukiRing, alpha: TruncatedSeries, beta: TruncatedSeries) -> "ContinuousHom":
        """Canonicalize to the least level and wrap."""
        return cls(ring, *strip_common_t(alpha, beta))

    @classmethod
    def zero(cls, ring: AkizukiRing) -> "ContinuousHom":
        z = TruncatedSeries.zero(ring.field, 1)
        return cls(ring, z, z)

    def is_zero(self) -> bool:
        return self.alpha.is_zero() and self.beta.is_zero()

    def __call__(self, f: NormalForm) -> LaurentTail:
        """Evaluate on a ring element given at level >= the hom level."""
        if f.ring is not self.ring:
            raise ValueError("element belongs to a different ring instance")
        if f.level < self.level:
            raise PrecisionError(
                f"element level {f.level} below hom level {self.level}"
            )
        g = f.truncate(self.level)
        return (g.x * self.alpha + g.y * self.beta).principal_part(self.level)

    def raised_numerators(self, n: int) -> tuple[TruncatedSeries, TruncatedSeries]:
        return raise_pair(self.alpha, self.beta, n)

    def equivalent(self, other: "ContinuousHom") -> bool:
        """Equality as maps, checked at a common level."""
        if other.ring is not self.ring:
            raise ValueError("homs belong to different ring instances")
        n = max(self.level, other.level)
        return self.raised_numerators(n) == other.raised_numerators(n)

    def __add__(self, other):
        if not isinstance(other, ContinuousHom):
            return NotImplemented
        if other.ring is not self.ring:
            raise ValueError("homs belong to different ring instances")
        n = max(self.level, other.level)
        (a1, b1), (a2, b2) = self.raised_numerators(n), other.raised_numerators(n)
        return ContinuousHom.make(self.ring, a1 + a2, b1 + b2)

    def __neg__(self):
        return ContinuousHom(self.ring, -self.alpha, -self.beta)

    def __str__(self) -> str:
        return f"hom({self.level};{self.alpha};{self.beta})"

    def __repr__(self) -> str:
        return f"ContinuousHom({self})"


def extract_pair(
    ring: AkizukiRing,
    endo: Callable[[CohomologyClass], ContinuousHom],
    level: int,
) -> ResiduePair:
    """Recover the (sigma, rho) window of a purported duality map.

    Every C_M-linear map from cohomology classes to continuous homs is the
    forward map of some pair; probing with gf(1; 0; level) reads sigma off
    the value at 1 and rho off the value at w, both mod t^level.
    """
    if not 1 <= level <= ring.precision:
        raise PrecisionError(f"probe level {level} outside 1..{ring.precision}")
    probe = CohomologyClass.make(ring.one_nf(level), level)
    hom = endo(probe)
    if not isinstance(hom, ContinuousHom) or hom.ring is not ring:
        raise AlgebraError("blackbox did not return a hom over this ring")
    if hom.level > level:
        raise AlgebraError(
            f"inconsistent blackbox: returned level {hom.level} above probe "
            f"level {level}"
        )
    sigma = hom(ring.one_nf(level)).numerator(level)
    rho = hom(ring.w_nf(level)).numerator(level)
    return ResiduePair(ring, sigma, rho)


@dataclass(frozen=True)
class CompletionElement:
    """An element rho + sigma X of the completed ring A^[X]/(X + t(z-a_0))^2.

    Both components live at full working precision.  comp(rho; sigma)
    corresponds to the duality map of pair(sigma; rho); addition is
    componentwise and multiplication is transported from composition of
    duality maps, which closes to the polynomial product subject to
    X^2 = -2 w X - w^2 (the defining relation, with w = t(z - a_0)).
    """

    ring: AkizukiRing
    rho: TruncatedSeries
    sigma: TruncatedSeries

    def __post_init__(self):
        check_components(self, self.rho, self.sigma, full=True)

    @classmethod
    def one(cls, ring: AkizukiRing) -> "CompletionElement":
        n = ring.precision
        return cls(ring, TruncatedSeries.one(ring.field, n), TruncatedSeries.zero(ring.field, n))

    @classmethod
    def zero(cls, ring: AkizukiRing) -> "CompletionElement":
        z = TruncatedSeries.zero(ring.field, ring.precision)
        return cls(ring, z, z)

    @classmethod
    def embed(cls, f: NormalForm) -> "CompletionElement":
        """The image of a ring element: C_M -> A^ -> the quotient.

        The embedding factors through the completed DVR, so the X-part is
        zero; f must be given at full working precision.
        """
        if f.level != f.ring.precision:
            raise PrecisionError(
                f"embedding needs level {f.ring.precision}, got {f.level}"
            )
        return cls(f.ring, f.embed(), TruncatedSeries.zero(f.ring.field, f.level))

    @property
    def pair(self) -> ResiduePair:
        """The residue pair whose duality map this element encodes."""
        return ResiduePair(self.ring, self.sigma, self.rho)

    def _compat(self, other):
        if not isinstance(other, CompletionElement):
            raise TypeError(
                f"expected a completion element, got {type(other).__name__}"
            )
        if other.ring is not self.ring:
            raise ValueError("elements belong to different ring instances")

    def is_zero(self) -> bool:
        return self.rho.is_zero() and self.sigma.is_zero()

    def __add__(self, other):
        self._compat(other)
        return CompletionElement(self.ring, self.rho + other.rho, self.sigma + other.sigma)

    def __sub__(self, other):
        self._compat(other)
        return CompletionElement(self.ring, self.rho - other.rho, self.sigma - other.sigma)

    def __neg__(self):
        return CompletionElement(self.ring, -self.rho, -self.sigma)

    def __mul__(self, other):
        """The closed product: (r1 + s1 X)(r2 + s2 X) with X^2 = -2wX - w^2,
        i.e. (X - c)^2 = 0 for c = -w."""
        self._compat(other)
        return CompletionElement(
            self.ring,
            *dual_mul(self.rho, self.sigma, other.rho, other.sigma, -self.ring.w),
        )

    def mul_via_composition(self, other: "CompletionElement", unit: "CompletionElement") -> "CompletionElement":
        """The same product computed operationally, relative to a unit.

        Transport both factors to duality maps, compose through the inverse
        of the unit's map, and extract the pair of the composite at full
        precision.  With the standard unit comp(1; 0) this reproduces
        __mul__ window-for-window.
        """
        self._compat(other)
        self._compat(unit)
        unit_pair = unit.pair
        if not unit_pair.is_invertible():
            raise NotInvertibleError("the chosen unit has non-invertible rho")
        left, right = self.pair, other.pair

        def endo(omega: CohomologyClass) -> ContinuousHom:
            return left.forward(unit_pair.inverse(right.forward(omega)))

        found = extract_pair(self.ring, endo, self.ring.precision)
        return CompletionElement(self.ring, found.rho, found.sigma)

    def __str__(self) -> str:
        return f"comp({self.rho};{self.sigma})"

    def __repr__(self) -> str:
        return f"CompletionElement({self})"
