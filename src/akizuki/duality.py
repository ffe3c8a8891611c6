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
continuous dual.  In the basis 1, w - u of the numerator (u = ŵ, the
ring's sparse t(z - a_0), so (w - u)^2 = 0 at every level) the map is
triangular, and its inverse below solves the triangle with a single
inversion of d = rho - u sigma.

Composing the forward map of one pair with the inverse of another yields a
ring structure on pairs: the completed ring

    A^[X] / (X + t(z - a_0))^2,

with (rho, sigma) playing rho + sigma X.  The closed product formula and
the operational composition route agree window-for-window.
"""

from __future__ import annotations

from collections.abc import Callable

from .cohomology import CohomologyClass
from .errors import AlgebraError, NotInvertibleError, PrecisionError
from .ring import AkizukiRing, NormalForm
from .series import FractionPair, LaurentTail, SeriesPair, TruncatedSeries, dual_mul, fused


class ResiduePair(SeriesPair):
    """The defining data (sigma, rho) of a residue map, at one precision."""

    __slots__ = _parts = ("sigma", "rho")

    @property
    def precision(self) -> int:
        return self.sigma.precision

    def is_invertible(self) -> bool:
        """Whether rho is a unit, i.e. the duality map is invertible."""
        return self.rho.is_unit()

    def truncated(self, n: int) -> "ResiduePair":
        return ResiduePair(self.ring, self.sigma.truncate(n), self.rho.truncate(n))

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
        return fused((1, omega.x, sig), (1, omega.y, rho)).principal_part(n)

    def forward(self, omega: CohomologyClass) -> "ContinuousHom":
        """The continuous hom obtained by pairing against omega.

        Its value at 1 is the residue alpha = x sigma + y rho of omega
        itself; its value at w uses (w - u)^2 = 0 once.  With u = ŵ,
        a = x + u y and d = rho - u sigma, these are

            alpha = a sigma + y d,    beta = a d + u alpha.
        """
        n = omega.exponent
        sig, rho = self._window(n, "class exponent")
        u = self.ring.w_terms
        a = fused((1, omega.x), (1, omega.y, u))
        d = fused((1, rho), (-1, sig, u))
        alpha = fused((1, a, sig), (1, omega.y, d))
        return ContinuousHom.make(self.ring, alpha, fused((1, a, d), (1, alpha, u)))

    def inverse(self, hom: "ContinuousHom") -> CohomologyClass:
        """The class sent to a given continuous hom (requires rho a unit).

        The forward map is triangular (see ``forward``), so with
        u = ŵ and d = rho - u sigma, a unit exactly when rho is,

            a = (beta - u alpha) / d,  y = (alpha - a sigma) / d,  x = a - u y.
        """
        if not self.is_invertible():
            raise NotInvertibleError(
                "rho is not a unit, so the duality map has no inverse"
            )
        n = hom.level
        sig, rho = self._window(n, "hom level")
        u = self.ring.w_terms
        e = fused((1, rho), (-1, sig, u)).invert()
        a = fused((1, hom.beta), (-1, hom.alpha, u)) * e
        y = fused((1, hom.alpha), (-1, a, sig)) * e
        return CohomologyClass.make(self.ring.nf(fused((1, a), (-1, y, u)), y), n)

    # ------------------------------------------------------------------

    def __str__(self) -> str:
        return f"pair({self.sigma};{self.rho})"

    def __repr__(self) -> str:
        return f"ResiduePair({self})"


class ContinuousHom(FractionPair):
    """A continuous A-linear map C_M -> K/A killing t^n C_M.

    Determined by the level n and the numerators alpha, beta of its values
    at 1 and w; the value at x + y*w + t^n z is the class of
    (x alpha + y beta) / t^n.  A ``series.FractionPair``, like a class:
    the constructor stores it at the least level that represents the map,
    so ``==`` is equality of maps; the zero hom is hom(1; 0; 0).
    """

    __slots__ = _parts = ("alpha", "beta")

    @classmethod
    def make(cls, ring: AkizukiRing, alpha: TruncatedSeries, beta: TruncatedSeries) -> "ContinuousHom":
        """The hom with numerators alpha, beta over t^n, n their precision."""
        return cls(ring, alpha, beta)

    def __call__(self, f: NormalForm) -> LaurentTail:
        """Evaluate on a ring element given at level >= the hom level."""
        if f.ring is not self.ring:
            raise ValueError("element belongs to a different ring instance")
        if f.level < self.level:
            raise PrecisionError(
                f"element level {f.level} below hom level {self.level}"
            )
        g = f.truncate(self.level)
        return fused((1, g.x, self.alpha), (1, g.y, self.beta)).principal_part(self.level)

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
    forward map of some pair; probing with gf(1; 0; level) gives the hom
    whose values at 1 and w are sigma and rho, so its two numerators over
    t^level are the pair's window mod t^level.
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
    return ResiduePair(ring, *hom.raised(level))


class CompletionElement(SeriesPair):
    """An element rho + sigma X of the completed ring A^[X]/(X + t(z-a_0))^2.

    Both components live at full working precision.  comp(rho; sigma)
    corresponds to the duality map of pair(sigma; rho); addition is
    componentwise and multiplication is transported from composition of
    duality maps, which closes to the polynomial product subject to
    X^2 = -2 w X - w^2 (the defining relation, with w = t(z - a_0)).
    """

    __slots__ = _parts = ("rho", "sigma")
    _full = True

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

    def __mul__(self, other):
        """The closed product: (r1 + s1 X)(r2 + s2 X) with X^2 = -2wX - w^2,
        i.e. (X - c)^2 = 0 for c = -w."""
        self._compat(other)
        return CompletionElement(
            self.ring,
            *dual_mul(self.rho, self.sigma, other.rho, other.sigma, self.ring.neg_w),
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
