"""Residue maps, continuous homomorphisms, and the completed ring.

A pair of series (sigma, rho) defines an A-linear *residue map* on
cohomology classes:

    gf(x; y; n)  |-->  principal part of (x sigma + y rho) / t^n.

Well-defined because raising the representative multiplies the numerator by
t while deepening the denominator.

Pairing against a fixed class turns ring elements into values in K/A; the
resulting maps are exactly the *continuous* homomorphisms, those killing
t^n C_M for some n.  Such a map is determined by its level n together with
its values at 1 and w, printed as numerators alpha, beta over t^n.  The
assignment

    class omega  |-->  (f |--> residue of f * omega)

is A-linear in omega, and when rho is a unit it is an isomorphism onto the
continuous dual.  Each type is stored on 1 and v = w - ŵ (see
``series.SeriesPair``): a class as (a, y) = (x + ŵ y, y), a pair as
(sigma, d) = (sigma, rho - ŵ sigma) and a hom as its values at 1 and v,
(alpha, gamma) = (alpha, beta - ŵ alpha).  There the residue is
a sigma + y d and the forward map (a sigma + y d, a d), a triangle that the
inverse solves with one inversion of d.

Composing the forward map of one pair with the inverse of another yields a
ring structure on pairs: the completed ring

    A^[X]/(X + t(z - a_0))^2,

with comp(rho; sigma) playing rho + sigma X, stored on 1 and the
square-zero X + ŵ as (rho - ŵ sigma, sigma).  Its product is the
normal-form product, and the completion map is the identity on the stored
parts: x + y w |--> comp(x + 2 ŵ y; y).  The closed product and the
operational composition route agree window-for-window.
"""

from __future__ import annotations

from collections.abc import Callable

from .cohomology import CohomologyClass
from .errors import AlgebraError, NotInvertibleError, PrecisionError
from .ring import AkizukiRing, NormalForm
from .series import FractionPair, LaurentTail, SeriesPair, TruncatedSeries, dual_mul, fused


class ResiduePair(SeriesPair, names=("sigma", "rho"), shift=(1, -1)):
    """The defining data (sigma, rho) of a residue map, at one precision,
    stored as (sigma, d) with d = rho - ŵ sigma."""

    __slots__ = ()

    precision = SeriesPair.level

    def is_invertible(self) -> bool:
        """Whether rho, equally d, is a unit: the duality map is invertible."""
        return self.parts[1].is_unit()

    def truncated(self, n: int) -> "ResiduePair":
        return ResiduePair.from_parts(self.ring, *(part.truncate(n) for part in self.parts))

    # ------------------------------------------------------------------
    # the three maps

    def _window(self, n: int, what: str):
        """sigma and d mod t^n, for an argument of level n."""
        if n > self.precision:
            raise PrecisionError(f"{what} {n} exceeds pair precision {self.precision}")
        return tuple(part.truncate(n) for part in self.parts)

    def residue(self, omega: CohomologyClass) -> LaurentTail:
        """The value of the residue map on a class: a sigma + y d over t^n."""
        n = omega.exponent
        sig, d = self._window(n, "class exponent")
        a, y = omega.parts
        return fused((1, a, sig), (1, y, d)).principal_part(n)

    def forward(self, omega: CohomologyClass) -> "ContinuousHom":
        """The continuous hom obtained by pairing against omega.

        Its values at 1 and v = w - ŵ are the residues of omega and of
        v omega = a v / t^n (v^2 = 0): a sigma + y d and a d.
        """
        n = omega.exponent
        sig, d = self._window(n, "class exponent")
        a, y = omega.parts
        return ContinuousHom.from_parts(self.ring, fused((1, a, sig), (1, y, d)), fused((1, a, d)))

    def inverse(self, hom: "ContinuousHom") -> CohomologyClass:
        """The class sent to a given continuous hom (requires rho a unit).

        The forward map is triangular (see ``forward``), so with e = d^-1
        the class has a = gamma e and y = (alpha - a sigma) e.
        """
        if not self.is_invertible():
            raise NotInvertibleError(
                "rho is not a unit, so the duality map has no inverse"
            )
        n = hom.level
        sig, d = self._window(n, "hom level")
        alpha, gamma = hom.parts
        e = d.invert()
        a = gamma * e
        return CohomologyClass.from_parts(self.ring, a, fused((1, alpha), (-1, a, sig)) * e)

    # ------------------------------------------------------------------

    def __str__(self) -> str:
        return f"pair({self.sigma};{self.rho})"

    def __repr__(self) -> str:
        return f"ResiduePair({self})"


class ContinuousHom(FractionPair, names=("alpha", "beta"), shift=ResiduePair._shift):
    """A continuous A-linear map C_M -> K/A killing t^n C_M.

    Determined by the level n and the numerators alpha, beta of its values
    at 1 and w, stored as its values alpha, gamma at 1 and v; the value at
    x + y*w + t^n z is the class of (x alpha + y beta) / t^n.  A
    ``series.FractionPair``, like a class: the constructor stores it at the
    least level that represents the map, so ``==`` is equality of maps; the
    zero hom is hom(1; 0; 0).
    """

    __slots__ = ()

    @classmethod
    def make(cls, ring: AkizukiRing, alpha: TruncatedSeries, beta: TruncatedSeries) -> "ContinuousHom":
        """The hom with numerators alpha, beta over t^n, n their precision."""
        return cls(ring, alpha, beta)

    def __call__(self, f: NormalForm) -> LaurentTail:
        """Evaluate on a ring element given at level >= the hom level:
        a alpha + y gamma over t^n for f stored as (a, y)."""
        if f.ring is not self.ring:
            raise ValueError("element belongs to a different ring instance")
        if f.level < self.level:
            raise PrecisionError(
                f"element level {f.level} below hom level {self.level}"
            )
        (a, y), (alpha, gamma) = f.truncate(self.level).parts, self.parts
        return fused((1, a, alpha), (1, y, gamma)).principal_part(self.level)

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
    whose values at 1 and w are sigma and rho, so its two stored numerators
    over t^level are the pair's stored parts mod t^level.
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
    return ResiduePair.from_parts(ring, *hom.parts_over(level))


class CompletionElement(SeriesPair, names=("rho", "sigma"), shift=(0, -1)):
    """An element rho + sigma X of the completed ring A^[X]/(X + t(z-a_0))^2.

    Both components live at full working precision.  comp(rho; sigma)
    corresponds to the duality map of pair(sigma; rho), and is stored on 1
    and X + ŵ like the normal form (rho - 2 ŵ sigma) + sigma w, whose
    product it shares.
    """

    __slots__ = ()
    _full = True

    @classmethod
    def one(cls, ring: AkizukiRing) -> "CompletionElement":
        return cls.embed(ring.one_nf(ring.precision))

    @classmethod
    def zero(cls, ring: AkizukiRing) -> "CompletionElement":
        z = TruncatedSeries.zero(ring.field, ring.precision)
        return cls.from_parts(ring, z, z)

    @classmethod
    def embed(cls, f: NormalForm) -> "CompletionElement":
        """The completion map at full working precision, the identity on
        the stored parts: x + y w goes to comp(x + 2 ŵ y; y), so that
        embed(f).pair.forward(omega) = pair(0; 1).forward(omega.act(f))."""
        if f.level != f.ring.precision:
            raise PrecisionError(
                f"embedding needs level {f.ring.precision}, got {f.level}"
            )
        return cls.from_parts(f.ring, *f.parts)

    @property
    def pair(self) -> ResiduePair:
        """The residue pair whose duality map this element encodes: the
        stored parts in the other order."""
        return ResiduePair.from_parts(self.ring, *reversed(self.parts))

    def __mul__(self, other):
        """The closed product: the normal-form product of the stored parts."""
        self._compat(other)
        return CompletionElement.from_parts(self.ring, *dual_mul(*self.parts, *other.parts))

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
        return CompletionElement.from_parts(self.ring, *reversed(found.parts))

    def __str__(self) -> str:
        return f"comp({self.rho};{self.sigma})"

    def __repr__(self) -> str:
        return f"CompletionElement({self})"
