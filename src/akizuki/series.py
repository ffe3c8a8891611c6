"""Truncated power series over an exact field, and principal parts.

A TruncatedSeries models an element of k[[t]]/(t^N): the coefficient window
c_0 .. c_{N-1} together with its precision N.  Precision is part of the
value.  Arithmetic never changes precision silently: combining operands of
different precision raises PrecisionError, and the only ways to move between
windows are the explicit ``truncate``, ``shift`` and ``promote`` methods.

A LaurentTail models a finite principal part sum_{j>=1} d_j t^{-j}, i.e. the
class of a fraction f/t^n modulo integral series.  One type serves all three
isomorphic quotients K/A, K^/A^ and the top local cohomology of A itself.
Tails are kept canonical (the deepest pole coefficient is nonzero), so
equality is plain coefficient comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from .errors import ExactDivisionError, NotInvertibleError, PrecisionError


def format_terms(field, terms) -> str:
    """Render nonzero (exponent, coefficient) pairs as a canonical sum.

    Integer coefficients are juxtaposed (``2t^3``); fractional ones keep an
    explicit star (``3/2*t^2``).  The zero sum renders as ``0``.
    """
    if not terms:
        return "0"
    rendered = []
    for exp, coeff in terms:
        text = field.fmt(coeff)
        if text.startswith("-"):
            sign, mag = "-", text[1:]
        else:
            sign, mag = "+", text
        if exp == 0:
            body = mag
        else:
            tpart = "t" if exp == 1 else f"t^{exp}"
            if mag == "1":
                body = tpart
            elif "/" in mag:
                body = f"{mag}*{tpart}"
            else:
                body = f"{mag}{tpart}"
        rendered.append((sign, body))
    sign, body = rendered[0]
    out = ("-" + body) if sign == "-" else body
    for sign, body in rendered[1:]:
        out += f" {sign} {body}"
    return out


@dataclass(frozen=True)
class TruncatedSeries:
    """The class of a power series in t modulo t^N.

    ``coeffs`` holds c_0 .. c_{N-1} as canonical field values; the precision
    N is ``len(coeffs)``.  Two series are equal only if field, precision and
    every coefficient agree.  Instances are immutable.
    """

    field: object
    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise PrecisionError("a series needs precision at least 1")

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_coeffs(cls, field, values, precision: int) -> "TruncatedSeries":
        """Build from low-order coefficients, zero-padded up to ``precision``.

        Plain ints are converted through the field; other values must
        already be canonical field elements.
        """
        vals = [field.from_int(v) if isinstance(v, int) else v for v in values]
        if len(vals) > precision:
            raise PrecisionError(
                f"{len(vals)} coefficients do not fit in precision {precision}"
            )
        vals.extend(field.zero() for _ in range(precision - len(vals)))
        return cls(field, tuple(vals))

    @classmethod
    def zero(cls, field, precision: int) -> "TruncatedSeries":
        return cls.from_coeffs(field, (), precision)

    @classmethod
    def one(cls, field, precision: int) -> "TruncatedSeries":
        return cls.from_coeffs(field, (1,), precision)

    @classmethod
    def constant(cls, field, value, precision: int) -> "TruncatedSeries":
        return cls.from_coeffs(field, (value,), precision)

    @classmethod
    def t_power(cls, field, exponent: int, precision: int) -> "TruncatedSeries":
        """The monomial t^exponent (zero when it falls outside the window)."""
        if exponent < 0:
            raise ValueError("t_power needs a nonnegative exponent")
        if exponent >= precision:
            return cls.zero(field, precision)
        coeffs = [field.zero()] * precision
        coeffs[exponent] = field.one()
        return cls(field, tuple(coeffs))

    # ------------------------------------------------------------------
    # inspection

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    @property
    def constant_term(self):
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return all(self.field.is_zero(c) for c in self.coeffs)

    def is_unit(self) -> bool:
        return not self.field.is_zero(self.coeffs[0])

    def valuation(self) -> int | None:
        """t-adic valuation within the window; None for the zero window."""
        for i, c in enumerate(self.coeffs):
            if not self.field.is_zero(c):
                return i
        return None

    # ------------------------------------------------------------------
    # precision moves

    def truncate(self, precision: int) -> "TruncatedSeries":
        """Drop to a lower precision window (the only lossy move)."""
        if not 1 <= precision <= self.precision:
            raise PrecisionError(
                f"cannot truncate precision {self.precision} to {precision}"
            )
        if precision == self.precision:
            return self
        return TruncatedSeries(self.field, self.coeffs[:precision])

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k within the current window.

        For k >= 0 the precision stays put and the top coefficients fall off
        the window.  For k < 0 the division must be exact, and the result is
        the honestly-known window at precision N - |k|.
        """
        if k == 0:
            return self
        field, n = self.field, self.precision
        if k > 0:
            kept = self.coeffs[: max(n - k, 0)]
            return TruncatedSeries(field, (field.zero(),) * min(k, n) + kept)
        d = -k
        if d >= n:
            raise PrecisionError(f"no precision left after dividing by t^{d}")
        if any(not field.is_zero(c) for c in self.coeffs[:d]):
            raise ExactDivisionError(f"series is not divisible by t^{d}")
        return TruncatedSeries(field, self.coeffs[d:])

    def promote(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k while widening the window to N + k.

        Exact: t^k times a class known mod t^N is determined mod t^{N+k}.
        """
        if k < 0:
            raise ValueError("promote needs a nonnegative shift")
        if k == 0:
            return self
        return TruncatedSeries(self.field, (self.field.zero(),) * k + self.coeffs)

    # ------------------------------------------------------------------
    # arithmetic

    def _compat(self, other):
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"expected a series, got {type(other).__name__}")
        if other.field != self.field:
            raise PrecisionError("coefficient fields differ")
        if other.precision != self.precision:
            raise PrecisionError(
                f"precision mismatch: {self.precision} vs {other.precision}"
            )

    def __add__(self, other):
        self._compat(other)
        add = self.field.add
        return TruncatedSeries(
            self.field, tuple(add(a, b) for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        self._compat(other)
        sub = self.field.sub
        return TruncatedSeries(
            self.field, tuple(sub(a, b) for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        neg = self.field.neg
        return TruncatedSeries(self.field, tuple(neg(a) for a in self.coeffs))

    def scale(self, c) -> "TruncatedSeries":
        """Multiply every coefficient by the field scalar c (ints convert)."""
        field = self.field
        if isinstance(c, int):
            c = field.from_int(c)
        return TruncatedSeries(field, tuple(field.mul(c, a) for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, LaurentTail):
            return NotImplemented
        self._compat(other)
        field, n = self.field, self.precision
        out = [field.zero()] * n
        for i, a in enumerate(self.coeffs):
            if field.is_zero(a):
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if not field.is_zero(b):
                    out[i + j] = field.add(out[i + j], field.mul(a, b))
        return TruncatedSeries(field, tuple(out))

    def invert(self) -> "TruncatedSeries":
        """The multiplicative inverse mod t^N (constant term must be a unit)."""
        field, n = self.field, self.precision
        if not self.is_unit():
            raise NotInvertibleError("series has no constant term, so no inverse")
        lead = field.inv(self.constant_term)
        out = [lead]
        for k in range(1, n):
            acc = field.zero()
            for i in range(1, k + 1):
                if not field.is_zero(self.coeffs[i]):
                    acc = field.add(acc, field.mul(self.coeffs[i], out[k - i]))
            out.append(field.neg(field.mul(acc, lead)))
        return TruncatedSeries(field, tuple(out))

    # ------------------------------------------------------------------
    # principal parts

    def principal_part(self, n: int) -> "LaurentTail":
        """The class of self / t^n modulo integral series (requires n <= N)."""
        if not 1 <= n <= self.precision:
            raise PrecisionError(
                f"principal part at t^-{n} needs precision >= {n}, have {self.precision}"
            )
        return LaurentTail.from_coeffs(self.field, [self.coeffs[n - j] for j in range(1, n + 1)])

    # ------------------------------------------------------------------

    def __str__(self) -> str:
        terms = [
            (e, c) for e, c in enumerate(self.coeffs) if not self.field.is_zero(c)
        ]
        return format_terms(self.field, terms)

    def __repr__(self) -> str:
        return f"TruncatedSeries({self} mod t^{self.precision})"


@dataclass(frozen=True)
class LaurentTail:
    """A principal part d_1 t^-1 + ... + d_depth t^-depth, kept canonical."""

    field: object
    coeffs: tuple  # d_1 .. d_depth; the last entry is nonzero

    def __post_init__(self):
        if self.coeffs and self.field.is_zero(self.coeffs[-1]):
            raise ValueError("tail is not canonical: deepest coefficient vanishes")

    @classmethod
    def from_coeffs(cls, field, values) -> "LaurentTail":
        vals = [field.from_int(v) if isinstance(v, int) else v for v in values]
        while vals and field.is_zero(vals[-1]):
            vals.pop()
        return cls(field, tuple(vals))

    @classmethod
    def zero(cls, field) -> "LaurentTail":
        return cls(field, ())

    @property
    def depth(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if not isinstance(other, LaurentTail):
            return NotImplemented
        if other.field != self.field:
            raise PrecisionError("coefficient fields differ")
        field = self.field
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=field.zero())
        return LaurentTail.from_coeffs(field, [field.add(a, b) for a, b in pairs])

    def __neg__(self):
        return LaurentTail(self.field, tuple(self.field.neg(c) for c in self.coeffs))

    def numerator(self, n: int) -> TruncatedSeries:
        """The series g with self = class of g / t^n (requires depth <= n)."""
        if n < max(self.depth, 1):
            raise PrecisionError(f"depth {self.depth} does not fit over t^{n}")
        field = self.field
        coeffs = [field.zero()] * n
        for j, d in enumerate(self.coeffs, start=1):
            coeffs[n - j] = d
        return TruncatedSeries(field, tuple(coeffs))

    def scaled_by(self, c: TruncatedSeries) -> "LaurentTail":
        """The class of c * self, for a scalar c known to enough precision."""
        if self.is_zero():
            return self
        if not isinstance(c, TruncatedSeries):
            raise TypeError("scalars acting on tails are truncated series")
        if c.field != self.field:
            raise PrecisionError("coefficient fields differ")
        d = self.depth
        if c.precision < d:
            raise PrecisionError(
                f"scalar precision {c.precision} below tail depth {d}"
            )
        return (c.truncate(d) * self.numerator(d)).principal_part(d)

    def __rmul__(self, c):
        if isinstance(c, TruncatedSeries):
            return self.scaled_by(c)
        return NotImplemented

    def __str__(self) -> str:
        terms = [
            (-j, self.coeffs[j - 1])
            for j in range(self.depth, 0, -1)
            if not self.field.is_zero(self.coeffs[j - 1])
        ]
        return format_terms(self.field, terms)

    def __repr__(self) -> str:
        return f"LaurentTail({self})"


# ----------------------------------------------------------------------
# helpers for the types built on a pair of series


def dual_mul(x1, y1, x2, y2, c):
    """(x1 + y1 e)(x2 + y2 e) in S[e]/(e - c)^2, as the pair (x, y).

    With v = e - c (v^2 = 0) and a = x + c y, the product of a + y v terms is
    a1 a2 + b v, b = a1 y2 + a2 y1: three dense products.  The sparse c is
    the left operand, whose zero coefficients the product skips.
    """
    a1, a2 = x1 + c * y1, x2 + c * y2
    b = a1 * y2 + a2 * y1
    return a1 * a2 - c * b, b


def dual_invert(x, y, c):
    """The inverse of x + y e in S[e]/(e - c)^2 (a = x + c y must be a unit):
    (a + y v)^-1 = i - y i^2 v with i = a^-1, rewritten in the e basis."""
    i = (x + c * y).invert()
    y_inv = -(y * (i * i))
    return i - c * y_inv, y_inv


def check_components(value, first, second, full=False):
    """Both components over the ring's field at one precision, at most (with
    ``full``, exactly) the working precision; otherwise PrecisionError."""
    ring = value.ring
    n, m, top = first.precision, second.precision, ring.precision
    if first.field != ring.field or second.field != ring.field:
        raise PrecisionError(f"{type(value).__name__} fields differ from the ring field")
    if m != n or n > top or (full and n < top):
        raise PrecisionError(
            f"{type(value).__name__} component precisions {n} and {m} must agree and "
            f"{'equal' if full else 'stay within'} the working precision {top}"
        )


def strip_common_t(x, y):
    """Numerators x, y over t^n divided by their common t^k, the largest
    with n - k >= 1: the fraction's numerators at its least level."""
    is_zero, k = x.field.is_zero, 0
    while k < x.precision - 1 and is_zero(x.coeffs[k]) and is_zero(y.coeffs[k]):
        k += 1
    return x.shift(-k), y.shift(-k)


def raise_pair(x, y, n, what="level"):
    """Numerators x, y over t^m rewritten over t^n (n >= m): times t^(n-m)."""
    k = n - x.precision
    if k < 0:
        raise PrecisionError(f"cannot lower {what} {x.precision} to {n}")
    return x.promote(k), y.promote(k)
