"""Truncated power series over an exact field, and principal parts.

A TruncatedSeries models an element of k[[t]]/(t^N): the coefficient window
c_0 .. c_{N-1} together with its precision N.  Precision is part of the
value.  Arithmetic never changes precision silently: combining operands of
different precision raises PrecisionError, and the only ways to move between
windows are the explicit ``truncate``, ``shift`` and ``promote`` methods.

Products go through one kernel, ``_window_mul``, by Kronecker substitution
(D. Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symbolic Comput. 2009).  It returns the low coefficients
of a whole sum of terms +-a b and +-a: each dense window becomes integers
over one common denominator (1 over F_p), packed once per call into the
slots of one Python int, so one bignum product (Karatsuba in CPython)
yields every coefficient of a product, a sparse factor (a ``Terms`` list,
such as the ring's ŵ) adds a shifted copy of a packed operand per pair,
times the pair's coefficient unless 1, and the result takes one unpack and
one reduction.  Slots of up to 8 bytes move through ``array`` lanes by
strided byte slices, wider ones by one ``int.to_bytes`` and
``int.from_bytes`` per value.  Over F_p a long window makes no Python call
per coefficient: a series caches its values as bytes (``_lanes``), operands
pack from them, and the sum is reduced mod p on the packed integer, which
also yields the result's bytes, returned with its values and kept by
``fused`` on the series it builds; ``_window_mul`` says how wide a slot is
and how.  ``fused`` is the kernel on series and the only place windows of
values combine: a product is its one-term case, a sum, difference or
negation its terms (+-1, a), a scalar multiple one term with the one-pair
``Terms`` ((0, c),), and the dual-number helpers, the duality maps and the
basis conversion make one call per result series.  ``fused`` first screens
its terms, so exact 0 and 1 operands (the standard unit comp(1; 0), the
probes gf(1; 0; N), 1 and w) stay out of the kernel: a zero factor drops
its term, a factor 1 drops its product, and a sum left with no term or with
the single term +a makes no kernel call.  Like every test of a value, the
screens read canonical values: zero is falsy and one equals the int 1.
Inversion is Newton iteration g <- g + g (1 - f g) on the same kernel,
doubling the known window each step, so it costs a few products instead of
O(N^2) field operations (R. P. Brent and H. T. Kung, "Fast algorithms for
manipulating formal power series", J. ACM 1978); it starts past the zero
coefficients that follow f_0, so a constant costs one field inversion, and
over F_p from the schoolbook recurrence for its first coefficients.

A LaurentTail models a finite principal part sum_{j>=1} d_j t^{-j}, i.e. the
class of a fraction f/t^n modulo integral series.  One type serves all three
isomorphic quotients K/A, K^/A^ and the top local cohomology of A itself.
The constructor drops vanishing deepest pole coefficients, so every tail is
canonical however it is built and equality is plain coefficient comparison.

``SeriesPair`` is the base of every type built on two series over one ring,
each stored on 1 and the square-zero v = w - ŵ, where products are those of
dual numbers (``dual_mul``, ``dual_invert``).  ``FractionPair`` refines it
for two numerators over t^n modulo t^n, the cohomology classes and
continuous homs: its constructor cuts both numerators to their least level,
so every value is canonical and ``==`` is the one equality; raising and
addition and subtraction across levels are written there once.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from functools import lru_cache
from itertools import compress, islice

from .errors import ExactDivisionError, NotInvertibleError, PrecisionError
from .value import Value, bind, set_field


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


class TruncatedSeries(Value):
    """The class of a power series in t modulo t^N.

    ``coeffs`` holds c_0 .. c_{N-1} as canonical field values; the precision
    N is ``len(coeffs)``.  Two series are equal only if field, precision and
    every coefficient agree.  Instances are immutable.
    """

    _fields = ("field", "coeffs")
    __slots__ = (*_fields, "_lanes")  # _lanes: the values as bytes, see _window_mul

    def __init__(self, field, coeffs):
        if not coeffs:
            raise PrecisionError("a series needs precision at least 1")
        set_field(self, "field", field)
        set_field(self, "coeffs", coeffs)

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
        vals += [field.zero()] * (precision - len(vals))
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

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_unit(self) -> bool:
        return bool(self.coeffs[0])

    def valuation(self) -> int | None:
        """t-adic valuation within the window; None for the zero window."""
        return next(compress(range(self.precision), self.coeffs), None)

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
        if any(self.coeffs[:d]):
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
        if other.field is not self.field and other.field != self.field:
            raise PrecisionError("coefficient fields differ")
        if len(other.coeffs) != len(self.coeffs):
            raise PrecisionError(
                f"precision mismatch: {self.precision} vs {other.precision}"
            )

    def __add__(self, other):
        return fused((1, self), (1, other))

    def __sub__(self, other):
        return fused((1, self), (-1, other))

    def __neg__(self):
        return fused((-1, self))

    def scale(self, c) -> "TruncatedSeries":
        """Multiply every coefficient by the field scalar c (ints convert),
        as the product by the one-term sparse series c."""
        if isinstance(c, int):
            c = self.field.from_int(c)
        return fused((1, self, Terms(((0, c),))))

    def __mul__(self, other):
        return fused((1, self, other))

    def invert(self) -> "TruncatedSeries":
        """The multiplicative inverse mod t^N (constant term must be a unit).

        Newton iteration g <- g + g (1 - f g): if f g = 1 mod t^k, then
        f g = 1 + t^k h and the step doubles the known window.  It starts
        at the first nonzero coefficient f_k past f_0, since f_0^-1 is
        exact below it: a constant costs one field inversion, and
        f_0 + t^m h skips every step below m.  Over F_p the coefficients
        below _NEWTON_FROM come from the schoolbook recurrence, cheaper there
        than kernel calls (over Q its Fraction sums cost more than Newton).
        """
        field, f, n = self.field, self.coeffs, self.precision
        if not self.is_unit():
            raise NotInvertibleError("series has no constant term, so no inverse")
        g, k = [field.inv(f[0])], 1
        if n > 1 and not f[1]:  # f_0^-1 is exact up to the next nonzero f_k
            k = next(compress(range(2, n), islice(f, 2, None)), n)
            g += [field.zero()] * (k - 1)
        p = field.characteristic
        while p and k < min(n, _NEWTON_FROM):  # g_k = -(f_1 g_(k-1) + ... + f_k g_0) / f_0
            g.append((p - g[0]) * sum(map(operator.mul, f[1 : k + 1], reversed(g))) % p)
            k += 1
        while k < n:
            step = min(k, n - k)
            h = _window_mul(field, k + step, ((1, self, g),))[0][k:]
            g += _window_mul(field, step, ((-1, g, h),))[0]
            k += step
        return TruncatedSeries(field, tuple(g))

    # ------------------------------------------------------------------
    # principal parts

    def principal_part(self, n: int) -> "LaurentTail":
        """The class of self / t^n modulo integral series (requires n <= N)."""
        if not 1 <= n <= self.precision:
            raise PrecisionError(
                f"principal part at t^-{n} needs precision >= {n}, have {self.precision}"
            )
        return LaurentTail(self.field, self.coeffs[n - 1 :: -1])  # d_j = c_{n-j}

    # ------------------------------------------------------------------

    def __str__(self) -> str:
        terms = [(e, c) for e, c in enumerate(self.coeffs) if c]
        return format_terms(self.field, terms)

    def __repr__(self) -> str:
        return f"TruncatedSeries({self} mod t^{self.precision})"


class LaurentTail(Value):
    """A principal part d_1 t^-1 + ... + d_depth t^-depth.

    ``coeffs`` holds d_1 .. d_depth.  The constructor drops vanishing
    deepest coefficients, so the stored ``coeffs`` end with a nonzero entry
    (or are empty for the zero tail).  Tails add as their numerators over
    t^depth, in the series kernel.
    """

    __slots__ = _fields = ("field", "coeffs")

    def __init__(self, field, coeffs):
        depth = len(coeffs)
        while depth and not coeffs[depth - 1]:
            depth -= 1
        set_field(self, "field", field)
        set_field(self, "coeffs", coeffs[:depth] if depth < len(coeffs) else coeffs)

    @classmethod
    def from_coeffs(cls, field, values) -> "LaurentTail":
        return cls(field, tuple(field.from_int(v) if isinstance(v, int) else v for v in values))

    @property
    def depth(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if not isinstance(other, LaurentTail):
            return NotImplemented
        n = max(self.depth, other.depth, 1)
        return (self.numerator(n) + other.numerator(n)).principal_part(n)

    def numerator(self, n: int) -> TruncatedSeries:
        """The series g with self = class of g / t^n (requires depth <= n)."""
        if n < max(self.depth, 1):
            raise PrecisionError(f"depth {self.depth} does not fit over t^{n}")
        zeros = (self.field.zero(),) * (n - self.depth)
        return TruncatedSeries(self.field, zeros + self.coeffs[::-1])

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

    def __str__(self) -> str:
        terms = [
            (-j, self.coeffs[j - 1])
            for j in range(self.depth, 0, -1)
            if self.coeffs[j - 1]
        ]
        return format_terms(self.field, terms)

    def __repr__(self) -> str:
        return f"LaurentTail({self})"


# ----------------------------------------------------------------------
# the product kernel


class Terms(tuple):
    """A sparse series: its (exponent, coefficient) pairs, the coefficients
    field values at distinct exponents.  The kernel multiplies a packed
    operand by one as a few shifted small multiples, with no bignum
    product; pairs at or past the end of a window fall off it."""

    __slots__ = ()


def fused(*terms) -> TruncatedSeries:
    """The sum of the terms (sign, a) = sign a and (sign, a, b) = sign a b,
    for sign +1 or -1, in one kernel call.

    Each a is a series and each b a series of the same field and precision
    or a ``Terms``; the result has that precision.  After those checks the
    terms are screened: a term with a zero dense factor drops out, a dense
    factor equal to 1 leaves (sign, other), and a sum left with no term is
    the zero series and one left with the single term (+1, a) is a itself,
    with no kernel call.  Each test stops at the first nonzero coefficient
    of a dense operand, so dense operands pay about nothing for it.  The
    tests read canonical values directly: the zero of either field is
    falsy and its one equals the int 1.  Lanes the kernel returns with the
    values are kept on the result, in ``_lanes``.
    """
    lead = terms[0][1]
    field, n = lead.field, len(lead.coeffs)
    flat = []
    for sign, a, *b in terms:
        b = b[0] if b else None
        if a is not lead and (type(a) is not TruncatedSeries or a.field is not field or len(a.coeffs) != n):
            lead._compat(a)
        x = a.coeffs
        if b is not None and type(b) is not Terms:
            if b is not lead and (type(b) is not TruncatedSeries or b.field is not field or len(b.coeffs) != n):
                lead._compat(b)
            y = b.coeffs
            if y[0] == 1 and not any(islice(y, 1, None)):  # b = 1
                b = None
            elif x[0] == 1 and not any(islice(x, 1, None)):  # a = 1
                a, x, b = b, y, None
            elif not (y[0] or any(y)):  # y[0] first spares most any() calls
                continue
        if x[0] or any(x):
            flat.append((sign, a, b))
    if not flat:
        return TruncatedSeries(field, (field.zero(),) * n)
    if len(flat) == 1 and flat[0][0] > 0 and flat[0][2] is None:
        return flat[0][1]
    values, lanes = _window_mul(field, n, flat)
    result = TruncatedSeries(field, tuple(values))
    if lanes is not None:
        set_field(result, "_lanes", lanes)
    return result


def _window_mul(field, n: int, terms) -> tuple:
    """(values, lanes): the low n coefficients of a sum of terms over field
    values, and on the F_p lanes path below their bytes (else None).

    A term is (sign, a, b) with sign +1 or -1 and a dense: sign a b for a
    dense b, sign a for b None, and the sum of sign c t^e a over the pairs
    (e, c) of a ``Terms`` b: one shifted copy of a per pair, times the
    integer of c unless that is 1.  A dense operand is a sequence of values
    or a series; its first n values count.  Each becomes integers over one
    denominator (``field.to_ints``, which also bounds them), written as slot
    bytes and packed once into a big int, slot i holding the coefficient of
    t^i, so the product of two packed operands holds the product's
    coefficients side by side and packed terms add slot by slot.  Each term
    is scaled to one denominator D for the whole sum (1 over F_p), so the
    result takes one unpack and one ``field.from_ints``.  A slot is the
    least whole number of bytes that holds every operand and the bound of
    the sum (over F_p that follows from p and the window length, with no
    scan; a short window widens it to its lane, see _SHORT_BYTES), plus a
    sign bit when a value can be negative.  A subtracted term P, dense or
    sparse, keeps its coefficients and is subtracted by one rule: over Q it
    makes the slots signed, and over F_p, where no value is negative, it
    enters as M - P, for M the least multiple of p at or above P's bound.
    Signed slots are two's complement, and a negative slot borrows from the
    slot above: adding ``half`` (the top bit of each of the low n slots)
    turns those n slots into independent unsigned numbers, and flipping the
    same bits again makes them two's complement.

    Over F_p a window the short rule does not widen makes no Python call
    per coefficient.  Operands pack from their lanes, by one strided copy
    per lane byte: values as w-byte little-endian bytes, w the least that
    holds p - 1, which a series keeps in ``_lanes``.  The sum's slots
    v_i < 2^b (b the bits of its bound) reduce mod p on the packed integer
    V: two slots apart (three if b = 8 size) a lane exceeds 2 b bits, so
    with s = b + bitlen(p) and m = ceil(2^s / p) each v_i m fits it and
    floor(v_i m / 2^s) = floor(v_i / p) (T. Granlund and P. Montgomery,
    "Division by invariant integers using multiplication", PLDI 1994).
    V - p q holds the residues, whose low w bytes are the returned lanes.
    """
    ints = {}  # id of a dense operand -> (itself, (integers, den, least, largest))
    parts = []  # (sign, a, b, denominator); a sparse b as Terms of integer coefficients
    top = bound = offset = 0
    signed, den = False, 1  # bound: of the sum so far, over its denominator den
    for sign, a, b in terms:
        d = scale = 1
        operands = (a,) if b is None or type(b) is Terms else (a, b)
        if type(b) is Terms:
            pairs = [(e, c) for e, c in b if e < n]
            if not pairs:
                continue
            cs, d, low, _ = field.to_ints([c for _, c in pairs])
            signed |= low < 0
            scale, b = sum(map(abs, cs)), Terms(zip([e for e, _ in pairs], cs))
        for x in operands:
            got = ints.get(id(x))
            if got is None:
                got = ints[id(x)] = x, field.to_ints((x.coeffs if type(x) is TruncatedSeries else x)[:n])
            _, (xs, dx, low, high) = got
            if low < 0:
                signed, high = True, max(high, -low)
            if high > top:
                top = high
            d *= dx
            scale *= high
        if len(operands) == 2:  # a coefficient of a b sums at most len(b) products
            scale *= len(xs)
        if sign < 0:
            p = field.characteristic
            if p:  # M - P for the least multiple M of p at or above the bound
                scale = -(-scale // p) * p
                offset += scale
            else:
                signed = True
        parts.append((sign, a, b, d))
        if d == den:
            bound += scale
        else:
            common = math.lcm(den, d)
            bound = bound * (common // den) + scale * (common // d)
            den = common
    if not parts:
        return [field.zero()] * n, None
    bits = max(bound, top).bit_length()
    size = max(1, (bits + signed + 7) // 8)
    w = 0  # bytes per lane: over F_p, in a window the short rule does not widen
    if size <= _LANE and n * _LANE_BYTES[size] <= _SHORT_BYTES:
        size = _LANE_BYTES[size]
    else:
        p = field.characteristic
        w = p and ((p - 1).bit_length() + 7) // 8
    width = n * size
    half = 0
    if signed:
        half = int.from_bytes((1 << 8 * size - 1).to_bytes(size, "little") * n, "little")

    for key, (x, (xs, _, _, _)) in ints.items():  # from here on, ints holds packed operands
        raw = _reslot(_lanes(x, xs, w), w, size) if w else _slot_bytes(xs, size, signed)
        ints[key] = _pack(raw, size, half)
    total = None
    for sign, a, b, d in parts:
        x = ints[id(a)]
        if b is None:
            term = x
        elif type(b) is Terms:
            term = 0
            for e, c in b:
                shifted = x << 8 * size * e
                term += shifted if c == 1 else c * shifted
        else:
            term = x * ints[id(b)]
        if d != den:
            term *= den // d
        if total is None:  # no copy of the first term
            total = term if sign > 0 else -term
        else:
            total = total + term if sign > 0 else total - term
    if offset:
        total += int.from_bytes(offset.to_bytes(size, "little") * n, "little")
    if signed:
        total = (total + half) ^ half
    total &= (1 << 8 * width) - 1
    if not w:
        return field.from_ints(_unpack(total.to_bytes(width, "little"), size, signed), den), None
    lanes = bytes(_reslot(_reduce(total, n, size, p, bits), size, w))
    return list(lanes) if w == 1 else _unpack(lanes, w, False), lanes


# Slots of at most 8 bytes move through ``array`` lanes: the narrowest
# integer type at least as wide as the slot ("b"/"B" 1 byte, "h"/"H" 2,
# "i"/"I" 4, "q"/"Q" 8), with one strided copy per slot byte when the two
# widths differ.  Wider slots (operand or product values of 2^64 or more)
# take one int.to_bytes / int.from_bytes call per value.
_LANE = 8
# A short window takes slots as wide as its lanes, which needs no strided
# copies: up to this many bytes per packed operand, below CPython's
# Karatsuba cutoff (70 digits of 30 bits), the wider product costs less
# than the copies (measured crossovers: 3-byte slots near 64 coefficients,
# 5-byte slots near 32).  Longer windows keep the least slot width, over
# F_p with operands packed from lanes (see _window_mul).
_SHORT_BYTES = 256
# Over F_p, invert takes this many coefficients from the recurrence (measured).
_NEWTON_FROM = 16
_SWAP = sys.byteorder != "little"
# By slot bytes (up to 8): the array lane width, and its typecodes unsigned and signed.
_LANE_BYTES = (0, 1, 2, 4, 4, 8, 8, 8, 8)
_LANE_CODES = (" BHIIQQQQ", " bhiiqqqq")
# The top byte of a two's-complement slot -> the byte that extends its sign.
_SIGN_FILL = bytes(128) + b"\xff" * 128


def _reslot(raw, old: int, new: int):
    """The values of the ``old``-byte slots of ``raw`` in ``new``-byte slots."""
    if new == old:
        return raw
    if new == 1:
        return raw[::old]
    out = bytearray(len(raw) // old * new)
    for k in range(min(old, new)):
        out[k::new] = raw[k::old]
    return out


def _slot_bytes(ints, size: int, signed: bool):
    """The integers written into ``size``-byte little-endian slots, two's
    complement when ``signed``."""
    if size > _LANE:
        return b"".join([v.to_bytes(size, "little", signed=signed) for v in ints])
    if size == 1 and not signed:
        return bytes(ints)
    lanes = array(_LANE_CODES[signed][size], ints)
    if _SWAP:
        lanes.byteswap()
    step, raw = lanes.itemsize, lanes.tobytes()
    return raw if step == size else _reslot(raw, step, size)


def _lanes(x, window, w: int):
    """The lanes of ``window``, x's values; a series keeps its own in ``_lanes``."""
    if type(x) is not TruncatedSeries:
        return _slot_bytes(window, w, False)
    if getattr(x, "_lanes", None) is None:
        set_field(x, "_lanes", _slot_bytes(x.coeffs, w, False))
    return x._lanes[: len(window) * w]


def _pack(raw, size: int, half: int) -> int:
    """sum v_i 2^(8 size i), for v_i the value in slot i of ``raw``.

    ``half`` is 0 for unsigned slots, else the top bit of every slot: then
    slots are two's complement, so each negative one reads 2^(8 size) too
    high, and its sign bit, doubled, is the borrow to take back.
    """
    packed = int.from_bytes(raw, "little")
    return packed - ((packed & half) << 1) if half else packed


def _unpack(raw, size: int, signed: bool) -> list:
    """The integers in the ``size``-byte slots of ``raw`` (little-endian,
    two's complement when ``signed``)."""
    if size > _LANE:
        from_bytes = int.from_bytes
        return [
            from_bytes(raw[i : i + size], "little", signed=signed)
            for i in range(0, len(raw), size)
        ]
    out = array(_LANE_CODES[signed][size])
    step = out.itemsize
    if step != size:
        lanes = _reslot(raw, size, step)
        if signed:
            fill = raw[size - 1 :: size].translate(_SIGN_FILL)
            for k in range(size, step):
                lanes[k::step] = fill
        raw = lanes
    out.frombytes(raw)
    if _SWAP:
        out.byteswap()
    return out.tolist()


def _reduce(v: int, n: int, size: int, p: int, bits: int) -> bytes:
    """The residues mod p of the n ``size``-byte slots of v, each below
    2^bits, as the bytes of slots of the same width (see _window_mul)."""
    step = 8 * size
    lane = step * (2 if bits < step else 3)  # in bits: each second or third slot
    s, count = bits + p.bit_length(), -(-n * step // lane)
    slots, low = _low_bits(count, lane, step), _low_bits(count, lane, lane - s)
    m, q = -(-(1 << s) // p), 0
    for k in range(0, lane, step):
        q |= ((v >> k & slots) * m >> s & low) << k
    return (v - p * q).to_bytes(n * size, "little")


@lru_cache(maxsize=32)
def _low_bits(count: int, lane: int, bits: int) -> int:
    """The low ``bits`` bits of each of ``count`` lanes of ``lane`` bits."""
    return int.from_bytes(((1 << bits) - 1).to_bytes(lane // 8, "little") * count, "little")


# ----------------------------------------------------------------------
# the types built on a pair of series


def dual_mul(a1, y1, a2, y2):
    """(a1 + y1 v)(a2 + y2 v) for a square-zero v, as the pair (a1 a2,
    a1 y2 + a2 y1): two kernel calls, three bignum products."""
    return fused((1, a1, a2)), fused((1, a1, y2), (1, a2, y1))


def dual_invert(a, y):
    """The inverse of a + y v for a square-zero v and a unit a, as the pair
    (i, -y i^2) with i = a^-1: one series inversion and two products."""
    i = a.invert()
    return i, fused((-1, y, i * i))


class SeriesPair(Value):
    """Base of the types built on two series over one ring.

    A subclass, declared with the class keywords ``names`` and ``shift``,
    prints the two series named in ``names`` and keeps in ``parts`` their
    coordinates on 1 and v = w - ŵ: for ``shift`` = (i, s), stored part i is
    printed part i plus s ŵ times the other, which is shared.  Both parts
    lie over the ring's field at one precision, at most the working
    precision, or exactly it when ``_full`` is set; otherwise the
    constructor, which takes printed series, raises PrecisionError.
    """

    __slots__ = ("ring", "parts")
    _full = False

    def __init_subclass__(cls, names=None, shift=None, **kwargs):
        super().__init_subclass__(**kwargs)
        if names:
            cls._names, cls._shift, cls._fields = names, shift, ("ring", *names)
            for i, name in enumerate(names):
                if i == shift[0]:  # read back through the conversion
                    read = lambda self, i=i: self._moved(self.parts, -1)[i]
                else:  # the part both bases share
                    read = lambda self, i=i: self.parts[i]
                setattr(cls, name, property(read, doc=f"The printed series {name}."))

    def __init__(self, ring, *series, **named):
        if named or len(series) != 2:
            series = bind(self, self._names, series, named)
        first, second = series
        field, name = ring.field, type(self).__name__
        n, m, top = first.precision, second.precision, ring.precision
        if not (first.field is field is second.field or first.field == field == second.field):
            raise PrecisionError(f"{name} fields differ from the ring field")
        if m != n or n > top or (self._full and n < top):
            raise PrecisionError(
                f"{name} component precisions {n} and {m} must agree and "
                f"{'equal' if self._full else 'stay within'} the working precision {top}"
            )
        set_field(self, "ring", ring)
        self._store(*self._moved(series, 1))

    @classmethod
    def from_parts(cls, ring, first, second):
        """The value whose stored parts are the two series."""
        value = object.__new__(cls)
        set_field(value, "ring", ring)
        value._store(first, second)
        return value

    def _store(self, first, second):
        set_field(self, "parts", (first, second))

    def _moved(self, parts, sign):
        """The one conversion between the bases: sign 1 stores printed
        series, and sign -1 prints stored parts."""
        i, s = self._shift
        out = list(parts)
        out[i] = fused((1, parts[i]), (sign * s, parts[1 - i], self.ring.w_terms))
        return out

    @property
    def level(self) -> int:
        return self.parts[0].precision

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ring == other.ring and self.parts == other.parts

    def __hash__(self):
        return hash((self.ring, self.parts))

    def _compat(self, other):
        name = type(self).__name__
        if not isinstance(other, type(self)):
            raise TypeError(f"expected a {name}, got {type(other).__name__}")
        if other.ring is not self.ring:
            raise ValueError(f"{name} values belong to different ring instances")

    def is_zero(self) -> bool:
        return all(part.is_zero() for part in self.parts)

    def __neg__(self):
        return self.from_parts(self.ring, *(-part for part in self.parts))

    def __add__(self, other, sign=1):
        """The sum, or for sign -1 the difference: one kernel call a part."""
        self._compat(other)
        pairs = zip(*self._aligned(other))
        return self.from_parts(self.ring, *(fused((1, a), (sign, b)) for a, b in pairs))

    def __sub__(self, other):
        return self.__add__(other, -1)

    def _aligned(self, other):
        """The stored parts of both values, where they add."""
        return self.parts, other.parts


class FractionPair(SeriesPair):
    """Base of the types that are two numerators over t^n, modulo t^n: the
    cohomology classes gf(x; y; n) and the continuous homs hom(n; a; b).

    The level n is the numerators' precision.  Every value is stored at its
    least level, with t cancelled from both parts while both share it (t
    divides ŵ, so the printed parts share it too) and n exceeds 1, so equal
    fractions are equal values however they are built.  ``+`` and ``-``
    work at the larger of two levels.
    """

    __slots__ = ()

    def _store(self, x, y):
        k = 0
        while k < x.precision - 1 and not x.coeffs[k] and not y.coeffs[k]:
            k += 1
        if k:
            x, y = x.shift(-k), y.shift(-k)
        super()._store(x, y)

    @classmethod
    def zero(cls, ring):
        z = TruncatedSeries.zero(ring.field, 1)
        return cls.from_parts(ring, z, z)

    def parts_over(self, n: int) -> tuple:
        """The stored parts over the larger denominator t^n."""
        k = n - self.level
        if k < 0:
            raise PrecisionError(f"cannot lower level {self.level} to {n}")
        return tuple(part.promote(k) for part in self.parts)

    def raised(self, n: int) -> tuple:
        """The two printed numerators over the larger denominator t^n."""
        return tuple(self._moved(self.parts_over(n), -1))

    def _aligned(self, other):
        """The stored parts of both values at the larger level."""
        n = max(self.level, other.level)
        return self.parts_over(n), other.parts_over(n)
