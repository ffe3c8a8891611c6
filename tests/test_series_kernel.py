"""Differential tests of the packed series product and the Newton inverse.

``TruncatedSeries.__mul__`` multiplies by Kronecker substitution and
``invert`` runs Newton iteration on that product.  Both are checked here
against the schoolbook oracles ``naive_mul`` and ``naive_inv`` in
``support``, at precisions far beyond the other suites, and on the inputs
where the packing is delicate: every slot width that goes through array
lanes (1 to 8 bytes) and wider ones, values at the edges of the 64-bit
lanes, precision 1, zero operands, one-term operands, coefficients of
thousands of digits and mixed signs.  The whole-window linear operations
are checked against coefficient-by-coefficient oracles at the end.
"""

import random
from fractions import Fraction

import pytest

from akizuki import (
    AkizukiRing,
    NotInvertibleError,
    PrimeField,
    RationalField,
    TruncatedSeries,
)
from akizuki.fields import PRIME_LIMIT
from support import field_value, naive_inv, naive_mul

QQ = RationalField()
PRIME_FIELDS = {
    "fp2": PrimeField(2),
    "fp101": PrimeField(101),
    "fp60bit": PrimeField(1000000000000000003),
}
SMALL_FIELDS = [QQ, PrimeField(2), PrimeField(101)]


def rand_coeffs(rng, field, n, bits=64, den_bits=64, dens=4):
    """n random coefficients; over q, numerators of up to ``bits`` bits with
    random signs over a pool of ``dens`` denominators of ``den_bits`` bits.
    A small pool keeps exact inverses, and the schoolbook oracle, fast; with
    about n unrelated denominators the packed product itself is slow (its
    common denominator grows with n; see ROADMAP item 2)."""
    if field != QQ:
        return [rng.randrange(field.p) for _ in range(n)]
    pool = [rng.getrandbits(den_bits) + 1 for _ in range(dens)]
    return [
        Fraction(rng.getrandbits(bits) * rng.choice((-1, 1)), rng.choice(pool))
        for _ in range(n)
    ]


def series(field, coeffs):
    return TruncatedSeries(field, tuple(coeffs))


def check_mul(field, a, b):
    n = len(a)
    product = series(field, a) * series(field, b)
    assert list(product.coeffs) == naive_mul(a, b, field, n)
    return product


def check_canonical(s):
    if s.field == QQ:
        assert all(type(c) is Fraction for c in s.coeffs)
    else:
        assert all(type(c) is int and 0 <= c < s.field.p for c in s.coeffs)


# ----------------------------------------------------------------------
# large windows


@pytest.mark.parametrize("name", PRIME_FIELDS)
def test_mul_and_invert_over_fp_at_1023(name):
    field, rng = PRIME_FIELDS[name], random.Random(name)
    a, b = rand_coeffs(rng, field, 1023), rand_coeffs(rng, field, 1023)
    a[0] = 1 + rng.randrange(field.p - 1)
    check_canonical(check_mul(field, a, b))
    inverse = series(field, a).invert()
    check_canonical(inverse)
    assert list(inverse.coeffs) == naive_inv(a, field, 1023)


def test_mul_over_q_at_511_with_large_denominators():
    rng = random.Random(511)
    a, b = rand_coeffs(rng, QQ, 511, bits=96), rand_coeffs(rng, QQ, 511, bits=96)
    check_canonical(check_mul(QQ, a, b))


def test_mul_over_q_with_unrelated_denominators():
    rng = random.Random(127)
    a, b = (rand_coeffs(rng, QQ, 127, bits=32, den_bits=32, dens=127) for _ in "ab")
    check_canonical(check_mul(QQ, a, b))


def test_invert_over_q_at_255_with_large_denominators():
    rng = random.Random(255)
    a = rand_coeffs(rng, QQ, 255, bits=8, den_bits=32, dens=3)
    a[0] = Fraction(-7, a[1].denominator)
    inverse = series(QQ, a).invert()
    check_canonical(inverse)
    assert list(inverse.coeffs) == naive_inv(a, QQ, 255)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 63, 64, 65, 100])
@pytest.mark.parametrize("field", SMALL_FIELDS, ids=str)
def test_invert_at_every_newton_boundary(field, n):
    rng = random.Random(n)
    a = rand_coeffs(rng, field, n, bits=8, den_bits=8)
    a[0] = field.one()
    assert list(series(field, a).invert().coeffs) == naive_inv(a, field, n)


# ----------------------------------------------------------------------
# slot widths and lane edges

# (p, N) pairs whose full-width products need slots of every width from 1 to
# 8 bytes (array lanes) and of 9 bytes and more (one int.to_bytes per value):
# a slot holds (p - 1)^2 N.  The last three fields have values of 2^31,
# 2^63 and 2^64 or more.
SLOT_CASES = [
    (2, 200),
    (2, 511),
    (101, 511),
    (251, 511),
    (65521, 127),
    (65521, 511),
    (16777213, 255),
    (134217689, 511),
    (4294967291, 1),
    (2**31 - 1, 31),
    (4294967291, 64),
    (18446744073709551557, 31),
    (3317044064679887385961813, 31),
]


@pytest.mark.parametrize("p, n", SLOT_CASES)
def test_mul_and_invert_at_every_slot_width(p, n, packs):
    field, rng = PrimeField(p), random.Random(p * n)
    a, b = rand_coeffs(rng, field, n), rand_coeffs(rng, field, n)
    a[0] = p - 1
    check_canonical(check_mul(field, a, b))
    check_mul(field, [p - 1] * n, [p - 1] * n)  # the largest coefficients
    inverse = series(field, a).invert()
    check_canonical(inverse)
    assert list(inverse.coeffs) == naive_inv(a, field, n)
    width = -(-((p - 1) ** 2 * n).bit_length() // 8)
    assert (width, False) in packs


def test_slot_cases_cover_every_width():
    assert PRIME_LIMIT - 168 == SLOT_CASES[-1][0]
    widths = {-(-((p - 1) ** 2 * n).bit_length() // 8) for p, n in SLOT_CASES}
    assert set(range(1, 10)) <= widths and max(widths) > 16


def test_mul_over_q_with_mixed_signs_at_every_width(packs):
    """Numerators of 1 to 40 bits with random signs, over one denominator
    and over several: signed slots of 1 to 11 bytes in long windows, and
    slots widened to their lanes in short ones."""
    rng = random.Random("signs")
    for n in (8, 80):
        for bits in range(1, 41, 1 if n == 8 else 2):
            for dens in (1, 3):
                a = rand_coeffs(rng, QQ, n, bits=bits, den_bits=5, dens=dens)
                b = rand_coeffs(rng, QQ, n, bits=bits, den_bits=5, dens=dens)
                check_canonical(check_mul(QQ, a, b))
    assert {size for size, signed in packs if signed} >= set(range(1, 10))


LANE_EDGES = [2**62, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64, 2**64 + 1]


@pytest.mark.parametrize("v", LANE_EDGES + [-v for v in LANE_EDGES])
def test_q_numerators_at_the_lane_limit(v, packs):
    """Numerators on both sides of +-2^63 and +-2^64, where the product
    moves from 8-byte lanes to one int.to_bytes per value."""
    third = Fraction(1, 3)
    cases = [
        ([v], [-1]),
        ([v], [1]),
        ([v // 2], [2]),
        ([v, -v, 1 - v], [0, 0, 0]),
        ([v, 5, -v], [1, -1, 2]),
        ([Fraction(v, 7), -third, third], [-third, Fraction(v, 5), 1]),
    ]
    for a, b in cases:
        check_canonical(check_mul(QQ, [Fraction(c) for c in a], [Fraction(c) for c in b]))
    assert ((8, True) in packs) == (abs(v) < 2**63)
    assert ((8, False) in packs) == (0 < v < 2**64)


# ----------------------------------------------------------------------
# edge cases


@pytest.mark.parametrize("field", SMALL_FIELDS + [PRIME_FIELDS["fp60bit"]], ids=str)
def test_precision_one(field):
    c = field_value(field, -3)
    s = series(field, [c])
    assert (s * s).coeffs == (field_value(field, c * c),)
    assert list(s.invert().coeffs) == naive_inv([c], field, 1)


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=str)
def test_zero_operands(field):
    rng = random.Random(0)
    zero = [field.zero()] * 40
    big = rand_coeffs(rng, field, 40, bits=4000, den_bits=4000)
    for a, b in ((zero, big), (big, zero), (zero, zero)):
        product = check_mul(field, a, b)
        assert product.is_zero()
        check_canonical(product)


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=str)
def test_one_term_operands(field):
    """The sparse w of the ring against dense and one-term data."""
    rng = random.Random(1)
    ring = AkizukiRing(field, 127)
    w = ring.w
    dense = rand_coeffs(rng, field, 127, bits=8)
    for sparse in (w, TruncatedSeries.t_power(field, 7, 127), -w):
        check_mul(field, list(sparse.coeffs), dense)
        check_mul(field, dense, list(sparse.coeffs))
        check_mul(field, list(sparse.coeffs), list(sparse.coeffs))


def test_coefficients_past_4300_digits():
    rng = random.Random(4300)
    a, b = (rand_coeffs(rng, QQ, 12, bits=16000, den_bits=16000, dens=2) for _ in "ab")
    a[0] = Fraction(10**5000 + 1, 3)  # about 4800 digits and more
    check_mul(QQ, a, b)
    assert list(series(QQ, a[:4]).invert().coeffs) == naive_inv(a[:4], QQ, 4)


@pytest.mark.parametrize("field", SMALL_FIELDS + [PRIME_FIELDS["fp60bit"]], ids=str)
def test_non_unit_has_no_inverse(field):
    a = [field.zero()] + [field.one()] * 9
    with pytest.raises(NotInvertibleError):
        series(field, a).invert()


# ----------------------------------------------------------------------
# whole-window linear operations


@pytest.mark.parametrize(
    "field", SMALL_FIELDS + [PrimeField(2147483647), PRIME_FIELDS["fp60bit"]], ids=str
)
def test_linear_ops_match_coefficientwise(field):
    """Sums, differences, negation and scalar multiples, each a kernel call,
    against coefficient-by-coefficient sums: on random operands, operands
    with every coefficient -1 (p - 1 over F_p, the largest value) and the
    zero series, by the scalars 0, 1, -1, -3, a fraction and a random one,
    at lengths on both sides of the short-window rule and up to 1023."""
    rng = random.Random(f"linear:{field}")
    zero, top = field_value(field, 0), field_value(field, -1)
    scalars = (zero, field_value(field, 1), top, field.parse("-5/7"), -3)
    for n in (1, 2, 31, 64, 65, 127, 511, 1023):
        a, b = (rand_coeffs(rng, field, n, bits=70) for _ in "ab")
        c = rand_coeffs(rng, field, 1)[0]
        tops, zeros = [top] * n, [zero] * n
        for x, y in ((a, b), (tops, tops), (tops, a), (a, tops), (a, zeros), (zeros, a), (zeros, zeros)):
            sx, sy = series(field, x), series(field, y)
            for got, want in (
                (sx + sy, [field_value(field, u + v) for u, v in zip(x, y)]),
                (sx - sy, [field_value(field, u - v) for u, v in zip(x, y)]),
                (-sx, [field_value(field, -u) for u in x]),
                (sx - sx, zeros),
                *((sx.scale(k), [field_value(field, k * u) for u in x]) for k in (c, *scalars)),
            ):
                assert list(got.coeffs) == want
                check_canonical(got)


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=str)
def test_from_coeffs_pads_with_zeros(field):
    s = TruncatedSeries.from_coeffs(field, [3, -1], 40)
    assert list(s.coeffs) == [field.from_int(3), field.from_int(-1)] + [field.zero()] * 38
    check_canonical(s)
