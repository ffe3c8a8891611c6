"""Differential tests of the packed series product and the Newton inverse.

``TruncatedSeries.__mul__`` multiplies by Kronecker substitution and
``invert`` runs Newton iteration on that product.  Both are checked here
against the schoolbook oracles ``naive_mul`` and ``naive_inv`` in
``support``, at precisions far beyond the other suites, and on the inputs
where the packing is delicate: precision 1, zero operands, one-term
operands, coefficients of thousands of digits and mixed signs.
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
from support import naive_inv, naive_mul

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
# edge cases


@pytest.mark.parametrize("field", SMALL_FIELDS + [PRIME_FIELDS["fp60bit"]], ids=str)
def test_precision_one(field):
    c = field.from_int(-3)
    s = series(field, [c])
    assert (s * s).coeffs == (field.mul(c, c),)
    assert s.invert().coeffs == (field.inv(c),)


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
    """The sparse w and t s_r of the ring against dense and one-term data."""
    rng = random.Random(1)
    ring = AkizukiRing(field, 127)
    w, u = ring.w, ring.t_partial_sum(127)
    dense = rand_coeffs(rng, field, 127, bits=8)
    for sparse in (w, u, TruncatedSeries.t_power(field, 7, 127), -w):
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
