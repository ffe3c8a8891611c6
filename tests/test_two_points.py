"""Differential tests of the kernel's products at two points.

A sum with a dense product whose packed window reaches
``series._TWO_POINT_BYTES`` evaluates each packed operand at 2^b and -2^b,
for b half a slot: its even-indexed and odd-indexed values E and O give
E + 2^b O and E - 2^b O, every term is formed at both points, and half the
sum and the difference of the two sums, the latter shifted down by b, are
the even-indexed and the odd-indexed coefficients in whole slots.  Here the
crossover is forced to 1, so that every call with a dense product takes two
points, and to infinity, so that none does, with the short-window rule off
(no window it widens reaches the crossover): ``_window_mul`` must return
the same values and the same lanes both ways, on every term shape, over Q
and over primes from 2 to the largest one the prime test admits, at odd and
even window lengths.  The short lengths are also checked against the list
oracle of ``support``.
"""

import math
import random

import pytest

import akizuki.series
from akizuki import PrimeField, RationalField, TruncatedSeries
from akizuki.fields import PRIME_LIMIT
from akizuki.series import Terms, _window_mul
from support import naive_sum, rand_coeff, rand_dense

QQ = RationalField()
FIELDS = [
    QQ,
    PrimeField(2),
    PrimeField(101),
    PrimeField(2**31 - 1),  # 4-byte lanes, slots wider than 8 bytes
    PrimeField(4294967311),  # 5-byte lanes
    PrimeField(PRIME_LIMIT - 168),  # the largest prime below PRIME_LIMIT
]
LENGTHS = [1, 2, 3, 8, 31, 64, 127, 300]


def sparse(rng, field, n, exponents):
    """A ``Terms`` at the distinct exponents given, coefficients nonzero and
    mostly not 1."""
    return Terms((e, rand_coeff(rng, field, nonzero=True)) for e in sorted(set(exponents)))


def term_shapes(rng, field, n):
    """(name, terms) for every term shape the kernel takes: a and b series
    with their lanes set where the field has them, c a plain list, short a
    list of fewer than n values, as Newton passes."""
    a, b = rand_dense(rng, field, n), rand_dense(rng, field, n)
    a * b  # sets the lanes of both over F_p, past the short windows
    c = list(rand_dense(rng, field, n).coeffs)
    short = list(rand_dense(rng, field, n // 2 + 1).coeffs)
    top = TruncatedSeries(field, (field.from_int(-1),) * n)  # p - 1 over F_p
    odd = sparse(rng, field, n, [1, 3, n // 2 | 1])
    even = sparse(rng, field, n, [0, 2, n // 2 & ~1])
    mixed = sparse(rng, field, n, [0, 1, n - 1, n + 2])  # n + 2 falls off
    yield "product", [(1, a, b)]
    yield "square", [(1, a, a)]
    yield "square of the largest values", [(1, top, top)]
    yield "negated product", [(-1, a, c)]
    yield "operands shorter than n", [(1, short, a), (-1, short, short)]
    yield "products and plain terms", [(1, a, b), (1, c, None), (-1, b, None)]
    yield "negated plain term", [(-1, top, None), (1, top, top)]
    yield "odd sparse exponents", [(1, a, b), (1, c, odd), (-1, top, odd)]
    yield "even sparse exponents", [(-1, a, b), (1, b, even), (-1, c, even)]
    yield "sparse at both ends", [(-1, top, top), (-1, a, mixed), (1, c, mixed), (-1, b)]


def both_ways(monkeypatch, field, n, terms):
    """``_window_mul`` with the crossover forced to 1, then to infinity, and
    no window widened by the short rule."""
    monkeypatch.setattr(akizuki.series, "_SHORT_BYTES", 0)
    out = []
    for crossover in (1, math.inf):
        monkeypatch.setattr(akizuki.series, "_TWO_POINT_BYTES", crossover)
        out.append(_window_mul(field, n, [(sign, a, *b) if b else (sign, a, None) for sign, a, *b in terms]))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_two_points_and_one_agree(field, monkeypatch):
    rng = random.Random(f"two-points:{field}")
    for n in LENGTHS:
        for name, terms in term_shapes(rng, field, n):
            two, one = both_ways(monkeypatch, field, n, terms)
            assert two == one, (name, n)
            if n <= 64:
                assert one[0] == naive_sum(field, n, terms), (name, n)


@pytest.mark.parametrize("field", [QQ, PrimeField(101), PrimeField(2**31 - 1)], ids=str)
def test_two_points_pack_each_operand_twice(field, monkeypatch, packs):
    """Forced to 1, the crossover sends a product of two operands through
    four packs and a square through two; a sum with no dense product, such
    as a sparse basis conversion, keeps one point."""
    rng = random.Random(f"two-point packs:{field}")
    n = 31
    a, b = rand_dense(rng, field, n), rand_dense(rng, field, n)
    monkeypatch.setattr(akizuki.series, "_TWO_POINT_BYTES", 1)
    monkeypatch.setattr(akizuki.series, "_SHORT_BYTES", 0)
    for terms, count in (
        ([(1, a, b)], 4),
        ([(1, a, a)], 2),
        ([(1, a, None), (-1, b, sparse(rng, field, n, [0, 1, 5]))], 2),
    ):
        packs.clear()
        _window_mul(field, n, terms)
        assert len(packs) == count, terms


def test_the_crossover_is_a_size_in_packed_bytes(packs):
    """At the default crossover over F_101, 3-byte product slots take two
    points from n = ceil(_TWO_POINT_BYTES / 3) on, and not one coefficient
    before."""
    field, rng = PrimeField(101), random.Random("two-point crossover")
    edge = -(-akizuki.series._TWO_POINT_BYTES // 3)
    assert (100**2 * edge).bit_length() <= 24
    for n, count in ((edge - 1, 2), (edge, 4)):
        a, b = rand_dense(rng, field, n), rand_dense(rng, field, n)
        packs.clear()
        assert list((a * b).coeffs) == naive_sum(field, n, [(1, a, b)])
        assert packs == [(3, False)] * count, n
