"""The Q path and the F_p path of the series kernel check each other.

Reduction mod p, n/d -> n d^-1 for d prime to p, is a ring map onto F_p, so
every series and normal-form operation commutes with it.  Past the short
windows the two fields share only the top of ``series._window_mul``: over
Q, ``Fraction`` windows over one common denominator in signed slots, and
Newton from f_0; over F_p, operands packed from byte lanes, the sum
reduced mod p on the packed integer, and inversion started from the
schoolbook recurrence.  So each result over Q, reduced, must equal the
result over F_p of the reduced operands, at window lengths (1024 and 2048)
where no list oracle runs.  Inverses stay at N <= 511, where the Q
coefficients stay small.
"""

import random
from fractions import Fraction

import pytest

from akizuki import AkizukiRing, PrimeField, RationalField, TruncatedSeries
from support import reduce_mod_p

QQ = RationalField()
PRIMES = [2, 101, 2**61 - 1, 4294967311]
DENOMINATORS = (1, 3, 5, 7)  # prime to every p above


def rand_q(rng, n, bound, unit=False):
    """n rationals with numerators in -bound..bound over DENOMINATORS, the
    first a unit mod every p when ``unit``."""
    coeffs = [Fraction(rng.randint(-bound, bound), rng.choice(DENOMINATORS)) for _ in range(n)]
    if unit:
        coeffs[0] = Fraction(rng.choice((1, -1)), rng.choice(DENOMINATORS))
    return TruncatedSeries(QQ, tuple(coeffs))


def reduced(s, field):
    return TruncatedSeries(field, tuple(reduce_mod_p(s.coeffs, field.p)))


@pytest.fixture(scope="module")
def long_operands():
    """Two random series at each of N = 1024 and 2048, and a scalar."""
    rng = random.Random("reduction:long")
    return [(rand_q(rng, n, 10**6), rand_q(rng, n, 10**6)) for n in (1024, 2048)], Fraction(-22, 7)


@pytest.mark.parametrize("p", PRIMES)
def test_sums_scaling_and_products_commute_with_reduction(p, long_operands):
    """+, -, unary -, scale and * on random operands and on operands with
    every coefficient p - 1."""
    field = PrimeField(p)
    windows, c = long_operands
    for a, b in windows:
        top = TruncatedSeries(QQ, (Fraction(p - 1),) * a.precision)
        for x, y in ((a, b), (top, a), (b, top), (top, top)):
            fx, fy = reduced(x, field), reduced(y, field)
            for over_q, over_p in (
                (x + y, fx + fy),
                (x - y, fx - fy),
                (-x, -fx),
                (x.scale(c), fx.scale(reduce_mod_p([c], p)[0])),
                (x * y, fx * fy),
            ):
                assert reduced(over_q, field) == over_p, x.precision


@pytest.fixture(scope="module")
def short_results():
    """Over Q at N = 127 and 511: a series unit with its inverse, and two
    normal forms f, g (g a unit) with f g and g^-1."""
    rng = random.Random("reduction:short")
    out = []
    for n in (127, 511):
        ring = AkizukiRing(QQ, n)
        unit = rand_q(rng, n, 9, unit=True)
        f = ring.nf(rand_q(rng, n, 9), rand_q(rng, n, 9))
        g = ring.nf(rand_q(rng, n, 9, unit=True), rand_q(rng, n, 9))
        out.append((unit, unit.invert(), f, g, f * g, g.invert()))
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_inverses_and_normal_forms_commute_with_reduction(p, short_results):
    """Series invert, nf mul and nf invert at N = 127 and 511, over the
    ring with the same exponents and units."""
    field = PrimeField(p)
    for unit, inverse, f, g, product, g_inverse in short_results:
        ring = AkizukiRing(field, unit.precision)
        assert reduced(inverse, field) == reduced(unit, field).invert()
        ff, fg = (ring.nf(reduced(h.x, field), reduced(h.y, field)) for h in (f, g))
        for over_q, over_p in ((product, ff * fg), (g_inverse, fg.invert())):
            assert (reduced(over_q.x, field), reduced(over_q.y, field)) == (over_p.x, over_p.y)
