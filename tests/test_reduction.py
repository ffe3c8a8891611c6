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
coefficients stay small: the product composed through a dense unit runs at
N = 127 and the expression evaluator at levels 127 and 511, while the class
action and the product composed through the standard unit run at N = 1024.
Their operands are built over F_p from the reduced printed series, not
from reads of the Q values, so a conversion between the bases that errs
over Q both ways still shows.

The pair types subtract ŵ times a series as a sparse ``Terms`` term, by
the same rule as a dense one: M - P over F_p, signed slots over Q.  Their
rings take positive units that are units mod every p below and reduce to
neither 1 nor p - 1 for most p, and their operands include series with no
negative coefficient, so over Q only that subtraction makes a slot
negative.
"""

import random
from fractions import Fraction

import pytest

from akizuki import (
    AkizukiRing,
    CohomologyClass,
    CompletionElement,
    ContinuousHom,
    PrimeField,
    RationalField,
    ResiduePair,
    TruncatedSeries,
    eval_nf,
    parse_expression,
)
import akizuki.series
from support import reduce_mod_p

QQ = RationalField()
LIBRARY_CROSSOVER = akizuki.series._TWO_POINT_BYTES
PRIMES = [2, 101, 2**61 - 1, 4294967311]
DENOMINATORS = (1, 3, 5, 7)  # prime to every p above
UNITS = (1, Fraction(1, 3), 5, Fraction(7, 3), 3, Fraction(1, 7), Fraction(5, 3), 7, Fraction(3, 5), Fraction(1, 5))


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


def product_slot(p, n):
    """Bytes per slot of a product of two full windows of length n over F_p
    (the kernel bounds every value by p - 1)."""
    return -(-((p - 1) ** 2 * n).bit_length() // 8)


def crossover_windows(p):
    """The window lengths just below, at and just above the first whose
    product over F_p takes two points."""
    n = 1
    while n * product_slot(p, n) < akizuki.series._TWO_POINT_BYTES:
        n += 1
    return n - 1, n, n + 1


# (p, crossover): product slots of 2, 3, 4, 9 and 16 bytes at the library's
# crossover, and of 1 byte, which no window of it reaches, at a lowered one.
CROSSOVER_CASES = [(2, 128), (2, None), (101, None), (1021, None), (4294967311, None), (2**61 - 1, None)]


@pytest.mark.parametrize("p, crossover", CROSSOVER_CASES)
def test_products_at_the_two_point_crossover_commute_with_reduction(p, crossover, monkeypatch):
    """Products and squares of random operands and of operands with every
    coefficient p - 1, over odd and even windows on both sides of the
    crossover."""
    if crossover:  # below the short-window limit, which then must not widen the window
        monkeypatch.setattr(akizuki.series, "_TWO_POINT_BYTES", crossover)
        monkeypatch.setattr(akizuki.series, "_SHORT_BYTES", 0)
    field, rng = PrimeField(p), random.Random(f"reduction:crossover:{p}:{crossover}")
    for n in crossover_windows(p):
        x, y = rand_q(rng, n, 10**3), rand_q(rng, n, 10**3)
        top = TruncatedSeries(QQ, (Fraction(p - 1),) * n)
        fx, fy, ftop = (reduced(a, field) for a in (x, y, top))
        for over_q, over_p in ((x * y, fx * fy), (x * x, fx * fx), (top * top, ftop * ftop), (x * top, fx * ftop)):
            assert reduced(over_q, field) == over_p, n


def test_crossover_cases_cover_every_slot_width(monkeypatch):
    widths = set()
    for p, crossover in CROSSOVER_CASES:
        monkeypatch.setattr(akizuki.series, "_TWO_POINT_BYTES", crossover or LIBRARY_CROSSOVER)
        below, at, above = crossover_windows(p)
        assert below * product_slot(p, below) < akizuki.series._TWO_POINT_BYTES <= at * product_slot(p, at)
        widths.add(product_slot(p, at))
    assert widths == {1, 2, 3, 4, 9, 16}


@pytest.fixture(scope="module")
def long_products():
    """Over Q: at N = 4095 two series x, y with x y and x^2, and at N = 8192
    two series with their product."""
    rng = random.Random("reduction:8192")
    x, y = rand_q(rng, 4095, 99), rand_q(rng, 4095, 99)
    u, v = rand_q(rng, 8192, 99), rand_q(rng, 8192, 99)
    return [(x, y, x * y), (x, x, x * x), (u, v, u * v)]


@pytest.mark.parametrize("p", PRIMES)
def test_products_up_to_8192_commute_with_reduction(p, long_products):
    field = PrimeField(p)
    for x, y, over_q in long_products:
        fx = reduced(x, field)
        fy = fx if y is x else reduced(y, field)
        assert reduced(over_q, field) == fx * fy, x.precision


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


def ring_over(field, n):
    """The minimal ring at N = n with the units UNITS, reduced over F_p."""
    return AkizukiRing(field, n, units=UNITS if field is QQ else reduce_mod_p(UNITS, field.p))


def pair_reads(ring, s, r, omega):
    """What the three pair types give on the series s, r and the class
    omega, as lists of series: each constructor's stored parts and printed
    reads, the residue, ``forward`` and the closed completion product.  A
    hom or tail is read over t^N, where its level cannot differ mod p."""
    n = ring.precision
    pair, hom, comp = ResiduePair(ring, s, r), ContinuousHom(ring, s, r), CompletionElement(ring, s, r)
    product = comp * CompletionElement(ring, r, s)
    return [
        [*pair.parts, pair.sigma, pair.rho],
        [*hom.parts_over(n), *hom.raised(n)],
        [*comp.parts, comp.rho, comp.sigma],
        [pair.residue(omega).numerator(n)],
        list(pair.forward(omega).parts_over(n)),
        [*product.parts, product.rho, product.sigma],
    ]


@pytest.fixture(scope="module")
def pair_operands():
    """Over Q at N = 1024: random series s, r, their magnitudes, and the
    printed numerators of a class of level N, with the reads of
    ``pair_reads`` on both operand pairs."""
    rng = random.Random("reduction:pairs")
    n = 1024
    ring = ring_over(QQ, n)
    s, r = rand_q(rng, n, 10**6), rand_q(rng, n, 10**6)
    plain = [TruncatedSeries(QQ, tuple(map(abs, x.coeffs))) for x in (s, r)]
    numerators = rand_q(rng, n, 9), rand_q(rng, n, 9)
    omega = CohomologyClass(ring, *numerators)
    return [(x, y, numerators, pair_reads(ring, x, y, omega)) for x, y in ((s, r), plain)]


@pytest.mark.parametrize("p", PRIMES)
def test_pair_types_commute_with_reduction(p, pair_operands):
    """Constructors and printed reads of ResiduePair, ContinuousHom and
    CompletionElement, the residue, forward and the closed completion
    product at N = 1024.  The class over F_p is built from the reduced
    printed numerators, so no Q value read through the basis conversion
    enters the F_p side."""
    field = PrimeField(p)
    ring = ring_over(field, 1024)
    for s, r, numerators, over_q in pair_operands:
        fomega = CohomologyClass(ring, *(reduced(x, field) for x in numerators))
        over_p = pair_reads(ring, reduced(s, field), reduced(r, field), fomega)
        assert [[reduced(x, field) for x in row] for row in over_q] == over_p


@pytest.fixture(scope="module")
def pair_inverses():
    """Over Q at N = 127 and 511: a pair with rho a unit, a hom of level N,
    and the class the pair's inverse sends it to."""
    rng = random.Random("reduction:inverse")
    out = []
    for n in (127, 511):
        ring = ring_over(QQ, n)
        pair = ResiduePair(ring, rand_q(rng, n, 9), rand_q(rng, n, 9, unit=True))
        hom = ContinuousHom(ring, rand_q(rng, n, 9), rand_q(rng, n, 9))
        out.append((pair, hom, pair.inverse(hom)))
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_pair_inverse_commutes_with_reduction(p, pair_inverses):
    """``ResiduePair.inverse`` at N = 127 and 511: the class's stored parts
    and printed numerators over t^N."""
    field = PrimeField(p)
    for pair, hom, omega in pair_inverses:
        n = pair.precision
        ring = ring_over(field, n)
        fpair = ResiduePair(ring, reduced(pair.sigma, field), reduced(pair.rho, field))
        fhom = ContinuousHom(ring, *(reduced(x, field) for x in hom.raised(n)))
        got = fpair.inverse(fhom)
        for over_q, over_p in zip((*omega.parts_over(n), *omega.raised(n)), (*got.parts_over(n), *got.raised(n))):
            assert reduced(over_q, field) == over_p, n


@pytest.fixture(scope="module")
def action_and_composed():
    """Over Q at N = 1024: the printed series of a class omega, a normal
    form f and two completion elements a, b; the class f acts omega to, and
    the product of a and b composed through the standard unit comp(1; 0)."""
    rng = random.Random("reduction:act")
    n = 1024
    ring = ring_over(QQ, n)
    s = [rand_q(rng, n, 10**6) for _ in range(8)]
    omega, f = CohomologyClass(ring, *s[:2]), ring.nf(*s[2:4])
    a, b = CompletionElement(ring, *s[4:6]), CompletionElement(ring, *s[6:])
    return s, omega.act(f), a.mul_via_composition(b, CompletionElement.one(ring))


@pytest.mark.parametrize("p", PRIMES)
def test_action_and_composed_product_commute_with_reduction(p, action_and_composed):
    """``CohomologyClass.act`` and the composed completion product with the
    standard unit at N = 1024: stored parts and printed series, from
    operands built over F_p from the reduced printed series."""
    field, n = PrimeField(p), 1024
    series, acted, composed = action_and_composed
    ring = ring_over(field, n)
    s = [reduced(x, field) for x in series]
    got = CohomologyClass(ring, *s[:2]).act(ring.nf(*s[2:4]))
    for over_q, over_p in zip((*acted.parts_over(n), *acted.raised(n)), (*got.parts_over(n), *got.raised(n))):
        assert reduced(over_q, field) == over_p
    got = CompletionElement(ring, *s[4:6]).mul_via_composition(CompletionElement(ring, *s[6:]), CompletionElement.one(ring))
    assert [reduced(x, field) for x in (*composed.parts, composed.rho, composed.sigma)] == [*got.parts, got.rho, got.sigma]


EXPRESSION = "(1 + t*w)^5 / (1 - t/3 + w*g1) - g0^2"


@pytest.fixture(scope="module")
def short_composed_and_expression():
    """Over Q: at N = 127 the printed series of two completion elements
    and a dense unit, and the product composed through it; at levels 127
    and 511 the normal form of EXPRESSION."""
    rng = random.Random("reduction:composed")
    ring = ring_over(QQ, 127)
    s = [rand_q(rng, 127, 9, unit=i == 4) for i in range(6)]
    a, b, unit = (CompletionElement(ring, *s[i : i + 2]) for i in (0, 2, 4))
    tree = parse_expression(EXPRESSION)
    forms = [eval_nf(tree, ring_over(QQ, 511), level) for level in (127, 511)]
    return s, a.mul_via_composition(b, unit), forms


@pytest.mark.parametrize("p", PRIMES)
def test_composed_product_and_expression_commute_with_reduction(p, short_composed_and_expression):
    """The composed completion product relative to a dense unit at N = 127,
    and ``eval_nf`` of EXPRESSION at levels 127 and 511."""
    field = PrimeField(p)
    series, composed, forms = short_composed_and_expression
    ring = ring_over(field, 127)
    s = [reduced(x, field) for x in series]
    fa, fb, funit = (CompletionElement(ring, *s[i : i + 2]) for i in (0, 2, 4))
    got = fa.mul_via_composition(fb, funit)
    assert [reduced(x, field) for x in (*composed.parts, composed.rho, composed.sigma)] == [*got.parts, got.rho, got.sigma]
    tree, ring = parse_expression(EXPRESSION), ring_over(field, 511)
    for form in forms:
        got = eval_nf(tree, ring, form.level)
        assert (reduced(form.x, field), reduced(form.y, field)) == (got.x, got.y), form.level
