"""Differential tests of the fused series kernel against the list oracles.

``series._window_mul`` returns the low coefficients of a whole sum of terms
+-a*b, +-a and +-a*c for a sparse c, with one unpack and one reduction per
result, as (values, lanes); the tests here read the values.  Normal-form
products and inverses, the duality maps, hom evaluation and the two
completion products all run on it.  Each is checked
here against the closed pair formulas on plain lists in ``support`` (the
``check_*`` helpers, with u = ŵ from ``support.closed_u``, which also
checks that t s_r = ŵ for every admissible r): at full width N = 511 over
fp:2, fp:101 and fp:2147483647 and N = 127 over q; below full width at
levels 1 to 3 (where ŵ has no term inside the window) and at level 20
(where several r are admissible); with zero operands, over a prime above
2^32 (slots of more than 8 bytes) and on the byte boundary
where one product fits a slot but a sum of two needs one more byte; random
sums, and a sparse factor that repeats one coefficient other than 1.  A spy
on the packed integers shows that sparse terms make no bignum product.  The
component check shared by the four two-series types is tested last.
"""

import random
from fractions import Fraction

import pytest

import akizuki.series
from akizuki import (
    AkizukiRing,
    CompletionElement,
    ContinuousHom,
    NormalForm,
    PrecisionError,
    PrimeField,
    RationalField,
    ResiduePair,
    TruncatedSeries,
)
from akizuki.series import Terms, _window_mul
from support import (
    RING_Q,
    admissible,
    check_completion,
    check_duality,
    check_hom,
    check_nf,
    closed_u,
    lin,
    lists,
    naive_mul,
    naive_sum,
    naive_w,
    rand_coeff,
    rand_dense,
    rand_series,
)

QQ = RationalField()
RINGS = {
    "fp2-511": AkizukiRing(PrimeField(2), 511),
    "fp101-511": AkizukiRing(PrimeField(101), 511),
    "m31-511": AkizukiRing(PrimeField(2147483647), 511),
    "q-127": AkizukiRing(QQ, 127),
}
# the least prime above 2^32: product slots are wider than 8 bytes
WIDE = AkizukiRing(PrimeField(4294967311), 64)


# ----------------------------------------------------------------------
# the layers


@pytest.mark.parametrize("name", RINGS)
def test_every_layer_at_full_width(name):
    ring = RINGS[name]
    field, top = ring.field, ring.precision
    rng = random.Random(f"fused:{name}")
    f = ring.nf(rand_dense(rng, field, top, unit=True), rand_dense(rng, field, top))
    g = ring.nf(rand_dense(rng, field, top), rand_dense(rng, field, top))
    check_nf(ring, f, g)
    pair = ResiduePair(ring, rand_dense(rng, field, top), rand_dense(rng, field, top, unit=True))
    hom = ContinuousHom(ring, rand_dense(rng, field, top), rand_dense(rng, field, top, unit=True))
    check_duality(ring, pair, ring.nf(rand_dense(rng, field, top), rand_dense(rng, field, top)), hom)
    check_hom(ring, hom, g)
    a = CompletionElement(ring, rand_dense(rng, field, top), rand_dense(rng, field, top))
    b = CompletionElement(ring, rand_dense(rng, field, top), rand_dense(rng, field, top))
    check_completion(ring, a, b)
    full = ring.nf(rand_dense(rng, field, top), rand_dense(rng, field, top))
    embedded = CompletionElement.embed(full)
    want = lin(field, (1, list(full.x.coeffs)), (2, naive_mul(list(full.y.coeffs), naive_w(ring, top), field, top)))
    assert lists(embedded.rho, embedded.sigma) == [want, list(full.y.coeffs)]


@pytest.mark.parametrize("name", ["fp101-511", "q-127"])
def test_every_admissible_reduction_index(name):
    """At level 20, r = 3 .. R are admissible; ``closed_u`` checks that
    t s_r = ŵ for each of them."""
    ring = RINGS[name]
    field, top = ring.field, ring.precision
    rng = random.Random(f"indices:{name}")
    m = 20
    assert len(admissible(ring, m)) >= 3
    f = ring.nf(rand_dense(rng, field, m, unit=True), rand_dense(rng, field, m))
    g = ring.nf(rand_dense(rng, field, m), rand_dense(rng, field, m))
    pair = ResiduePair(ring, rand_dense(rng, field, top), rand_dense(rng, field, top, unit=True))
    hom = ContinuousHom(ring, rand_dense(rng, field, m), rand_dense(rng, field, m, unit=True))
    check_nf(ring, f, g)
    check_duality(ring, pair, ring.nf(rand_dense(rng, field, m), rand_dense(rng, field, m)), hom)
    check_hom(ring, hom, g)


@pytest.mark.parametrize("name", ["fp101-511", "q-127"])
def test_levels_where_u_has_no_term_in_the_window(name):
    ring = RINGS[name]
    field, top = ring.field, ring.precision
    rng = random.Random(f"low:{name}")
    pair = ResiduePair(ring, rand_dense(rng, field, top), rand_dense(rng, field, top, unit=True))
    for m in (1, 2, 3):
        assert closed_u(ring, m) == [field.zero()] * m
        f = ring.nf(rand_dense(rng, field, m, unit=True), rand_dense(rng, field, m))
        g = ring.nf(rand_dense(rng, field, m), rand_dense(rng, field, m))
        hom = ContinuousHom(ring, rand_dense(rng, field, m), rand_dense(rng, field, m, unit=True))
        check_nf(ring, f, g)
        check_duality(ring, pair, ring.nf(rand_dense(rng, field, m), rand_dense(rng, field, m)), hom)
        check_hom(ring, hom, g)


@pytest.mark.parametrize("name", ["fp2-511", "q-127"])
def test_zero_operands(name):
    ring = RINGS[name]
    field, top = ring.field, ring.precision
    rng = random.Random(f"zero:{name}")
    zero = TruncatedSeries.zero(field, top)
    dense = rand_dense(rng, field, top, unit=True)
    for x1, y1, x2, y2 in ((zero, zero, dense, dense), (dense, zero, zero, dense), (zero,) * 4):
        check_nf(ring, ring.nf(x1, y1), ring.nf(x2, y2))
        check_completion(ring, CompletionElement(ring, x1, y1), CompletionElement(ring, x2, y2), composed=False)
    check_nf(ring, ring.nf(dense, zero), ring.nf(zero, zero))  # a unit times zero
    pair = ResiduePair(ring, zero, dense)
    hom = ContinuousHom(ring, zero, dense)
    check_duality(ring, pair, ring.nf(zero, zero), hom)
    check_duality(ring, pair, ring.nf(dense, zero), ContinuousHom(ring, dense, dense))
    check_hom(ring, ContinuousHom(ring, zero, zero), ring.nf(dense, dense))


# ----------------------------------------------------------------------
# slot widths


def test_prime_above_2_to_the_32_takes_the_per_value_path(packs):
    ring = WIDE
    field, top = ring.field, ring.precision
    rng = random.Random("wide")
    f = ring.nf(rand_dense(rng, field, top, unit=True), rand_dense(rng, field, top))
    g = ring.nf(rand_dense(rng, field, top), rand_dense(rng, field, top))
    check_nf(ring, f, g)
    pair = ResiduePair(ring, rand_dense(rng, field, top), rand_dense(rng, field, top, unit=True))
    hom = ContinuousHom(ring, rand_dense(rng, field, top), rand_dense(rng, field, top, unit=True))
    check_duality(ring, pair, ring.nf(rand_dense(rng, field, top), rand_dense(rng, field, top)), hom)
    a = CompletionElement(ring, rand_dense(rng, field, top), rand_dense(rng, field, top))
    check_completion(ring, a, a)
    assert max(size for size, _ in packs) > 8


def test_sum_of_two_products_needs_one_more_byte(packs):
    """With every coefficient p - 1 = 250 at N = 200 one product's
    coefficients reach 250^2 * 200 = 12.5e6 < 2^24 (3-byte slots), and a
    sum of two reaches 25e6 (4 bytes)."""
    field, n = PrimeField(251), 200
    full = [250] * n
    assert (250**2 * n).bit_length() == 24 and (2 * 250**2 * n).bit_length() == 25
    one, _ = _window_mul(field, n, ((1, full, full),))
    assert one == naive_mul(full, full, field, n) and packs == [(3, False)]
    packs.clear()
    two, _ = _window_mul(field, n, ((1, full, full), (1, full, full)))
    assert two == lin(field, (1, one), (1, one)) and packs == [(4, False)]
    packs.clear()
    diff, _ = _window_mul(field, n, ((1, full, full), (-1, full, full)))
    assert diff == [0] * n and packs == [(4, False)]
    # the same boundary through the dual-number product: b = a1 y2 + a2 y1
    ring = AkizukiRing(field, n)
    top = TruncatedSeries(field, tuple(full))
    packs.clear()
    check_nf(ring, ring.nf(top, top), ring.nf(top, top))
    assert (4, False) in packs
    check_completion(ring, CompletionElement(ring, top, top), CompletionElement(ring, top, top), composed=False)


# ----------------------------------------------------------------------
# the kernel on random sums of terms


def random_terms(rng, field, n):
    terms = []
    for _ in range(rng.randint(1, 4)):
        sign = rng.choice((1, -1))
        a = [rand_coeff(rng, field) for _ in range(rng.randint(1, n))]
        kind = rng.randrange(3)
        if kind == 0:
            terms.append((sign, a, None))
        elif kind == 1:
            terms.append((sign, a, [rand_coeff(rng, field) for _ in range(rng.randint(1, n))]))
        else:
            exps = sorted(rng.sample(range(2 * n), rng.randint(0, min(4, 2 * n))))
            terms.append((sign, a, Terms((e, rand_coeff(rng, field, nonzero=True)) for e in exps)))
    return terms


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(101), PrimeField(4294967311)], ids=str)
def test_random_sums_of_terms(field):
    rng = random.Random(f"sums:{field}")
    for case in range(150):
        n = rng.choice((1, 2, 3, 9, 40, 130))
        terms = random_terms(rng, field, n)
        got, _ = _window_mul(field, n, terms)
        assert got == naive_sum(field, n, terms), case
        if field == QQ:
            assert all(type(c) is Fraction for c in got)
        else:
            assert all(type(c) is int and 0 <= c < field.p for c in got)
    # one coefficient other than 1 (1 only over fp:2) at several exponents,
    # on both sides of the short-window limit (_SHORT_BYTES)
    c = field.parse("-5/3")
    for n in (40, 300):
        repeated = Terms((e, c) for e in (0, 1, 7, n - 1, n + 3))
        a, b = ([rand_coeff(rng, field) for _ in range(n)] for _ in "ab")
        terms = [(1, a, repeated), (-1, b, repeated), (1, b, None)]
        got, _ = _window_mul(field, n, terms)
        assert got == naive_sum(field, n, terms), n


def test_q_sums_with_mixed_denominators_and_signs():
    """Terms over unrelated denominators scale to one common denominator;
    negative numerators and subtracted terms give signed slots."""
    rng = random.Random("q-mixed")
    n = 127
    halves = [Fraction(-rng.randint(1, 2**40), 2) for _ in range(n)]
    sevenths = [Fraction(rng.randint(-2**40, 2**40), 7) for _ in range(n)]
    thirds = [Fraction(rng.randint(-9, 9), 3) for _ in range(n)]
    sparse = Terms([(0, Fraction(-5, 11)), (3, Fraction(1, 13)), (100, Fraction(2))])
    terms = [(1, halves, sevenths), (-1, thirds, halves), (1, sevenths, None), (-1, thirds, sparse)]
    assert _window_mul(QQ, n, terms)[0] == naive_sum(QQ, n, terms)


# ----------------------------------------------------------------------
# sparse terms make no bignum product


class Packed(int):
    """A packed operand that counts products with another big integer."""

    products = []

    def _wrap(self, value):
        return Packed(value)

    def __mul__(self, other):
        if isinstance(other, int) and other.bit_length() > 64 and self.bit_length() > 64:
            Packed.products.append((self.bit_length(), other.bit_length()))
        return Packed(int(self) * int(other))

    __rmul__ = __mul__

    def __lshift__(self, k):
        return Packed(int(self) << k)

    def __add__(self, other):
        return Packed(int(self) + int(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Packed(int(self) - int(other))

    def __rsub__(self, other):
        return Packed(int(other) - int(self))


@pytest.fixture
def big_products(monkeypatch):
    pack = akizuki.series._pack
    monkeypatch.setattr(akizuki.series, "_pack", lambda *args: Packed(pack(*args)))
    Packed.products = []
    return Packed.products


@pytest.mark.parametrize("field", [PrimeField(101), QQ], ids=str)
def test_sparse_terms_make_no_bignum_product(field, big_products):
    ring = AkizukiRing(field, 511)
    rng = random.Random(f"spy:{field}")
    x, y = (rand_dense(rng, field, 511) for _ in "xy")
    u = ring.w_terms
    neg_u = Terms((e, field.parse(f"-{c}")) for e, c in u)
    assert len(u) == 7
    terms = ((1, x.coeffs, None), (-1, y.coeffs, u), (-1, x.coeffs, neg_u))
    sparse, _ = _window_mul(field, 511, terms)
    assert big_products == []
    dense, _ = _window_mul(field, 511, ((1, x.coeffs, y.coeffs),))
    assert len(big_products) == 1
    assert sparse == naive_sum(field, 511, terms) and dense == naive_mul(x.coeffs, y.coeffs, field, 511)
    # the two constructors and the closed completion product: two sparse
    # conversions, then two kernel calls with three bignum products
    big_products.clear()
    CompletionElement(ring, x, y) * CompletionElement(ring, y, x)
    assert len(big_products) == 3


# ----------------------------------------------------------------------
# the component check of the two-series types


@pytest.mark.parametrize(
    "kind",
    [NormalForm, ResiduePair, ContinuousHom, CompletionElement],
    ids=lambda kind: kind.__name__,
)
def test_component_check_names_type_and_precisions(kind):
    rng = random.Random(kind.__name__)
    field = RING_Q.field
    # unequal precisions, and both above the working precision 31
    for m, n in ((3, 4), (32, 32)):
        first, second = rand_series(rng, field, m), rand_series(rng, field, n)
        with pytest.raises(PrecisionError, match=rf"^{kind.__name__} .* {m} and {n} "):
            kind(RING_Q, first, second)
    foreign = rand_series(rng, PrimeField(2), 31)
    with pytest.raises(PrecisionError, match=rf"^{kind.__name__} .*fields"):
        kind(RING_Q, foreign, rand_series(rng, field, 31))
