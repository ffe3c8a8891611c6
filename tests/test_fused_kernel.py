"""Differential tests of the fused series kernel against the list oracles.

``series._window_mul`` returns the low coefficients of a whole sum of terms
+-a*b, +-a and +-a*c for a sparse c, with one unpack and one reduction per
result.  The dual-number helpers, the duality maps, hom evaluation and the
two completion products make one kernel call per series.  Each is checked
here against the closed formulas on plain lists in ``support``: at N = 511
over fp:2, fp:101 and fp:2147483647 and at N = 127 over q, with u = t s_r
for every admissible r in the closed formulas, at levels 1 to 3 (where u
has no term inside the window), with zero operands, over a prime above
2^32 (slots of more than 8 bytes) and on the byte boundary where one
product fits a slot but a sum of two needs one more byte.  A spy on the
packed integers shows that sparse terms make no bignum product.
"""

import random
from fractions import Fraction

import pytest

import akizuki.series
from akizuki import (
    AkizukiRing,
    CohomologyClass,
    CompletionElement,
    ContinuousHom,
    PrimeField,
    RationalField,
    ResiduePair,
    TruncatedSeries,
)
from akizuki.series import Terms, _window_mul, dual_invert, dual_mul
from support import (
    admissible,
    field_value,
    naive_comp_mul,
    naive_duality_inverse,
    naive_forward,
    naive_mul,
    naive_nf_inv,
    naive_nf_mul,
    naive_u,
    naive_w,
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


def coeff(rng, field, nonzero=False):
    """A field value; over q, numerators of either sign over one of several
    unrelated small denominators."""
    if field.characteristic == 0:
        value = Fraction(rng.randint(-99, 99), rng.choice((1, 2, 3, 7, 11, 13)))
        return value or Fraction(1) if nonzero else value
    p = field.characteristic
    return rng.randrange(1, p) if nonzero else rng.randrange(p)


def series(rng, field, n, unit=False):
    coeffs = [coeff(rng, field) for _ in range(n)]
    if unit:
        coeffs[0] = coeff(rng, field, nonzero=True)
    return TruncatedSeries(field, tuple(coeffs))


def lists(*values):
    return [list(s.coeffs) for s in values]


def raised(field, coeffs, n):
    """A numerator list over t^m rewritten over t^n."""
    return [field.zero()] * (n - len(coeffs)) + list(coeffs)


def tail_list(tail, n):
    """The principal part as the numerator list over t^n."""
    return list(tail.numerator(n).coeffs)


def lin(field, *terms):
    """sum of sign * a over (sign, a) pairs of plain lists."""
    out = [0] * len(terms[0][1])
    for sign, a in terms:
        out = [o + sign * v for o, v in zip(out, a)]
    return [field_value(field, v) for v in out]


# ----------------------------------------------------------------------
# the layers at full width


def check_nf(ring, f, g, r):
    field, m = ring.field, f.level
    u = naive_u(ring, m, ring.top_index if r is None else r)
    got = f * g
    assert lists(got.x, got.y) == list(naive_nf_mul(*lists(f.x, f.y, g.x, g.y), u, field))
    assert lists(*dual_mul(f.x, f.y, g.x, g.y, ring.w_terms)) == lists(got.x, got.y)
    if f.is_unit():
        inv = f.invert()
        assert lists(inv.x, inv.y) == list(naive_nf_inv(*lists(f.x, f.y), u, field))
        assert lists(*dual_invert(f.x, f.y, ring.w_terms)) == lists(inv.x, inv.y)


def check_duality(ring, pair, omega_nf, hom, r):
    field, n = ring.field, omega_nf.level
    omega = CohomologyClass.make(omega_nf, n)
    sig, rho = lists(pair.sigma.truncate(n), pair.rho.truncate(n))
    x, y = lists(omega_nf.x, omega_nf.y)
    alpha, beta = raised(field, hom.alpha.coeffs, n), raised(field, hom.beta.coeffs, n)
    u = naive_u(ring, n, ring.top_index if r is None else r)
    want = lin(field, (1, naive_mul(x, sig, field, n)), (1, naive_mul(y, rho, field, n)))
    assert tail_list(pair.residue(omega), n) == want
    fwd = pair.forward(omega)
    assert [raised(field, c, n) for c in lists(fwd.alpha, fwd.beta)] == list(
        naive_forward(x, y, sig, rho, u, field)
    )
    if pair.is_invertible() and hom.level == n:
        back = pair.inverse(hom).numerator
        assert [raised(field, c, n) for c in lists(back.x, back.y)] == list(
            naive_duality_inverse(alpha, beta, sig, rho, u, field)
        )


def check_hom(ring, hom, f):
    field, n = ring.field, hom.level
    g = f.truncate(n)
    alpha, beta = lists(hom.alpha, hom.beta)
    x, y = lists(g.x, g.y)
    want = lin(field, (1, naive_mul(x, alpha, field, n)), (1, naive_mul(y, beta, field, n)))
    assert tail_list(hom(f), n) == want


def check_completion(ring, a, b, composed=True):
    want = naive_comp_mul(*lists(a.rho, a.sigma, b.rho, b.sigma), naive_w(ring, ring.precision), ring.field)
    got = a * b
    assert lists(got.rho, got.sigma) == list(want)
    if composed:
        other = a.mul_via_composition(b, CompletionElement.one(ring))
        assert lists(other.rho, other.sigma) == list(want)


@pytest.mark.parametrize("name", RINGS)
def test_every_layer_at_full_width(name):
    ring = RINGS[name]
    field, top = ring.field, ring.precision
    rng = random.Random(f"fused:{name}")
    f = ring.nf(series(rng, field, top, unit=True), series(rng, field, top))
    g = ring.nf(series(rng, field, top), series(rng, field, top))
    check_nf(ring, f, g, None)
    pair = ResiduePair(ring, series(rng, field, top), series(rng, field, top, unit=True))
    hom = ContinuousHom(ring, series(rng, field, top), series(rng, field, top, unit=True))
    check_duality(ring, pair, ring.nf(series(rng, field, top), series(rng, field, top)), hom, None)
    check_hom(ring, hom, g)
    a = CompletionElement(ring, series(rng, field, top), series(rng, field, top))
    b = CompletionElement(ring, series(rng, field, top), series(rng, field, top))
    check_completion(ring, a, b)
    full = ring.nf(series(rng, field, top), series(rng, field, top))
    embedded = CompletionElement.embed(full)
    want = lin(field, (1, list(full.x.coeffs)), (1, naive_mul(list(full.y.coeffs), naive_w(ring, top), field, top)))
    assert list(embedded.rho.coeffs) == want and embedded.sigma.is_zero()


@pytest.mark.parametrize("name", ["fp101-511", "q-127"])
def test_every_admissible_reduction_index(name):
    ring = RINGS[name]
    field = ring.field
    rng = random.Random(f"indices:{name}")
    m = 20  # admits r = 3 .. R
    assert len(admissible(ring, m)) >= 3
    f = ring.nf(series(rng, field, m, unit=True), series(rng, field, m))
    g = ring.nf(series(rng, field, m), series(rng, field, m))
    pair = ResiduePair(ring, series(rng, field, ring.precision), series(rng, field, ring.precision, unit=True))
    omega_nf = ring.nf(series(rng, field, m), series(rng, field, m))
    hom = ContinuousHom(ring, series(rng, field, m), series(rng, field, m, unit=True))
    for r in admissible(ring, m):
        check_nf(ring, f, g, r)
        check_duality(ring, pair, omega_nf, hom, r)


@pytest.mark.parametrize("name", ["fp101-511", "q-127"])
def test_levels_where_u_has_no_term_in_the_window(name):
    ring = RINGS[name]
    field = ring.field
    rng = random.Random(f"low:{name}")
    pair = ResiduePair(ring, series(rng, field, ring.precision), series(rng, field, ring.precision, unit=True))
    for m in (1, 2, 3):
        assert naive_w(ring, m) == [field.zero()] * m
        f = ring.nf(series(rng, field, m, unit=True), series(rng, field, m))
        g = ring.nf(series(rng, field, m), series(rng, field, m))
        hom = ContinuousHom(ring, series(rng, field, m), series(rng, field, m, unit=True))
        for r in admissible(ring, m):
            check_nf(ring, f, g, r)
            check_duality(ring, pair, ring.nf(series(rng, field, m), series(rng, field, m)), hom, r)
        check_hom(ring, hom, g)


@pytest.mark.parametrize("name", ["fp2-511", "q-127"])
def test_zero_operands(name):
    ring = RINGS[name]
    field, top = ring.field, ring.precision
    rng = random.Random(f"zero:{name}")
    zero = TruncatedSeries.zero(field, top)
    dense = series(rng, field, top, unit=True)
    for x1, y1, x2, y2 in ((zero, zero, dense, dense), (dense, zero, zero, dense), (zero,) * 4):
        check_nf(ring, ring.nf(x1, y1), ring.nf(x2, y2), None)
        check_completion(ring, CompletionElement(ring, x1, y1), CompletionElement(ring, x2, y2), composed=False)
    check_nf(ring, ring.nf(dense, zero), ring.nf(zero, zero), None)  # a unit times zero
    pair = ResiduePair(ring, zero, dense)
    hom = ContinuousHom(ring, zero, dense)
    check_duality(ring, pair, ring.nf(zero, zero), hom, None)
    check_duality(ring, pair, ring.nf(dense, zero), ContinuousHom(ring, dense, dense), None)
    check_hom(ring, ContinuousHom(ring, zero, zero), ring.nf(dense, dense))


# ----------------------------------------------------------------------
# slot widths


@pytest.fixture
def slot_sizes(monkeypatch):
    """The slot width in bytes of every operand the kernel packs."""
    seen, pack = [], akizuki.series._pack

    def spy(ints, size, half):
        seen.append(size)
        return pack(ints, size, half)

    monkeypatch.setattr(akizuki.series, "_pack", spy)
    return seen


def test_prime_above_2_to_the_32_takes_the_per_value_path(slot_sizes):
    ring = WIDE
    field, top = ring.field, ring.precision
    rng = random.Random("wide")
    f = ring.nf(series(rng, field, top, unit=True), series(rng, field, top))
    g = ring.nf(series(rng, field, top), series(rng, field, top))
    check_nf(ring, f, g, None)
    pair = ResiduePair(ring, series(rng, field, top), series(rng, field, top, unit=True))
    hom = ContinuousHom(ring, series(rng, field, top), series(rng, field, top, unit=True))
    check_duality(ring, pair, ring.nf(series(rng, field, top), series(rng, field, top)), hom, None)
    a = CompletionElement(ring, series(rng, field, top), series(rng, field, top))
    check_completion(ring, a, a)
    assert max(slot_sizes) > 8


def test_sum_of_two_products_needs_one_more_byte(slot_sizes):
    """With every coefficient p - 1 = 250 at N = 200 one product's
    coefficients reach 250^2 * 200 = 12.5e6 < 2^24 (3-byte slots), and a
    sum of two reaches 25e6 (4 bytes)."""
    field, n = PrimeField(251), 200
    full = [250] * n
    assert (250**2 * n).bit_length() == 24 and (2 * 250**2 * n).bit_length() == 25
    one = _window_mul(field, n, ((1, full, full),))
    assert one == naive_mul(full, full, field, n) and slot_sizes == [3]
    slot_sizes.clear()
    two = _window_mul(field, n, ((1, full, full), (1, full, full)))
    assert two == lin(field, (1, one), (1, one)) and slot_sizes == [4]
    slot_sizes.clear()
    diff = _window_mul(field, n, ((1, full, full), (-1, full, full)))
    assert diff == [0] * n and slot_sizes == [4]
    # the same boundary through the dual-number product: b = a1 y2 + a2 y1
    ring = AkizukiRing(field, n)
    top = TruncatedSeries(field, tuple(full))
    slot_sizes.clear()
    check_nf(ring, ring.nf(top, top), ring.nf(top, top), None)
    assert 4 in slot_sizes
    check_completion(ring, CompletionElement(ring, top, top), CompletionElement(ring, top, top), composed=False)


# ----------------------------------------------------------------------
# the kernel on random sums of terms


def random_terms(rng, field, n):
    terms = []
    for _ in range(rng.randint(1, 4)):
        sign = rng.choice((1, -1))
        a = [coeff(rng, field) for _ in range(rng.randint(1, n))]
        kind = rng.randrange(3)
        if kind == 0:
            terms.append((sign, a, None))
        elif kind == 1:
            terms.append((sign, a, [coeff(rng, field) for _ in range(rng.randint(1, n))]))
        else:
            exps = sorted(rng.sample(range(2 * n), rng.randint(0, min(4, 2 * n))))
            terms.append((sign, a, Terms((e, coeff(rng, field, nonzero=True)) for e in exps)))
    return terms


def naive_sum(field, n, terms):
    out = [field.zero()] * n
    for sign, a, b in terms:
        if b is None:
            value = (list(a) + [field.zero()] * n)[:n]
        else:
            if isinstance(b, Terms):
                dense = [field.zero()] * n
                for e, c in b:
                    if e < n:
                        dense[e] = c
                b = dense
            value = naive_mul(list(a), list(b), field, n)
        out = lin(field, (1, out), (sign, value))
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(101), PrimeField(4294967311)], ids=str)
def test_random_sums_of_terms(field):
    rng = random.Random(f"sums:{field}")
    for case in range(150):
        n = rng.choice((1, 2, 3, 9, 40, 130))
        terms = random_terms(rng, field, n)
        got = _window_mul(field, n, terms)
        assert got == naive_sum(field, n, terms), case
        if field == QQ:
            assert all(type(c) is Fraction for c in got)
        else:
            assert all(type(c) is int and 0 <= c < field.p for c in got)


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
    assert _window_mul(QQ, n, terms) == naive_sum(QQ, n, terms)


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
    x, y = (series(rng, field, 511) for _ in "xy")
    u = ring.w_terms
    assert len(u) == 7 and len(ring.neg_w) == 7
    sparse = _window_mul(field, 511, ((1, x.coeffs, None), (1, y.coeffs, u), (-1, x.coeffs, ring.neg_w)))
    assert big_products == []
    dense = _window_mul(field, 511, ((1, x.coeffs, y.coeffs),))
    assert len(big_products) == 1
    want = naive_sum(field, 511, [(1, x.coeffs, None), (1, y.coeffs, u), (-1, x.coeffs, ring.neg_w)])
    assert sparse == want and dense == naive_mul(x.coeffs, y.coeffs, field, 511)
    # the closed completion product: four kernel calls, three bignum products
    big_products.clear()
    CompletionElement(ring, x, y) * CompletionElement(ring, y, x)
    assert len(big_products) == 3
