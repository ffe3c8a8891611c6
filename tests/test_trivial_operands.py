"""Differential tests of the screens for exact 0 and 1 operands.

``series.fused`` drops a term with a zero dense factor, turns a product by
the series 1 into a plain term, and makes no kernel call when no term or
the single term +a is left.  ``TruncatedSeries.invert`` starts Newton at
the first nonzero coefficient after f_0.  Each screened result is checked
here against the list oracles in ``support``, and the composed completion
product relative to a dense unit, where most operands stay dense, against
the closed product.  A spy on ``_pack`` pins the operands each completion
product packs at N = 511 over F_101.
"""

import random
from fractions import Fraction

import pytest

import akizuki.series
from akizuki import (
    AkizukiRing,
    CompletionElement,
    PrecisionError,
    PrimeField,
    RationalField,
    TruncatedSeries,
)
from akizuki.series import Terms, fused
from support import field_value, naive_comp_mul, naive_inv, naive_mul, naive_w

QQ = RationalField()
FIELDS = [QQ, PrimeField(2), PrimeField(101)]
N = 48


def coeff(rng, field, nonzero=False):
    if field.characteristic == 0:
        value = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
        return value or Fraction(1) if nonzero else value
    p = field.characteristic
    return rng.randrange(1, p) if nonzero else rng.randrange(p)


def dense(rng, field, n, unit=False):
    coeffs = [coeff(rng, field) for _ in range(n)]
    coeffs[0] = coeff(rng, field, nonzero=True) if unit else coeffs[0]
    return TruncatedSeries(field, tuple(coeffs))


def sparse(rng, field, n):
    exps = sorted(rng.sample(range(1, n + 4), 3))
    return Terms((e, coeff(rng, field, nonzero=True)) for e in exps)


def as_list(b, field, n):
    """A dense series, a ``Terms`` or None (the series 1) as a plain list."""
    if b is None:
        return [field.one()] + [field.zero()] * (n - 1)
    if type(b) is Terms:
        out = [field.zero()] * n
        for e, c in b:
            if e < n:
                out[e] = c
        return out
    return list(b.coeffs)


def oracle(field, n, terms):
    out = [field.zero()] * n
    for sign, a, *b in terms:
        prod = naive_mul(list(a.coeffs), as_list(b[0] if b else None, field, n), field, n)
        out = [field_value(field, o + sign * v) for o, v in zip(out, prod)]
    return out


@pytest.fixture
def kernel_calls(monkeypatch):
    """The number of ``_window_mul`` calls so far."""
    calls, window_mul = [0], akizuki.series._window_mul

    def spy(*args):
        calls[0] += 1
        return window_mul(*args)

    monkeypatch.setattr(akizuki.series, "_window_mul", spy)
    return calls


@pytest.fixture
def packs(monkeypatch):
    """The number of operands packed so far."""
    count, pack = [0], akizuki.series._pack

    def spy(*args):
        count[0] += 1
        return pack(*args)

    monkeypatch.setattr(akizuki.series, "_pack", spy)
    return count


# ----------------------------------------------------------------------
# fused


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_zero_and_one_in_every_position(field):
    """0 and 1 as either factor, with both signs, alone, before and after a
    dense product and a sparse term; and the near misses 1 + c t,
    1 + c t^(N-1) and c t^(N-1), which the screens must pass through."""
    rng = random.Random(f"positions:{field}")
    zero, one = TruncatedSeries.zero(field, N), TruncatedSeries.one(field, N)
    d1, d2, d3 = (dense(rng, field, N) for _ in range(3))
    c = coeff(rng, field, nonzero=True)
    near = [
        TruncatedSeries.from_coeffs(field, [1, c], N),
        TruncatedSeries.from_coeffs(field, [1] + [0] * (N - 2) + [c], N),
        TruncatedSeries.from_coeffs(field, [0] * (N - 1) + [c], N),
    ]
    kinds_a = [zero, one, d1] + near
    kinds_b = [zero, one, d2, sparse(rng, field, N), None] + near
    others = [(1, d2, d3), (-1, d3, sparse(rng, field, N)), (1, d1)]
    for a in kinds_a:
        for b in kinds_b:
            for sign in (1, -1):
                term = (sign, a) if b is None else (sign, a, b)
                for terms in ([term], [term] + others, others + [term], [others[1], term]):
                    got = fused(*terms)
                    assert got.precision == N
                    assert list(got.coeffs) == oracle(field, N, terms)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_sums_that_screen_to_one_term_or_none(field, kernel_calls):
    rng = random.Random(f"screen:{field}")
    zero, one = TruncatedSeries.zero(field, N), TruncatedSeries.one(field, N)
    a, b = dense(rng, field, N), dense(rng, field, N)
    u = sparse(rng, field, N)
    for terms in (
        [(1, zero, a)],
        [(-1, a, zero), (1, zero), (1, zero, u)],
        [(1, zero, one), (-1, one, zero)],
    ):
        assert fused(*terms) == TruncatedSeries.zero(field, N)
    assert fused((1, a)) is a
    assert fused((1, a, one)) is a
    assert fused((1, one, a), (-1, zero, b), (1, b, zero)) is a
    assert fused((1, one, one)) is one
    assert a * one is a and one * a is a
    assert kernel_calls[0] == 0
    # what is left still goes through the kernel, once
    assert fused((-1, a, one)) == -a
    assert fused((1, a, b), (1, zero, u)) == a * b
    assert fused((1, one, u), (-1, zero)) == TruncatedSeries(field, tuple(as_list(u, field, N)))
    assert kernel_calls[0] == 4


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_trivial_operands_of_the_wrong_window_still_raise(field):
    rng = random.Random(f"raise:{field}")
    other_field = PrimeField(3) if field != PrimeField(3) else PrimeField(5)
    a = dense(rng, field, N)
    for bad in (
        TruncatedSeries.zero(field, N + 1),
        TruncatedSeries.one(field, N - 1),
        TruncatedSeries.zero(other_field, N),
        TruncatedSeries.one(other_field, N),
    ):
        for terms in ([(1, a, bad)], [(1, bad, a)], [(1, a), (1, bad)], [(1, a), (-1, bad, a)]):
            with pytest.raises(PrecisionError):
                fused(*terms)
        with pytest.raises(PrecisionError):
            a * bad
        with pytest.raises(PrecisionError):
            bad * a


# ----------------------------------------------------------------------
# invert


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_invert_constants(field, kernel_calls):
    rng = random.Random(f"constant:{field}")
    for n in (1, 2, 511):
        c = coeff(rng, field, nonzero=True)
        got = TruncatedSeries.constant(field, c, n).invert()
        assert list(got.coeffs) == naive_inv([c], field, n)
    assert kernel_calls[0] == 0


BOUNDARIES = sorted({m for j in range(1, 9) for m in (2**j - 1, 2**j, 2**j + 1)} | {510})


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_invert_past_known_zeros_at_the_newton_boundaries(field):
    """f_0 + t^m h for m at, just below and just above each 2^j, N = 511.

    Over F_p h is dense and the inverse is compared with the recurrence
    oracle.  Over q h has three terms, so the check is f g = 1 by the
    schoolbook product, which then costs O(N) per nonzero term of f."""
    rng = random.Random(f"boundaries:{field}")
    n = 511
    for m in BOUNDARIES:
        f = [field.zero()] * n
        f[0] = coeff(rng, field, nonzero=True)
        if field.characteristic:
            f[m:] = [coeff(rng, field) for _ in range(n - m)]
        else:
            for e in [0] + rng.sample(range(1, n), 2):
                if m + e < n:
                    f[m + e] = coeff(rng, field)
        f[m] = coeff(rng, field, nonzero=True)
        g = TruncatedSeries(field, tuple(f)).invert()
        if field.characteristic:
            assert list(g.coeffs) == naive_inv(f, field, n)
        else:
            assert naive_mul(list(g.coeffs), f, field, n) == [field.one()] + [field.zero()] * (n - 1)


# ----------------------------------------------------------------------
# the completion products


RINGS = {"fp101-511": AkizukiRing(PrimeField(101), 511), "q-63": AkizukiRing(QQ, 63)}


def comp(rng, ring, unit=False):
    field, n = ring.field, ring.precision
    return CompletionElement(ring, dense(rng, field, n, unit=unit), dense(rng, field, n))


@pytest.mark.parametrize("name", RINGS)
def test_composition_with_dense_units_matches_the_closed_product(name):
    """Relative to a dense unit e the composed product is a e^-1 b: the
    unscreened route, checked as (a e^-1 b) e = a b on the list oracle."""
    ring = RINGS[name]
    field, n = ring.field, ring.precision
    rng = random.Random(f"dense-unit:{name}")
    w = naive_w(ring, n)
    for _ in range(2):
        a, b, e = comp(rng, ring), comp(rng, ring), comp(rng, ring, unit=True)
        got = a.mul_via_composition(b, e)
        lists = [list(s.coeffs) for s in (got.rho, got.sigma, e.rho, e.sigma)]
        want = naive_comp_mul(*[list(s.coeffs) for s in (a.rho, a.sigma, b.rho, b.sigma)], w, field)
        assert naive_comp_mul(*lists, w, field) == want


def test_packs_per_product_at_511(packs):
    """Operands packed per product: the closed product and the normal-form
    product plus inverse are dense throughout, while the composed product
    relative to comp(1; 0) packs only its dense operands (79 before the
    screens)."""
    ring = RINGS["fp101-511"]
    rng = random.Random("packs")
    a, b = comp(rng, ring), comp(rng, ring)
    f = ring.nf(*(dense(rng, ring.field, 511, unit=unit) for unit in (True, False)))
    g = ring.nf(*(dense(rng, ring.field, 511, unit=unit) for unit in (True, False)))
    counts = []
    for product in (
        lambda: a * b,
        lambda: (f * g).invert(),
        lambda: a.mul_via_composition(b, CompletionElement.one(ring)),
    ):
        packs[0] = 0
        product()
        counts.append(packs[0])
    assert counts == [11, 54, 19]
