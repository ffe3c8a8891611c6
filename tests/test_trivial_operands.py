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

import pytest

from akizuki import (
    AkizukiRing,
    CompletionElement,
    PrecisionError,
    PrimeField,
    RationalField,
    TruncatedSeries,
)
from akizuki.series import Terms, fused
from support import lists, naive_comp_mul, naive_inv, naive_mul, naive_sum, naive_w, rand_coeff, rand_dense

QQ = RationalField()
FIELDS = [QQ, PrimeField(2), PrimeField(101)]
N = 48


def sparse(rng, field, n):
    exps = sorted(rng.sample(range(1, n + 4), 3))
    return Terms((e, rand_coeff(rng, field, nonzero=True)) for e in exps)


# ----------------------------------------------------------------------
# fused


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_zero_and_one_in_every_position(field):
    """0 and 1 as either factor, with both signs, alone, before and after a
    dense product and a sparse term; and the near misses 1 + c t,
    1 + c t^(N-1) and c t^(N-1), which the screens must pass through."""
    rng = random.Random(f"positions:{field}")
    zero, one = TruncatedSeries.zero(field, N), TruncatedSeries.one(field, N)
    d1, d2, d3 = (rand_dense(rng, field, N) for _ in range(3))
    c = rand_coeff(rng, field, nonzero=True)
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
                    assert list(got.coeffs) == naive_sum(field, N, terms)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_sums_that_screen_to_one_term_or_none(field, kernel_calls):
    rng = random.Random(f"screen:{field}")
    zero, one = TruncatedSeries.zero(field, N), TruncatedSeries.one(field, N)
    a, b = rand_dense(rng, field, N), rand_dense(rng, field, N)
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
    assert kernel_calls == []
    # what is left still goes through the kernel, once
    assert list(fused((-1, a, one)).coeffs) == naive_sum(field, N, [(-1, a)])
    assert fused((1, a, b), (1, zero, u)) == a * b
    assert list(fused((1, one, u), (-1, zero)).coeffs) == naive_sum(field, N, [(1, one, u)])
    assert len(kernel_calls) == 4


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_trivial_operands_of_the_wrong_window_still_raise(field):
    rng = random.Random(f"raise:{field}")
    other_field = PrimeField(3) if field != PrimeField(3) else PrimeField(5)
    a = rand_dense(rng, field, N)
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
        c = rand_coeff(rng, field, nonzero=True)
        got = TruncatedSeries.constant(field, c, n).invert()
        assert list(got.coeffs) == naive_inv([c], field, n)
    assert kernel_calls == []


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
        f[0] = rand_coeff(rng, field, nonzero=True)
        if field.characteristic:
            f[m:] = [rand_coeff(rng, field) for _ in range(n - m)]
        else:
            for e in [0] + rng.sample(range(1, n), 2):
                if m + e < n:
                    f[m + e] = rand_coeff(rng, field)
        f[m] = rand_coeff(rng, field, nonzero=True)
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
    return CompletionElement(ring, rand_dense(rng, field, n, unit=unit), rand_dense(rng, field, n))


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
        want = naive_comp_mul(*lists(a.rho, a.sigma, b.rho, b.sigma), w, field)
        assert naive_comp_mul(*lists(got.rho, got.sigma, e.rho, e.sigma), w, field) == want


def test_packs_per_product_at_511(packs):
    """Operands packed per product, on the stored parts (a, y).  A product
    at N = 511 fills at least 1533 bytes, past ``_TWO_POINT_BYTES``, so each
    of its operands packs twice, as its even- and its odd-indexed values.
    The closed product packs a1 a2 and a1 y2 + a2 y1 (6 operands, 12
    packs); the normal-form product plus inverse adds Newton on a (22: one
    pack per operand at windows of 16 to 256 and 255, two at 511), i * i
    and y i^2 (40); and the composed product relative to comp(1; 0) packs
    only the left factor's forward map on the class it extracts (12), since
    the probe and the unit screen out.  Over F_p Newton inversion starts at
    16 coefficients, so the inverse skips the steps at 1, 2, 4 and 8."""
    ring = RINGS["fp101-511"]
    rng = random.Random("packs")
    a, b = comp(rng, ring), comp(rng, ring)
    f = ring.nf(*(rand_dense(rng, ring.field, 511, unit=unit) for unit in (True, False)))
    g = ring.nf(*(rand_dense(rng, ring.field, 511, unit=unit) for unit in (True, False)))
    counts = []
    for product in (
        lambda: a * b,
        lambda: (f * g).invert(),
        lambda: a.mul_via_composition(b, CompletionElement.one(ring)),
    ):
        packs.clear()
        product()
        counts.append(len(packs))
    assert counts == [12, 40, 12]
