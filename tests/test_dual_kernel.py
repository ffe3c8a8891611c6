"""Differential tests of the square-zero kernel against the closed formulas.

Normal-form products and inverses, the duality map and its inverse, and the
completion product all run through one dual-number kernel.  Each is checked
here against the closed pair formula it replaced, written on plain lists in
``support`` (``naive_nf_mul``, ``naive_nf_inv``, ``naive_forward``,
``naive_duality_inverse``, ``naive_comp_mul``), at precisions beyond the
31 of the other suites and for every admissible reduction index.  The
component check shared by the four two-series types is tested last.
"""

import random

import pytest

from akizuki import (
    AkizukiRing,
    CohomologyClass,
    CompletionElement,
    ContinuousHom,
    NormalForm,
    PrecisionError,
    PrimeField,
    RationalField,
    ResiduePair,
)
from support import (
    RING_Q,
    naive_comp_mul,
    naive_duality_inverse,
    naive_forward,
    naive_nf_inv,
    naive_nf_mul,
    naive_u,
    naive_w,
    rand_series,
)

RINGS = {
    "q-127": AkizukiRing(RationalField(), 127),
    "fp2-255": AkizukiRing(PrimeField(2), 255),
    "fp101-255": AkizukiRing(PrimeField(101), 255),
}
CASES = 2


def lists(*series):
    return [list(s.coeffs) for s in series]


def raised(field, coeffs, n):
    """A numerator list over t^m rewritten over t^n."""
    return [field.zero()] * (n - len(coeffs)) + list(coeffs)


def levels(ring, rng):
    # one random level, plus the full width where only the top rule applies
    return (rng.randint(2, ring.precision // 2), ring.precision)


@pytest.mark.parametrize("name", RINGS)
def test_nf_mul_and_invert_match_closed_formulas(name):
    ring = RINGS[name]
    field = ring.field
    rng = random.Random(f"nf:{name}")
    for _ in range(CASES):
        for m in levels(ring, rng):
            f = ring.nf(rand_series(rng, field, m, unit=True), rand_series(rng, field, m))
            g = ring.nf(rand_series(rng, field, m), rand_series(rng, field, m))
            for r in ring.admissible_indices(m):
                u = naive_u(ring, m, r)
                got = f.mul(g, r_index=r)
                assert lists(got.x, got.y) == list(naive_nf_mul(*lists(f.x, f.y, g.x, g.y), u, field))
                inv = f.invert(r_index=r)
                assert lists(inv.x, inv.y) == list(naive_nf_inv(*lists(f.x, f.y), u, field))


@pytest.mark.parametrize("name", RINGS)
def test_duality_matches_closed_formulas(name):
    ring = RINGS[name]
    field = ring.field
    rng = random.Random(f"duality:{name}")
    for _ in range(CASES):
        pair = ResiduePair(
            ring,
            rand_series(rng, field, ring.precision),
            rand_series(rng, field, ring.precision, unit=True),
        )
        for n in levels(ring, rng):
            x, y, alpha, beta = (rand_series(rng, field, n) for _ in range(4))
            omega = CohomologyClass.make(ring.nf(x, y), n)
            hom = ContinuousHom.make(ring, alpha, beta)
            x, y, alpha, beta, sig, rho = lists(
                x, y, alpha, beta, pair.sigma.truncate(n), pair.rho.truncate(n)
            )
            # results come back canonical, with common factors of t dropped;
            # raised back over t^n they are the oracles' representatives
            for r in ring.admissible_indices(n):
                u = naive_u(ring, n, r)
                fwd = pair.forward(omega, r_index=r)
                want = naive_forward(x, y, sig, rho, u, field)
                assert [raised(field, c, n) for c in lists(fwd.alpha, fwd.beta)] == list(want)
                back = pair.inverse(hom, r_index=r).numerator
                want = naive_duality_inverse(alpha, beta, sig, rho, u, field)
                assert [raised(field, c, n) for c in lists(back.x, back.y)] == list(want)


@pytest.mark.parametrize("name", RINGS)
def test_comp_mul_matches_closed_formula(name):
    ring = RINGS[name]
    field, n = ring.field, ring.precision
    rng = random.Random(f"comp:{name}")
    w = naive_w(ring, n)
    for _ in range(CASES):
        a = CompletionElement(ring, rand_series(rng, field, n), rand_series(rng, field, n))
        b = CompletionElement(ring, rand_series(rng, field, n), rand_series(rng, field, n))
        got = a * b
        want = naive_comp_mul(*lists(a.rho, a.sigma, b.rho, b.sigma), w, field)
        assert lists(got.rho, got.sigma) == list(want)


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
