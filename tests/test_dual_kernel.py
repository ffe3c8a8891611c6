"""Each layer against its closed formula at random levels and at full width.

Normal-form products and inverses, the duality maps, hom evaluation and
the completion product are checked here against the closed pair formulas
on plain lists in ``support`` (the ``check_*`` helpers, with u = ŵ from
``support.closed_u``), at precisions beyond the 31 of the other suites:
N = 127 over q and N = 255 over fp:2 and fp:101.  The duality maps also
take a hom whose numerators share a factor t, so that it drops below the
level of the class.  The full-width and low-level cases at N = 511 are in
``test_fused_kernel``.
"""

import random

import pytest

from akizuki import (
    AkizukiRing,
    CompletionElement,
    ContinuousHom,
    PrimeField,
    RationalField,
    ResiduePair,
    TruncatedSeries,
)
from support import check_completion, check_duality, check_hom, check_nf, rand_dense

RINGS = {
    "q-127": AkizukiRing(RationalField(), 127),
    "fp2-255": AkizukiRing(PrimeField(2), 255),
    "fp101-255": AkizukiRing(PrimeField(101), 255),
}
CASES = 2


def times_t(s):
    return TruncatedSeries(s.field, (s.field.zero(),) + s.coeffs[:-1])


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
            f = ring.nf(rand_dense(rng, field, m, unit=True), rand_dense(rng, field, m))
            g = ring.nf(rand_dense(rng, field, m), rand_dense(rng, field, m))
            check_nf(ring, f, g)


@pytest.mark.parametrize("name", RINGS)
def test_duality_matches_closed_formulas(name):
    ring = RINGS[name]
    field, top = ring.field, ring.precision
    rng = random.Random(f"duality:{name}")
    for _ in range(CASES):
        pair = ResiduePair(ring, rand_dense(rng, field, top), rand_dense(rng, field, top, unit=True))
        for n in levels(ring, rng):
            hom = ContinuousHom.make(ring, rand_dense(rng, field, n), rand_dense(rng, field, n))
            omega_nf = ring.nf(rand_dense(rng, field, n), rand_dense(rng, field, n))
            check_duality(ring, pair, omega_nf, hom)
            check_hom(ring, hom, omega_nf)
            # t alpha, t beta over t^n: alpha, beta over t^(n-1), a lower level
            low = ContinuousHom.make(ring, *(times_t(s) for s in (hom.alpha, hom.beta)))
            assert low.level < n
            check_duality(ring, pair, omega_nf, low)


@pytest.mark.parametrize("name", RINGS)
def test_comp_mul_matches_closed_formula(name):
    ring = RINGS[name]
    field, n = ring.field, ring.precision
    rng = random.Random(f"comp:{name}")
    for _ in range(CASES):
        a = CompletionElement(ring, rand_dense(rng, field, n), rand_dense(rng, field, n))
        b = CompletionElement(ring, rand_dense(rng, field, n), rand_dense(rng, field, n))
        check_completion(ring, a, b)
