"""Every law of the registry ``akizuki.selftest.SUITES`` over q, fp:101 and
fp:2 with minimal exponents and unit coefficients 1, and over two rings
with explicit exponents and units, on twice the cases over q and fp:101;
and the registry's own plumbing: the CLI names each law, and the random
series reach the edge cases the laws need."""

import random
from collections import Counter

import pytest

from akizuki import AkizukiRing, PrimeField, RationalField, selftest
from akizuki.cli import main
from support import LAW_CASES, RING_P2, RING_P101, RING_Q, assert_laws

RING_P5_EXPLICIT = AkizukiRing(PrimeField(5), 9, exponents=(0, 3, 8), units=(2, 3, 4))
RING_Q_EXPLICIT = AkizukiRing(
    RationalField(), 40, exponents=(0, 5, 20, 50), units=(1, -2, 3, 5)
)
RINGS = {
    "q": RING_Q,
    "fp:101": RING_P101,
    "fp:2": RING_P2,
    "fp:5-explicit": RING_P5_EXPLICIT,
    "q-explicit": RING_Q_EXPLICIT,
}
WIDE = (RING_Q, RING_P101)  # the rings that run 2 * LAW_CASES cases of each law

LAWS = [f"{suite}.{name}" for suite, laws in selftest.SUITES.items() for name, _ in laws]

# Every law, in registry order; a law dropped from the registry fails here.
EXPECTED = """
series.ring_axioms series.inverse series.shift series.tail_stability
series.tail_vanishing series.tail_linearity series.tail_addition
ring.axioms ring.embedding_hom ring.inverse_law
ring.generator_consistency ring.exponent_growth
cohomology.raising_invariance cohomology.annihilation
cohomology.action_compatible cohomology.bilinearity cohomology.zero_detection
cohomology.addition
duality.residue_well_defined duality.residue_linear duality.defining_identity
duality.roundtrip_class duality.roundtrip_hom duality.pair_additivity
duality.cm_linearity duality.canonical_levels
duality.hom_addition duality.forward_additive duality.standard_factorization
completion.nilpotent completion.comp_axioms completion.closed_vs_composed
completion.embed_multiplicative completion.embed_action
completion.embed_injective completion.endo_extraction
completion.unit_composition
""".split()


@pytest.mark.parametrize("ring", list(RINGS.values()), ids=list(RINGS))
@pytest.mark.parametrize("law", LAWS)
def test_law(law, ring):
    assert_laws(ring, law, count=2 * LAW_CASES if ring in WIDE else LAW_CASES)


def test_registry_holds_every_law():
    assert LAWS == EXPECTED


def test_selftest_all_names_every_law(capsys):
    assert main(["selftest", "all", "--count", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"pass {law} count=1" for law in EXPECTED] + ["selftest all: ok"]


def test_series_draws_each_shape_at_its_share():
    """``_series`` spends its first draw on the shape of the series."""
    field, n, draws = RING_P101.field, 31, 4000
    cuts = [
        ("zero", selftest.ZERO_SHARE),
        ("leading zeros", selftest.LEADING_ZEROS_SHARE),
        ("sparse", selftest.SPARSE_SHARE),
    ]
    seen = Counter()
    for i in range(draws):
        roll = random.Random(i).random()
        coeffs = selftest._series(random.Random(i), field, n).coeffs
        nonzero = sum(1 for c in coeffs if c)
        kind, low = "dense", 0.0
        for name, share in cuts:
            if low <= roll < low + share:
                kind = name
            low += share
        seen[kind] += 1
        if kind == "zero":
            assert nonzero == 0
        elif kind == "leading zeros":
            assert coeffs[0] == 0 and nonzero > 0
        elif kind == "sparse":
            assert 1 <= nonzero <= 3
        else:
            assert nonzero > 3
    for name, share in cuts:
        assert abs(seen[name] / draws - share) < 0.02, (name, seen[name])
