"""Acceptance suite: the headline guarantees, one pass/fail line each.

Every check is a frozen golden value, a seeded loop, or a law of the
registry ``akizuki.selftest.SUITES`` run at a fixed seed and case count, so
counts and data are exactly reproducible.
"""

import random

from akizuki import (
    AkizukiRing,
    NotInvertibleError,
    TruncatedSeries,
    eval_nf,
    eval_series,
    parse_gf,
    parse_pair,
    parse_series,
    selftest,
)
from support import (
    RING_P2,
    RING_P101,
    RING_Q,
    admissible,
    naive_eval,
    naive_gen,
    naive_mul,
    naive_u,
    naive_w,
    rand_tree,
)

QQ = RING_Q.field
F101 = RING_P101.field


def report(label: str, ok: bool) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def laws_hold(seed: int, *laws, ring=RING_Q) -> bool:
    """Whether each registry law (name, count) holds on its seeded cases."""
    return all(
        selftest.check(ring, *name.split("."), seed, count) is None for name, count in laws
    )


# ----------------------------------------------------------------------


def test_duality_roundtrips_500():
    """Inverse(forward) and forward(inverse) are the identity, 500 cases."""
    ok = laws_hold(101, ("duality.roundtrip_class", 500), ("duality.roundtrip_hom", 500))
    report("duality roundtrips (500 seeded, both directions)", ok)


def test_pairing_identity_500():
    """forward(pair, omega)(f) equals residue(pair, f * omega), 500 cases."""
    ok = laws_hold(102, ("duality.defining_identity", 500))
    report("pairing identity hom(f) == res(f * omega) (500 seeded)", ok)


def test_w_square_rewrite_golden():
    """w^2 at level 14 equals the frozen normal form and embeds to the DVR
    square computed by an independent plain-list oracle."""
    sq = RING_Q.w_nf(14) * RING_Q.w_nf(14)
    oracle = TruncatedSeries(QQ, tuple(naive_mul(naive_w(RING_Q, 14), naive_w(RING_Q, 14), QQ, 14)))
    ok = (
        sq.x == parse_series("-t^6 - 2*t^10", QQ, 14)
        and sq.y == parse_series("2*t^3 + 2*t^7", QQ, 14)
        and sq.embed() == oracle
        and str(oracle) == "t^6 + 2t^10"
    )
    report("w^2 golden normal form + embedding oracle", ok)


def test_generator_rewrite_golden():
    """g_0 at level 12 equals the frozen normal form, and all generator
    normal forms embed to the direct DVR quotient squares."""
    g0 = RING_Q.generator_nf(0, 12)
    ok = g0.x == parse_series("-t^4 - 2*t^8", QQ, 12)
    ok = ok and g0.y == parse_series("2*t + 2*t^5", QQ, 12)
    for i, m in ((0, 12), (1, 12), (2, 8), (3, 2)):
        direct = TruncatedSeries(QQ, tuple(naive_gen(RING_Q, i, m)))
        ok = ok and RING_Q.generator_nf(i, m).embed() == direct
        ok = ok and RING_Q.generator_series(i, m) == direct
    report("generator golden normal form + embedding oracle", ok)


def test_vanishing_tail_nonzero_class():
    """The fraction w/t: its principal part over the subring vanishes, yet
    the class is nonzero and is detected by an explicit functional."""
    klass = parse_gf("gf(0;1;1)", RING_Q)
    seen = parse_pair("pair(0;1)", RING_Q).residue(klass)
    unseen = parse_pair("pair(1;0)", RING_Q).residue(klass)
    ok = (
        RING_Q.w.principal_part(1).is_zero()
        and not klass.is_zero()
        and str(seen) == "t^-1"
        and unseen.is_zero()
    )
    report("worked example: tail vanishes but the class does not", ok)


def test_completion_product_routes_200():
    """The closed product agrees with composition of duality maps through
    the unit comp(1;0) (200 cases), the product satisfies the commutative
    ring axioms (200 triples), and pairs add compatibly with residues."""
    ok = laws_hold(
        106,
        ("completion.closed_vs_composed", 200),
        ("completion.comp_axioms", 200),
        ("duality.pair_additivity", 50),
    )
    report("completion product: closed == composed (200) + ring axioms (200)", ok)


def test_nilpotent_and_embedding_200():
    """X + w squares to zero at full precision, and the embedding of the
    local ring into the completion quotient is a ring homomorphism."""
    ok = laws_hold(107, ("completion.nilpotent", 1), ("completion.embed_multiplicative", 200))
    report("nilpotent (X + w)^2 == 0 + multiplicative embedding (200)", ok)


def test_pair_extraction_100():
    """Probing a blackbox duality map recovers (sigma, rho) mod t^n, at
    levels n drawn from 1..31 (5, 14 and 30 among them), compatibly between
    consecutive levels."""
    ok = laws_hold(108, ("completion.endo_extraction", 100))
    report("pair extraction at levels 5/14/30 + level compatibility (100)", ok)


def test_reduction_index_independence_100():
    """The relation (w - t s_r)^2 = 0 at level m has one coefficient: t s_r
    = w mod t^m for every r with 2 n_r + 2 >= m, at every level 1..100 of a
    ring with exponents 0, 5, 20, 50, by plain-list oracles."""
    ring = AkizukiRing(QQ, 100, exponents=(0, 5, 20, 50), units=(1, -2, 3, 5))
    ok = True
    for m in range(1, ring.precision + 1):
        w = naive_w(ring, m)
        ok = ok and all(naive_u(ring, m, r) == w for r in admissible(ring, m))
        ok = ok and list(ring.t_partial_sum(m).coeffs) == w
    report("one square-zero coefficient w at every level (100)", ok)


def test_expression_evaluation_oracle_500():
    """500 random expression trees (depth <= 5): the normal-form route
    embeds to the same DVR value as direct evaluation and as an
    independent plain-list oracle."""
    rng = random.Random(110)
    level = 14
    ok = True
    checked = 0
    while checked < 500:
        tree = rand_tree(rng, rng.randint(0, 5))
        try:
            via_nf = eval_nf(tree, RING_Q, level).embed()
        except NotInvertibleError:
            # the random denominator lost its unit by cancellation: skip
            continue
        checked += 1
        ok = ok and via_nf == eval_series(tree, RING_Q, level)
        via_lists = TruncatedSeries(QQ, tuple(naive_eval(tree, RING_Q, level)))
        ok = ok and via_nf == via_lists
        if not ok:
            break
    report("expression trees: normal-form route == direct oracle (500)", ok)


def test_prime_field_degenerations():
    """The golden values hold verbatim mod 101 (integer patterns mapped
    through the field), and the whole property suite passes mod 2."""
    ok = True

    sq = RING_P101.w_nf(14) * RING_P101.w_nf(14)
    ok = ok and sq.x == parse_series("-t^6 - 2*t^10", F101, 14)
    ok = ok and sq.y == parse_series("2*t^3 + 2*t^7", F101, 14)
    oracle = TruncatedSeries(
        F101,
        tuple(naive_mul(naive_w(RING_P101, 14), naive_w(RING_P101, 14), F101, 14)),
    )
    ok = ok and sq.embed() == oracle

    g0 = RING_P101.generator_nf(0, 12)
    ok = ok and g0.x == parse_series("-t^4 - 2*t^8", F101, 12)
    ok = ok and g0.y == parse_series("2*t + 2*t^5", F101, 12)
    ok = ok and g0.embed() == TruncatedSeries(F101, tuple(naive_gen(RING_P101, 0, 12)))

    ok = ok and laws_hold(
        111, ("completion.nilpotent", 1), ("completion.embed_multiplicative", 200), ring=RING_P101
    )

    lines: list[str] = []
    ok = ok and selftest.run(RING_P2, "all", seed=0, count=10, write=lines.append)

    report("mod-101 goldens + mod-2 property smoke suite", ok)
