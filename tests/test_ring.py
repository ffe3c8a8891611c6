"""Instance construction, the square-zero relation, generators, and units."""

import copy
import pickle
import random
import re
from fractions import Fraction

import pytest

from akizuki import (
    AkizukiRing,
    InstanceError,
    NotInvertibleError,
    PrecisionError,
    PrimeField,
    RationalField,
    TruncatedSeries,
    parse_series,
)
from support import (
    RING_P2,
    RING_P101,
    RING_Q,
    admissible,
    closed_u,
    lists,
    naive_gen,
    naive_gen_nf,
    naive_mul,
    naive_nf_inv,
    naive_nf_mul,
    naive_u,
    naive_w,
    rand_series,
)

QQ = RationalField()
# Minimal and explicit exponent lists, with units other than 1 on the latter.
RULE_RINGS = {
    "q-31": RING_Q,
    "fp2-31": RING_P2,
    "fp101-511": AkizukiRing(PrimeField(101), 511),
    "fp5-9-0,3,8": AkizukiRing(PrimeField(5), 9, exponents=(0, 3, 8), units=(2, 3, 4)),
    "q-100-0,5,20,50": AkizukiRing(QQ, 100, exponents=(0, 5, 20, 50), units=(1, -2, 3, 5)),
    "fp7-64-0,2,7,40": AkizukiRing(PrimeField(7), 64, exponents=(0, 2, 7, 40), units=(3, 1, 6, 2)),
}


def S(text, ring=RING_Q, precision=None):
    return parse_series(text, ring.field, precision or ring.precision)


# ----------------------------------------------------------------------
# instance construction


def test_minimal_instance_shape():
    assert RING_Q.exponents == (0, 2, 6, 14, 30)
    assert RING_Q.units == (QQ.one(),) * 5
    assert RING_Q.top_index == 4
    assert str(RING_Q.z) == "1 + t^2 + t^6 + t^14 + t^30"
    assert str(RING_Q.w) == "t^3 + t^7 + t^15"


def test_custom_instance():
    ring = AkizukiRing(QQ, 9, exponents=(0, 3, 8), units=(1, 2, 5))
    assert str(ring.z) == "1 + 2t^3 + 5t^8"
    assert str(ring.w) == "2t^4"  # t^9 falls outside the window


RING_ATTRIBUTES = ("field", "precision", "exponents", "units", "z", "w", "w_terms")


def test_ring_refuses_assignment_and_deletion():
    ring = AkizukiRing(QQ, 9, exponents=(0, 3, 8), units=(1, 2, 5))
    before = {name: getattr(ring, name) for name in RING_ATTRIBUTES}
    for name in RING_ATTRIBUTES + ("extra",):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(ring, name, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(ring, name)
    assert {name: getattr(ring, name) for name in RING_ATTRIBUTES} == before
    assert not hasattr(ring, "extra")


def test_ring_copies_and_pickles():
    for clone in (copy.copy(RING_Q), copy.deepcopy(RING_Q), pickle.loads(pickle.dumps(RING_Q))):
        assert all(getattr(clone, name) == getattr(RING_Q, name) for name in RING_ATTRIBUTES)
        with pytest.raises(AttributeError):
            clone.precision = 4


def test_instance_validation():
    with pytest.raises(InstanceError):
        AkizukiRing(QQ, 1)
    with pytest.raises(InstanceError):
        AkizukiRing(QQ, 9, exponents=(1, 4))  # must start at 0
    with pytest.raises(InstanceError):
        AkizukiRing(QQ, 9, exponents=(0, 2, 5))  # needs n_2 >= 2*2+2
    with pytest.raises(InstanceError):
        AkizukiRing(QQ, 9, exponents=(0, 2))  # 2*2+2 < 9: no headroom
    with pytest.raises(InstanceError):
        AkizukiRing(QQ, 7, exponents=(0, 8))  # t^8 invisible below t^7
    with pytest.raises(InstanceError):
        AkizukiRing(QQ, 9, exponents=(0, 4), units=(1,))  # count mismatch
    with pytest.raises(InstanceError):
        AkizukiRing(QQ, 9, exponents=(0, 4), units=(1, 0))  # zero unit
    with pytest.raises(InstanceError):
        AkizukiRing(QQ, 9, exponents="fancy")


@pytest.mark.parametrize(
    "field, unit",
    [(PrimeField(5), Fraction(1, 2)), (PrimeField(5), "1"), (QQ, "1"), (QQ, 0.5), (PrimeField(5), 2.0)],
    ids=repr,
)
def test_a_unit_that_is_not_a_field_value_is_rejected(field, unit):
    with pytest.raises(InstanceError, match=re.escape(f"unit {unit!r} is not a value of {field}")):
        AkizukiRing(field, 9, exponents=(0, 3, 8), units=(1, unit, 1))


@pytest.mark.parametrize("bad", [2.5, "3", 3.0, None])
def test_an_exponent_that_is_not_an_integer_is_rejected(bad):
    with pytest.raises(TypeError):
        AkizukiRing(QQ, 9, exponents=(0, bad, 8))


def test_unused_exponent_tail_is_dropped():
    # Only the least prefix whose rewriting headroom covers the window is
    # kept; later exponents change nothing below t^N.
    ring = AkizukiRing(QQ, 5, exponents=(0, 2, 6, 14))
    assert ring.exponents == (0, 2)
    assert str(ring.z) == "1 + t^2"


def test_partial_sums():
    # t_partial_sum(m) is w = t s_R mod t^m
    assert str(RING_Q.t_partial_sum(14)) == "t^3 + t^7"
    assert RING_Q.t_partial_sum(31) == RING_Q.w


def test_t_partial_sum_rejects_bad_level():
    for m in (0, 32):
        with pytest.raises(PrecisionError):
            RING_Q.t_partial_sum(m)


def test_reduction_index_table():
    """The least admissible index r (2 n_r + 2 >= m) of the test-side list
    at each level of q@31."""
    table = [(1, 0), (2, 0), (3, 1), (6, 1), (7, 2), (14, 2), (15, 3), (30, 3), (31, 4)]
    for m, r in table:
        assert admissible(RING_Q, m)[0] == r, (m, r)


def test_admissible_indices():
    """The test-side index list: the least r, then every later one up to
    the top index R = 4."""
    assert admissible(RING_Q, 14) == [2, 3, 4]
    assert admissible(RING_Q, 31) == [4]
    assert admissible(RING_Q, 1) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("name", RULE_RINGS)
def test_every_admissible_t_s_r_is_w(name):
    """The relation (w - t s_r)^2 = 0 at level m has one coefficient: for
    every r with 2 n_r + 2 >= m, t s_r = w mod t^m."""
    ring = RULE_RINGS[name]
    for m in range(1, ring.precision + 1):
        rs = admissible(ring, m)
        assert rs[-1] == ring.top_index, m
        w = naive_w(ring, m)
        for r in rs:
            assert naive_u(ring, m, r) == w, (m, r)
        assert ring.t_partial_sum(m) == ring.w.truncate(m)
        assert list(ring.t_partial_sum(m).coeffs) == w


# ----------------------------------------------------------------------
# the relation (w - t s_r)^2 = 0


def test_w_square_golden():
    w = RING_Q.w_nf(14)
    sq = w * w
    assert sq.x == S("-t^6 - 2*t^10", precision=14)
    assert sq.y == S("2*t^3 + 2*t^7", precision=14)


def test_w_square_embeds_correctly():
    """Dual route: the x + y*w value must match the DVR square of w."""
    w = RING_Q.w_nf(14)
    direct = TruncatedSeries(
        QQ, tuple(naive_mul(naive_w(RING_Q, 14), naive_w(RING_Q, 14), QQ, 14))
    )
    assert (w * w).embed() == direct
    assert str(direct) == "t^6 + 2t^10"


def test_w_square_char_two():
    w = RING_P2.w_nf(14)
    sq = w * w
    assert str(sq.x) == "t^6"
    assert sq.y.is_zero()
    direct = TruncatedSeries(
        RING_P2.field,
        tuple(naive_mul(naive_w(RING_P2, 14), naive_w(RING_P2, 14), RING_P2.field, 14)),
    )
    assert sq.embed() == direct


@pytest.mark.parametrize(
    "ring", [RING_Q, AkizukiRing(PrimeField(101), 511)], ids=["q", "fp:101-511"]
)
def test_w_nf_stores_w_hat_without_a_kernel_call(ring, kernel_calls):
    """w_nf(m) stores (ŵ, 1) directly: no product, the printed pair (0, 1)
    at every level, and levels outside 1..N raise."""
    levels = [m for m in (1, 2, 5, 14, 31, 511) if m <= ring.precision]
    forms = [ring.w_nf(m) for m in levels]
    assert kernel_calls == []
    for m, w in zip(levels, forms):
        field = ring.field
        assert w == ring.nf(TruncatedSeries.zero(field, m), TruncatedSeries.one(field, m))
    for m in (0, ring.precision + 1):
        with pytest.raises(PrecisionError):
            ring.w_nf(m)


def test_unit_inverse_golden():
    one_plus_w = RING_Q.one_nf(6) + RING_Q.w_nf(6)
    inv = one_plus_w.invert()
    assert inv.x == S("1", precision=6)
    assert inv.y == S("-1 + 2*t^3", precision=6)
    assert (one_plus_w * inv) == RING_Q.one_nf(6)


def test_non_unit_has_no_inverse():
    with pytest.raises(NotInvertibleError):
        RING_Q.w_nf(6).invert()
    with pytest.raises(NotInvertibleError):
        RING_Q.nf(S("t", precision=4), S("1", precision=4)).invert()


# ----------------------------------------------------------------------
# ideal generators g_i = ((z - a_0 - s_i)/t^{n_i})^2


def test_generator_golden():
    g0 = RING_Q.generator_nf(0, 12)
    assert g0.x == S("-t^4 - 2*t^8", precision=12)
    assert g0.y == S("2*t + 2*t^5", precision=12)


def test_generator_dual_route():
    """Every representable g_i at every level m: the normal form against a
    plain-list one, and its embedding against the DVR quotient square of a
    plain-list oracle.  The oracles run once per g_i, at its highest
    level, since a lower level is a truncation.  Past the headroom cap, the
    level is refused."""
    for name, ring in RULE_RINGS.items():
        top = 2 * ring.exponents[ring.top_index] + 2
        for i in range(ring.top_index):
            cap = top - (2 * ring.exponents[i] + 2)
            highest = min(cap, ring.precision)
            x, y = naive_gen_nf(ring, i, highest)
            g = naive_gen(ring, i, highest)
            for m in range(1, highest + 1):
                form = ring.generator_nf(i, m)
                assert lists(form.x, form.y) == [x[:m], y[:m]], (name, i, m)
                assert list(form.embed().coeffs) == g[:m], (name, i, m)
            if cap < ring.precision:
                with pytest.raises(PrecisionError):
                    ring.generator_nf(i, cap + 1)


def test_generator_headroom_cap():
    # g_0 needs 2 n_0 + 2 = 2 slots of headroom below 2 n_4 + 2 = 62,
    # so any level up to N is fine; g_3 (2 n_3 + 2 = 30) caps at 62 - 30 = 32,
    # also fine; but on a smaller instance the cap binds.
    small = AkizukiRing(QQ, 9, exponents=(0, 3, 8), units=(1, 1, 1))
    # top r = 2, 2 n_2 + 2 = 18; g_1 needs 2 n_1 + 2 = 8, cap = 10 >= 9: fine
    small.generator_nf(1, 9)
    with pytest.raises(PrecisionError):
        small.generator_nf(2, 1)  # i = R itself has zero numerator headroom
    with pytest.raises(PrecisionError):
        RING_Q.generator_nf(4, 1)
    with pytest.raises(ValueError):
        RING_Q.generator_nf(-1, 5)
    with pytest.raises(PrecisionError):
        RING_Q.generator_nf(0, 32)


def test_generator_index_beyond_top():
    with pytest.raises(PrecisionError):
        RING_Q.generator_nf(7, 5)


# ----------------------------------------------------------------------
# the closed formulas at every level


@pytest.mark.parametrize("ring", [RING_Q, RING_P101], ids=lambda r: str(r.field))
def test_mul_and_invert_match_closed_formulas_at_every_level(ring):
    """At every level, the product and the inverse are the closed formulas
    with u = ŵ, which is t s_r for every admissible r."""
    field = ring.field
    rng = random.Random(f"r-independent:{field}")
    for m in range(1, ring.precision + 1):
        f = ring.nf(rand_series(rng, field, m, unit=True), rand_series(rng, field, m))
        g = ring.nf(rand_series(rng, field, m), rand_series(rng, field, m))
        product, inverse = f * g, f.invert()
        parts = lists(f.x, f.y, g.x, g.y)
        u = closed_u(ring, m)
        want = naive_nf_mul(*parts, u, field) + naive_nf_inv(*parts[:2], u, field)
        assert lists(product.x, product.y, inverse.x, inverse.y) == list(want), m


def test_nf_level_discipline():
    a = RING_Q.one_nf(5)
    b = RING_Q.one_nf(6)
    with pytest.raises(PrecisionError):
        a + b
    with pytest.raises(PrecisionError):
        a * b
    assert b.truncate(5) == a
    other = AkizukiRing(QQ, 31)
    with pytest.raises(ValueError):
        a + other.one_nf(5)


def test_nf_str():
    assert str(RING_Q.w_nf(6)) == "(0) + (1)*w mod t^6"
    f = RING_Q.nf(S("1+t", precision=4), S("-t", precision=4))
    assert str(f) == "(1 + t) + (-t)*w mod t^4"
