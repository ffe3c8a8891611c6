"""Instance construction, the w-rewriting rule, generators, and units."""

import pytest

from akizuki import (
    AkizukiRing,
    InstanceError,
    NotInvertibleError,
    PrecisionError,
    RationalField,
    TruncatedSeries,
    parse_series,
)
from support import RING_P2, RING_P101, RING_Q, law_test, naive_gen, naive_mul, naive_w

QQ = RationalField()


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


def test_unused_exponent_tail_is_dropped():
    # Only the least prefix whose rewriting headroom covers the window is
    # kept; later exponents change nothing below t^N.
    ring = AkizukiRing(QQ, 5, exponents=(0, 2, 6, 14))
    assert ring.exponents == (0, 2)
    assert str(ring.z) == "1 + t^2"


def test_partial_sums():
    assert RING_Q.partial_sum(0).is_zero()
    assert str(RING_Q.partial_sum(2)) == "t^2 + t^6"
    assert str(RING_Q.partial_sum_at(2, 8)) == "t^2 + t^6"
    assert RING_Q.partial_sum_at(2, 8).precision == 8
    # upper_sum_at(i, .) collects the terms strictly above index i
    assert str(RING_Q.upper_sum_at(1, 16)) == "t^6 + t^14"
    with pytest.raises(IndexError):
        RING_Q.partial_sum(5)


def test_reduction_index_table():
    table = [(1, 0), (2, 0), (3, 1), (6, 1), (7, 2), (14, 2), (15, 3), (30, 3), (31, 4)]
    for m, r in table:
        assert RING_Q.reduction_index(m) == r, (m, r)
    with pytest.raises(ValueError):
        RING_Q.reduction_index(0)
    with pytest.raises(ValueError):
        RING_Q.reduction_index(32)


def test_admissible_indices():
    assert list(RING_Q.admissible_indices(14)) == [2, 3, 4]
    assert list(RING_Q.admissible_indices(31)) == [4]
    assert list(RING_Q.admissible_indices(1)) == [0, 1, 2, 3, 4]


def test_t_partial_sum_rejects_small_r():
    with pytest.raises(ValueError):
        RING_Q.t_partial_sum(14, r_index=1)


# ----------------------------------------------------------------------
# the rewriting rule w^2 = 2 t s_r w - t^2 s_r^2


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
    """Three independent routes: normal form embed, in-package DVR quotient,
    and a plain-list oracle."""
    for ring in (RING_Q, RING_P101, RING_P2):
        for i in (0, 1, 2):
            m = 12 if i < 2 else 8
            via_nf = ring.generator_nf(i, m).embed()
            via_series = ring.generator_series(i, m)
            via_lists = TruncatedSeries(
                ring.field, tuple(naive_gen(ring, i, m))
            )
            assert via_nf == via_series == via_lists, (str(ring.field), i)


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
# structural laws: written once, in akizuki.selftest.SUITES


test_embedding_is_a_ring_hom = law_test("ring.embedding_hom")
test_mul_is_r_independent = law_test("ring.mul_r_independent")
test_inverse_law = law_test("ring.inverse_law")


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
