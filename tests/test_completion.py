"""The quotient A^[X]/(X + t(z - a_0))^2 and its two product routes."""

import pytest

from akizuki import (
    CompletionElement,
    NotInvertibleError,
    PrecisionError,
    RationalField,
    TruncatedSeries,
    parse_comp,
)
from support import RING_P2, RING_P101, RING_Q

QQ = RationalField()
N = RING_Q.precision


def C(text, ring=RING_Q):
    return parse_comp(text, ring)


def epsilon(ring):
    """X + w, the square-zero witness that the quotient is not reduced."""
    return CompletionElement(
        ring, ring.w, TruncatedSeries.one(ring.field, ring.precision)
    )


# ----------------------------------------------------------------------
# the defining relation


@pytest.mark.parametrize("ring", [RING_Q, RING_P101, RING_P2], ids=lambda r: str(r.field))
def test_epsilon_squares_to_zero(ring):
    eps = epsilon(ring)
    assert not eps.is_zero()
    assert (eps * eps).is_zero()


def test_x_squared_relation():
    x = C("comp(0;1)")
    w = RING_Q.w
    sq = x * x
    assert sq.rho == -(w * w)
    assert sq.sigma == -(w.scale(2))


# ----------------------------------------------------------------------
# the embedding


def test_embed_requires_full_precision():
    with pytest.raises(PrecisionError):
        CompletionElement.embed(RING_Q.one_nf(5))


def test_embed_golden():
    f = RING_Q.one_nf(N) + RING_Q.w_nf(N)
    c = CompletionElement.embed(f)
    assert c.sigma.is_zero()
    assert c.rho == TruncatedSeries.one(QQ, N) + RING_Q.w


# ----------------------------------------------------------------------
# closed product vs composition of duality maps


def test_composition_rejects_bad_unit():
    x_only = C("comp(0;1)")
    with pytest.raises(NotInvertibleError):
        C("comp(1;0)").mul_via_composition(C("comp(1;0)"), x_only)


def test_pair_property_matches_components():
    c = C("comp(1+t;t^2)")
    assert c.pair.rho == c.rho
    assert c.pair.sigma == c.sigma


def test_precision_guard():
    with pytest.raises(PrecisionError):
        CompletionElement(RING_Q, TruncatedSeries.one(QQ, 5), TruncatedSeries.zero(QQ, 5))
