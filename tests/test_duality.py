"""Residues, the duality map and its inverse, and pair extraction."""

import random

import pytest

from akizuki import (
    AlgebraError,
    CohomologyClass,
    ContinuousHom,
    LaurentTail,
    NotInvertibleError,
    PrecisionError,
    RationalField,
    ResiduePair,
    extract_pair,
    parse_gf,
    parse_hom,
    parse_pair,
    parse_series,
)
from support import (
    RING_Q,
    admissible,
    naive_duality_inverse,
    naive_forward,
    naive_u,
    rand_pair,
    rand_series,
)

QQ = RationalField()


def S(text, precision, ring=RING_Q):
    return parse_series(text, ring.field, precision)


def K(text, ring=RING_Q):
    return parse_gf(text, ring)


def H(text, ring=RING_Q):
    return parse_hom(text, ring)


def P(text, ring=RING_Q):
    return parse_pair(text, ring)


# ----------------------------------------------------------------------
# residue goldens


def test_residue_golden():
    tail = P("pair(1;1+t)").residue(K("gf(t;1;2)"))
    assert str(tail) == "t^-2 + 2t^-1"
    assert tail == LaurentTail.from_coeffs(QQ, [2, 1])


def test_residue_of_unit_over_t():
    assert str(P("pair(1;0)").residue(K("gf(1;0;1)"))) == "t^-1"
    assert P("pair(0;1)").residue(K("gf(1;0;1)")).is_zero()


def test_residue_respects_raising():
    pair = P("pair(1+t^2;3)")
    a = K("gf(1;2;2)")
    b = CohomologyClass.make(RING_Q.nf(*a.raised(5)), 5)
    assert pair.residue(a) == pair.residue(b)


def test_residue_exponent_guard():
    small = ResiduePair(RING_Q, S("1", 3), S("1", 3))
    with pytest.raises(PrecisionError):
        small.residue(K("gf(1;0;4)"))


# ----------------------------------------------------------------------
# hom canonicalization and evaluation


def test_hom_canonicalization():
    h = ContinuousHom.make(RING_Q, S("t", 3), S("t^2", 3))
    assert h.level == 2
    assert str(h) == "hom(2;1;t)"
    assert ContinuousHom.make(RING_Q, S("0", 5), S("0", 5)).is_zero()
    assert ContinuousHom.zero(RING_Q).level == 1


def test_hom_evaluation_golden():
    h = H("hom(2;1;t)")
    one = RING_Q.one_nf(2)
    w = RING_Q.w_nf(2)
    assert str(h(one)) == "t^-2"
    assert str(h(w)) == "t^-1"
    assert h(RING_Q.nf(S("t", 2), S("1", 2))) == LaurentTail.from_coeffs(QQ, [2])


def test_hom_evaluation_level_guard():
    with pytest.raises(PrecisionError):
        H("hom(3;1;0)")(RING_Q.one_nf(2))


def test_hom_equivalent_across_levels():
    assert H("hom(1;1;0)") == H("hom(2;t;0)")
    assert H("hom(2;t;0)") == H("hom(1;1;0)")  # every hom is at its least level
    zero = S("0", 5)
    assert ContinuousHom(RING_Q, zero, zero) == ContinuousHom.zero(RING_Q)


@pytest.mark.parametrize("alpha, beta, n", [("1", "0", 1), ("1 + t", "2t", 3), ("0", "1", 2), ("t", "1/2", 4)])
def test_hom_constructor_cuts_to_least_level(alpha, beta, n):
    """A hom built directly from numerators t alpha, t beta over t^(n + 1)
    is the hom of alpha, beta over t^n."""
    a, b = S(alpha, n), S(beta, n)
    lower = ContinuousHom(RING_Q, a, b)
    raised = ContinuousHom(RING_Q, a.promote(1), b.promote(1))
    assert raised == lower == ContinuousHom.make(RING_Q, a, b)
    assert (raised.level, raised.alpha, raised.beta) == (n, a, b)


# ----------------------------------------------------------------------
# duality goldens


def test_forward_golden():
    hom = P("pair(0;1)").forward(K("gf(1;0;1)"))
    assert str(hom) == "hom(1;0;1)"


def test_forward_value_at_one_is_the_residue():
    pair = P("pair(1+t;2-t^2)")
    omega = K("gf(1+2t;t;3)")
    hom = pair.forward(omega)
    # tails are canonical, so the two routes give literally equal values
    assert hom(RING_Q.one_nf(hom.level)) == pair.residue(omega)


def test_inverse_golden():
    klass = P("pair(0;1)").inverse(H("hom(3;1;t)"))
    assert str(klass) == "gf(t;1;3)"


def test_inverse_needs_unit_rho():
    with pytest.raises(NotInvertibleError):
        P("pair(1;t)").inverse(H("hom(1;1;0)"))


# ----------------------------------------------------------------------
# r-independence of the closed formulas


def test_forward_r_independent():
    """At every level, forward and inverse are the closed formulas with
    u = t s_r, for every admissible r."""
    rng = random.Random("r-independent")
    pair = rand_pair(rng, RING_Q)
    for n in range(1, RING_Q.precision + 1):
        x, y, alpha, beta = (rand_series(rng, QQ, n) for _ in range(4))
        fwd = pair.forward(CohomologyClass.make(RING_Q.nf(x, y), n))
        back = pair.inverse(ContinuousHom.make(RING_Q, alpha, beta))
        got = [list(s.coeffs) for s in fwd.raised(n) + back.raised(n)]
        sig, rho = pair.sigma.truncate(n), pair.rho.truncate(n)
        x, y, alpha, beta, sig, rho = (list(s.coeffs) for s in (x, y, alpha, beta, sig, rho))
        for r in admissible(RING_Q, n):
            u = naive_u(RING_Q, n, r)
            want = naive_forward(x, y, sig, rho, u, QQ)
            want += naive_duality_inverse(alpha, beta, sig, rho, u, QQ)
            assert got == list(want), (n, r)


# ----------------------------------------------------------------------
# extraction of a pair from a blackbox endomorphism


def test_extract_rejects_bad_blackbox():
    def too_deep(omega):
        return H("hom(9;1;0)")

    with pytest.raises(AlgebraError):
        extract_pair(RING_Q, too_deep, 3)
    with pytest.raises(AlgebraError):
        extract_pair(RING_Q, lambda omega: 17, 3)
    with pytest.raises(PrecisionError):
        extract_pair(RING_Q, P("pair(1;1)").forward, 0)
