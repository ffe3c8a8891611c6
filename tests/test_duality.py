"""Residues, the duality map and its inverse, and pair extraction."""

import random

import pytest

from akizuki import (
    AkizukiRing,
    AlgebraError,
    CohomologyClass,
    ContinuousHom,
    LaurentTail,
    NotInvertibleError,
    PrecisionError,
    PrimeField,
    RationalField,
    ResiduePair,
    TruncatedSeries,
    extract_pair,
    parse_gf,
    parse_hom,
    parse_pair,
    parse_series,
)
from support import (
    RING_Q,
    action_rows,
    closed_u,
    commutant_mod_p,
    coordinates,
    lin,
    lists,
    naive_duality_inverse,
    naive_forward,
    naive_mul,
    naive_w,
    rand_coeff,
    rand_pair,
    rand_series,
    rank_mod_p,
    solve_mod_p,
    valuation,
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


def test_hom_on_an_element_of_another_ring_is_a_value_error():
    with pytest.raises(ValueError):
        H("hom(2;1;t)")(AkizukiRing(QQ, RING_Q.precision).one_nf(2))


def test_hom_equivalent_across_levels():
    assert H("hom(1;1;0)") == H("hom(2;t;0)")
    assert H("hom(2;t;0)") == H("hom(1;1;0)")  # every hom is at its least level
    zero = S("0", 5)
    assert ContinuousHom(RING_Q, zero, zero) == ContinuousHom.zero(RING_Q)


@pytest.mark.parametrize(
    "alpha, beta, n",
    [("1", "0", 1), ("1 + t", "2t", 3), ("0", "1", 2), ("t", "1/2", 4), ("1", "t^3", 5)],
)
def test_hom_constructor_cuts_to_least_level(alpha, beta, n):
    """A hom built directly from numerators t alpha, t beta over t^(n + 1)
    is the hom of alpha, beta over t^n.  In hom(5; 1; t^3) the stored part
    beta - ŵ alpha is zero (ŵ = t^3 mod t^5) while beta is not."""
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
# the closed formulas at every level


def test_forward_and_inverse_match_closed_formulas_at_every_level():
    """At every level, forward and inverse are the closed formulas with
    u = ŵ, which is t s_r for every admissible r."""
    rng = random.Random("r-independent")
    pair = rand_pair(rng, RING_Q)
    for n in range(1, RING_Q.precision + 1):
        x, y, alpha, beta = (rand_series(rng, QQ, n) for _ in range(4))
        fwd = pair.forward(CohomologyClass.make(RING_Q.nf(x, y), n))
        back = pair.inverse(ContinuousHom.make(RING_Q, alpha, beta))
        x, y, alpha, beta, sig, rho = lists(x, y, alpha, beta, pair.sigma.truncate(n), pair.rho.truncate(n))
        u = closed_u(RING_Q, n)
        want = naive_forward(x, y, sig, rho, u, QQ) + naive_duality_inverse(alpha, beta, sig, rho, u, QQ)
        assert lists(*fwd.raised(n), *back.raised(n)) == list(want), n


# ----------------------------------------------------------------------
# the kernel of the forward map, by exact rank


# (v(d), v(sigma)) of each pair, None for zero: invertible pairs (v(d) = 0),
# then each case of m = min(v(d), v(sigma)) -- below, at and above v(sigma)
# -- with valuations that the levels below cap and do not cap.
VALUATIONS = [
    (0, None), (0, 0), (0, 5),
    (2, None), (3, 7), (6, 20),
    (1, 1), (4, 4), (11, 11),
    (5, 2), (9, 4), (12, 0), (25, 10), (None, 3),
    (None, None),
]
LEVELS = (1, 2, 3, 5, 8, 13, 21, 30)


def pair_with_valuations(rng, ring, v_d, v_sigma):
    """A pair whose sigma and d = rho - ŵ sigma have the given valuations,
    with rho = d + ŵ sigma from the list oracles."""
    field, n = ring.field, ring.precision

    def series(v):
        coeffs = [field.zero()] * n
        if v is not None:
            coeffs[v] = rand_coeff(rng, field, nonzero=True)
            coeffs[v + 1:] = [rand_coeff(rng, field) for _ in range(v + 1, n)]
        return coeffs

    sigma, d = series(v_sigma), series(v_d)
    rho = lin(field, (1, d), (1, naive_mul(naive_w(ring, n), sigma, field, n)))
    return ResiduePair(ring, *(TruncatedSeries(field, tuple(c)) for c in (sigma, rho)))


def monomials(field, n):
    """(t^j, 0) and (0, t^j) mod t^n for j < n: the coordinates of the basis
    t^j, t^j w of C_M/t^n and of the basis gf(t^j;0;n), gf(0;t^j;n) of H[t^n]."""
    zero = TruncatedSeries.zero(field, n)
    for j in range(n):
        tj = TruncatedSeries.t_power(field, j, n)
        yield tj, zero
        yield zero, tj


def forward_rows(pair, n):
    """The matrix of ``pair.forward`` on H[t^n] in the basis gf(t^j;0;n),
    gf(0;t^j;n), j < n: each image as its hom numerators over t^n."""
    rows = []
    for x, y in monomials(pair.ring.field, n):
        alpha, beta = pair.forward(CohomologyClass(pair.ring, x, y)).raised(n)
        rows.append(list(alpha.coeffs) + list(beta.coeffs))
    return rows


@pytest.mark.parametrize("p", [2, 101, 4294967311])
def test_forward_nullity_matches_the_smith_form(p):
    """pair.forward on H[t^n] has nullity min(n, m) + min(n, 2a - m), with
    a = v(d) and m = min(a, v(sigma)), each valuation capped at n: the
    Smith form over A of [[d, 0], [sigma, d]], the action of
    d + sigma (w - ŵ) on the two coordinates.  An invertible pair has
    nullity 0, so its forward map is injective."""
    ring = AkizukiRing(PrimeField(p), 32)
    rng = random.Random(f"nullity:{p}")
    for v_d, v_sigma in VALUATIONS:
        pair = pair_with_valuations(rng, ring, v_d, v_sigma)
        assert valuation(pair.sigma.coeffs) == v_sigma and pair.is_invertible() == (v_d == 0)
        for n in LEVELS:
            a = min(n, n if v_d is None else v_d)
            m = min(a, n if v_sigma is None else v_sigma)
            nullity = 2 * n - rank_mod_p(forward_rows(pair, n), p)
            assert nullity == min(n, m) + min(n, 2 * a - m), (v_d, v_sigma, n)


# ----------------------------------------------------------------------
# the inverse as the solution of the pairing form


def residue_coefficient(tail):
    """The t^-1 coefficient of a principal part."""
    return tail.coeffs[0] if tail.coeffs else tail.field.zero()


@pytest.mark.parametrize("p", [2, 101, 4294967311])
def test_inverse_solves_the_pairing_form(p):
    """For an invertible pair, B(f, omega) = the t^-1 coefficient of
    pair.forward(omega)(f) is nonsingular on C_M/t^n x H[t^n].  An A-linear
    map into K/A is fixed by the t^-1 coefficients of its values, so a hom
    h of level <= n is forward(omega) exactly when the coordinates c of
    omega solve B c = (t^-1 coefficient of h(f_i))_i.  The solved class is
    pair.inverse(h), reached without inverse's triangular formula."""
    ring = AkizukiRing(PrimeField(p), 32)
    field = ring.field
    rng = random.Random(f"solve:{p}")
    for n in (1, 3, 5, 8, 12):
        pair = rand_pair(rng, ring, invertible=True)
        hom = ContinuousHom(ring, rand_series(rng, field, n), rand_series(rng, field, n))
        fs = [ring.nf(x, y) for x, y in monomials(field, n)]
        images = [pair.forward(CohomologyClass(ring, x, y)) for x, y in monomials(field, n)]
        form = [[residue_coefficient(image(f)) for image in images] for f in fs]
        c = solve_mod_p(form, [residue_coefficient(hom(f)) for f in fs], p)
        x, y = TruncatedSeries(field, tuple(c[0::2])), TruncatedSeries(field, tuple(c[1::2]))
        assert CohomologyClass(ring, x, y) == pair.inverse(hom), n


# ----------------------------------------------------------------------
# the commutant and the socle of H[t^n], by exact rank


def act_rows(ring, n):
    """The matrices of t and of w on H[t^n] that the library's ``act``
    gives, in the rows and basis of ``support.action_rows``."""
    field = ring.field
    t = ring.nf(TruncatedSeries.t_power(field, 1, n), TruncatedSeries.zero(field, n))
    rows = ([], [])
    for x, y in monomials(field, n):
        omega = CohomologyClass(ring, x, y)
        for out, f in zip(rows, (t, ring.w_nf(n))):
            out.append(coordinates(*lists(*omega.act(f).raised(n))))
    return rows


def socle_dimension(t_rows, w_rows, p):
    """The dimension of the classes v with v T = v W = 0."""
    return len(t_rows) - rank_mod_p([a + b for a, b in zip(t_rows, w_rows)], p)


@pytest.mark.parametrize("exponents", ["minimal", (0, 3, 8, 18, 38)], ids=["minimal", "explicit"])
@pytest.mark.parametrize("p", [2, 101, 4294967311])
def test_commutant_and_socle_of_the_torsion_classes(p, exponents):
    """By Matlis duality End(H[t^n]) is C_M/t^n, of dimension 2n: the
    k-linear maps of H[t^n] that commute with t and w form a space of
    dimension 2n.  C_M/t^n = A/t^n[v]/(v^2) has the socle k t^(n-1) v, so
    H[t^n] has a socle of dimension 1, the classes that t and w both kill
    (C_M is Gorenstein).  Both hold for the oracle matrices and for the
    library's ``act``.  A random map M of the commutant is the composite
    omega -> E.inverse(P.forward(omega)) for E = pair(t;1 + t) and the P that
    ``extract_pair`` reads off E.forward after M."""
    ring = AkizukiRing(PrimeField(p), 40, exponents)
    field, rng = ring.field, random.Random(f"commutant:{p}:{exponents}")
    unit = parse_pair("pair(t;1 + t)", ring)

    def klass(v):
        return CohomologyClass(ring, *(TruncatedSeries(field, tuple(v[k::2])) for k in (0, 1)))

    for n in (1, 2, 3, 5, 8):
        oracle, library = action_rows(ring, n), act_rows(ring, n)
        basis = commutant_mod_p(oracle, p)
        assert len(basis) == len(commutant_mod_p(library, p)) == 2 * n, n
        assert socle_dimension(*oracle, p) == socle_dimension(*library, p) == 1, n
        weights = [rng.randrange(p) for _ in basis]
        m = [[sum(c * b[i][j] for c, b in zip(weights, basis)) % p for j in range(2 * n)]
             for i in range(2 * n)]

        def apply(omega):  # the class with coordinates v M, for v those of omega
            v = coordinates(*lists(*omega.raised(n)))
            return klass([sum(a * b for a, b in zip(v, col)) % p for col in zip(*m)])

        found = extract_pair(ring, lambda omega: unit.forward(apply(omega)), n)
        for x, y in monomials(field, n):
            omega = CohomologyClass(ring, x, y)
            assert unit.inverse(found.forward(omega)) == apply(omega), n


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


def test_extract_reads_homs_below_the_probe_level():
    """pair(t^2;t^3) sends the probe gf(1;0;5) to a hom of level 3, and
    pair(0;0) sends gf(1;0;4) to the zero hom; each pair comes back from
    that hom's numerators raised over t^level."""
    for text, level in (("pair(t^2;t^3)", 5), ("pair(0;0)", 4)):
        pair = P(text)
        probe = CohomologyClass.make(RING_Q.one_nf(level), level)
        assert pair.forward(probe).level < level
        got = extract_pair(RING_Q, pair.forward, level)
        assert got == pair.truncated(level) and got.precision == level
        assert str(got) == text
