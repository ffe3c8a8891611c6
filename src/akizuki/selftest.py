"""The registry of algebraic laws, runnable from the command line.

Each suite re-verifies the laws behind one layer of the library on randomly
generated data.  ``SUITES`` is the one place a law is written: the
``akizuki selftest`` command, the test suite and the acceptance report all
run it through ``check``.  A law draws its data and yields claims
(actual, expected, message, *values); ``_first_broken`` compares them in
order and reports the first broken one.  Case i of a law draws from its own
RNG seeded by (seed, law, i), so reported counterexamples are stable under
re-ordering or sharding of the run.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cohomology import CohomologyClass
from .duality import CompletionElement, ContinuousHom, ResiduePair, extract_pair
from .ring import AkizukiRing, NormalForm
from .series import TruncatedSeries

# ----------------------------------------------------------------------
# random data


def _elem(rng: random.Random, field, nonzero: bool = False):
    if field.characteristic == 0:
        value = Fraction(rng.randint(-9, 9))
        if rng.random() < 0.2:
            value = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if nonzero and value == 0:
            value = Fraction(rng.randint(1, 9))
        return value
    p = field.characteristic
    value = rng.randrange(p)
    if nonzero and value == 0:
        value = rng.randrange(1, p) if p > 1 else 1
    return value


# Shares of the edge-case shapes among drawn series; the rest are dense.
ZERO_SHARE = 0.1  # the zero series
LEADING_ZEROS_SHARE = 0.1  # c_0 .. c_{k-1} vanish, for a k in 1 .. N - 1
SPARSE_SHARE = 0.1  # one to three nonzero coefficients


def _series(rng, field, precision, unit=False):
    """A random series whose first draw picks its shape.

    In fixed shares it is the zero series, a series with a run of leading
    zeros, or a sparse one; otherwise every coefficient is drawn.  These
    shapes make classes and homs canonicalize below their drawn level and
    reach the kernel's screens for exact 0 and 1 operands.  With ``unit``
    the constant term is then made nonzero, so the zero shape gives a
    constant and the leading-zero shape f_0 + t^k h.
    """
    roll = rng.random()
    coeffs = [field.zero()] * precision
    if roll < ZERO_SHARE:
        pass
    elif roll < ZERO_SHARE + LEADING_ZEROS_SHARE:
        k = rng.randint(1, max(precision - 1, 1))
        coeffs[k:] = [_elem(rng, field) for _ in range(k, precision)]
    elif roll < ZERO_SHARE + LEADING_ZEROS_SHARE + SPARSE_SHARE:
        for i in rng.sample(range(precision), min(rng.randint(1, 3), precision)):
            coeffs[i] = _elem(rng, field, nonzero=True)
    else:
        coeffs = [_elem(rng, field) for _ in range(precision)]
    if unit:
        coeffs[0] = _elem(rng, field, nonzero=True)
    return TruncatedSeries(field, tuple(coeffs))


def _nf(rng, ring: AkizukiRing, level, unit=False):
    return ring.nf(_series(rng, ring.field, level, unit=unit), _series(rng, ring.field, level))


def _klass(rng, ring):
    n = rng.randint(1, ring.precision)
    return CohomologyClass.make(_nf(rng, ring, n), n)


def _hom(rng, ring):
    n = rng.randint(1, ring.precision)
    return ContinuousHom.make(ring, _series(rng, ring.field, n), _series(rng, ring.field, n))


def _pair(rng, ring, invertible=True):
    n, field = ring.precision, ring.field
    return ResiduePair(ring, _series(rng, field, n), _series(rng, field, n, unit=invertible))


def _comp(rng, ring, unit=False):
    n, field = ring.precision, ring.field
    return CompletionElement(ring, _series(rng, field, n, unit=unit), _series(rng, field, n))


# ----------------------------------------------------------------------
# claims, and the laws every type states: each is written here once


def _first_broken(claims):
    """The message of the first claim (actual, expected, message, *values)
    whose actual differs from its expected, formatted with its values only
    then, or None when every claim holds.  Claims are read lazily, so that
    nothing past the first broken one runs."""
    for actual, expected, message, *values in claims:
        if actual != expected:
            return message.format(*values)
    return None


def _ring_laws(a, b, c, zero, one=None):
    """The claims that + is associative and commutative on a, b, c, that
    zero = a - a is neutral, and, given one, that so is ×, which distributes."""
    yield (a + b) + c, a + (b + c), "addition is not associative"
    yield a + b, b + a, "addition is not commutative"
    yield a + zero, a, "0 is not an additive identity"
    yield a - a, zero, "a - a is not 0"
    if one is not None:
        yield (a * b) * c, a * (b * c), "multiplication is not associative"
        yield a * b, b * a, "multiplication is not commutative"
        yield a * (b + c), a * b + a * c, "multiplication does not distribute over addition"
        yield a * one, a, "1 is not a multiplicative identity"


def _additive(what, f, a, b):
    """The claim that f(a + b) = f(a) + f(b)."""
    yield f(a + b), f(a) + f(b), f"{what} is not additive"


def _homomorphism(what, f, a, b, one, image_one):
    """The claims that f is multiplicative, unital, odd and additive."""
    yield f(a * b), f(a) * f(b), f"{what} is not multiplicative"
    yield f(one), image_one, f"{what} does not send 1 to 1"
    yield f(-a), -f(a), f"{what} does not respect negation"
    yield from _additive(what, f, a, b)


# ----------------------------------------------------------------------
# series properties


def _series_ring_axioms(ring, rng):
    n = rng.randint(1, ring.precision)
    a, b, c = (_series(rng, ring.field, n) for _ in range(3))
    zero, one = TruncatedSeries.zero(ring.field, n), TruncatedSeries.one(ring.field, n)
    yield from _ring_laws(a, b, c, zero, one)


def _series_inverse(ring, rng):
    n = rng.randint(1, ring.precision)
    a = _series(rng, ring.field, n, unit=True)
    yield a * a.invert(), TruncatedSeries.one(ring.field, n), "a * a^-1 != 1 for a = {}", a


def _series_shift(ring, rng):
    n = rng.randint(2, ring.precision)
    a = _series(rng, ring.field, n)
    k = rng.randint(1, n - 1)
    yield a.promote(k).shift(-k), a, "promote/shift do not invert each other"
    v = a.valuation()
    raised = None if v is None else v + k
    yield a.promote(k).valuation(), raised, f"promote({k}) does not raise the valuation by {k}"
    if v:
        yield a.shift(-v).valuation(), 0, "shifting out the valuation did not normalize it"


def _tail_stability(ring, rng):
    n = rng.randint(1, ring.precision - 1)
    f = _series(rng, ring.field, ring.precision)
    stable = f.shift(1).principal_part(n + 1)
    yield f.principal_part(n), stable, "principal part not representative-stable for f = {}", f


def _tail_vanishing(ring, rng):
    n = rng.randint(1, ring.precision)
    f = _series(rng, ring.field, ring.precision)
    vanished, low = f.principal_part(n).is_zero(), f.truncate(n).is_zero()
    yield vanished, low, "vanishing criterion failed for f = {}, n = {}", f, n


def _tail_linearity(ring, rng):
    n = rng.randint(1, ring.precision)
    f, g, c = (_series(rng, ring.field, ring.precision) for _ in range(3))
    lhs = f.principal_part(n).scaled_by(c) + g.principal_part(n)
    yield lhs, (c * f + g).principal_part(n), "tail scaling is not A-linear"


def _tail_addition(ring, rng):
    n = rng.randint(1, ring.precision)
    f, g = _series(rng, ring.field, ring.precision), _series(rng, ring.field, ring.precision)
    yield from _additive(f"the principal part mod t^{n}", lambda s: s.principal_part(n), f, g)


# ----------------------------------------------------------------------
# ring properties


def _ring_axioms(ring, rng):
    m = rng.randint(1, ring.precision)
    f, g, h = (_nf(rng, ring, m) for _ in range(3))
    yield from _ring_laws(f, g, h, ring.constant_nf(ring.field.zero(), m), ring.one_nf(m))


def _embedding_hom(ring, rng):
    m = rng.randint(1, ring.precision)
    f, g = _nf(rng, ring, m), _nf(rng, ring, m)
    one, what = TruncatedSeries.one(ring.field, m), f"the embedding at level {m}"
    yield from _homomorphism(what, NormalForm.embed, f, g, ring.one_nf(m), one)


def _inverse_law(ring, rng):
    m = rng.randint(1, ring.precision)
    f = _nf(rng, ring, m, unit=True)
    yield f * f.invert(), ring.one_nf(m), f"f * f^-1 != 1 at level {m}"


def _generator_consistency(ring, rng):
    i = rng.randint(0, max(ring.top_index - 1, 0))
    if i >= ring.top_index:
        return
    cap = 2 * ring.exponents[ring.top_index] + 2 - (2 * ring.exponents[i] + 2)
    m = rng.randint(1, min(cap, ring.precision))
    form = ring.generator_nf(i, m)
    # With a = t(z - a_0 - s_i) = t^(n_i + 1)(z_i - a_i), the direct
    # expansion of g_i in the completed DVR is a^2 / t^(2 n_i + 2); and with
    # ŵ = t(z - a_0), w - t s_i = a + (w - ŵ) squares to a^2 - 2 a ŵ + 2 a w,
    # which is t^(2 n_i + 2) g_i at level m + 2 n_i + 2: a second route to
    # the normal form itself.
    drop = 2 * ring.exponents[i] + 2
    a = ring._terms(i + 1, len(ring.exponents), m + drop).shift(1)
    square = a * a
    expansion = f"g{i} normal form disagrees with its direct expansion at level {m}"
    yield form.embed(), square.shift(-drop), expansion
    w_hat = ring._terms(1, len(ring.exponents), m + drop).shift(1)
    x = (square - (a * w_hat).scale(2)).shift(-drop)
    via_square = f"g{i} normal form disagrees with (w - t s_{i})^2 / t^{drop} at level {m}"
    yield (form.x, form.y), (x, a.scale(2).shift(-drop)), via_square


def _exponent_growth(ring, rng):
    for r, n_r in enumerate(ring.exponents):
        forced = 2 ** (r + 1) - 2
        yield n_r < forced, False, f"exponent n_{r} = {n_r} below the forced growth 2^{r + 1} - 2"


# ----------------------------------------------------------------------
# cohomology properties


def _raising_invariance(ring, rng):
    k = rng.randint(0, min(4, ring.precision - 1))
    n = rng.randint(1, ring.precision - k)
    f = _nf(rng, ring, n)
    raised = ring.nf(f.x.promote(k), f.y.promote(k))
    a, b = CohomologyClass.make(f, n), CohomologyClass.make(raised, n + k)
    yield a, b, f"class of f/t^{n} differs from t^{k} f/t^{n + k}"


def _annihilation(ring, rng):
    omega = _klass(rng, ring)
    n = omega.exponent
    tn = ring.nf(
        TruncatedSeries.t_power(ring.field, n, ring.precision),
        TruncatedSeries.zero(ring.field, ring.precision),
    )
    yield omega.act(tn).is_zero(), True, f"t^{n} does not annihilate a class with denominator t^{n}"


def _action_compatible(ring, rng):
    omega = _klass(rng, ring)
    f, g = _nf(rng, ring, ring.precision), _nf(rng, ring, ring.precision)
    yield omega.act(f * g), omega.act(f).act(g), "action is not multiplicative"


def _bilinearity(ring, rng):
    omega1, omega2 = _klass(rng, ring), _klass(rng, ring)
    f, g = _nf(rng, ring, ring.precision), _nf(rng, ring, ring.precision)
    yield from _additive("the action in the class", lambda omega: omega.act(f), omega1, omega2)
    yield from _additive("the action in the ring element", omega1.act, f, g)


def _zero_detection(ring, rng):
    n = rng.randint(1, ring.precision)
    k = rng.randint(n, ring.precision)
    f = _nf(rng, ring, ring.precision)
    shifted = ring.nf(f.x.shift(k).truncate(n), f.y.shift(k).truncate(n))
    omega = CohomologyClass.make(shifted, n)
    yield omega.is_zero(), True, f"t^{k}-multiple numerator not detected as zero over t^{n}"


def _class_addition(ring, rng):
    a, b, c = _klass(rng, ring), _klass(rng, ring), _klass(rng, ring)
    yield from _ring_laws(a, b, c, CohomologyClass.zero(ring))


# ----------------------------------------------------------------------
# duality properties


def _residue_well_defined(ring, rng):
    pair = _pair(rng, ring, invertible=False)
    n = rng.randint(1, ring.precision - 1)
    f = _nf(rng, ring, n)
    raised = ring.nf(f.x.promote(1), f.y.promote(1))
    a = pair.residue(CohomologyClass.make(f, n))
    b = pair.residue(CohomologyClass.make(raised, n + 1))
    yield a, b, "residue differs across representatives"


def _residue_linear(ring, rng):
    pair = _pair(rng, ring, invertible=False)
    omega1, omega2 = _klass(rng, ring), _klass(rng, ring)
    a = _series(rng, ring.field, ring.precision)
    lhs = pair.residue(omega1.scaled(a) + omega2)
    rhs = pair.residue(omega1).scaled_by(a) + pair.residue(omega2)
    yield lhs, rhs, "residue is not A-linear"


def _defining_identity(ring, rng):
    pair = _pair(rng, ring, invertible=False)
    omega = _klass(rng, ring)
    f = _nf(rng, ring, ring.precision)
    yield (pair.forward(omega)(f), pair.residue(omega.act(f)),
           "forward hom disagrees with the residue of the acted class")


def _roundtrip_class(ring, rng):
    pair = _pair(rng, ring, invertible=True)
    omega = _klass(rng, ring)
    back = pair.inverse(pair.forward(omega))
    yield back, omega, "inverse(forward(omega)) != omega for omega = {}", omega


def _roundtrip_hom(ring, rng):
    pair = _pair(rng, ring, invertible=True)
    hom = _hom(rng, ring)
    yield pair.forward(pair.inverse(hom)), hom, "forward(inverse(hom)) != hom for hom = {}", hom


def _pair_additivity(ring, rng):
    p1, p2 = _pair(rng, ring, invertible=False), _pair(rng, ring, invertible=False)
    omega = _klass(rng, ring)
    yield from _additive("the residue in the pair", lambda p: p.residue(omega), p1, p2)
    yield from _additive("the forward map in the pair", lambda p: p.forward(omega), p1, p2)


def _cm_linearity(ring, rng):
    pair = _pair(rng, ring, invertible=False)
    omega = _klass(rng, ring)
    f, g = _nf(rng, ring, ring.precision), _nf(rng, ring, ring.precision)
    lhs = pair.forward(omega.act(f))(g)
    yield lhs, pair.forward(omega)(f * g), "forward map is not C_M-linear in the class"


def _canonical_levels(ring, rng):
    pair = _pair(rng, ring, invertible=True)
    omega, hom = _klass(rng, ring), _hom(rng, ring)
    level = pair.forward(omega).level
    yield level, omega.exponent, f"forward sends exponent {omega.exponent} to level {level}"
    exponent = pair.inverse(hom).exponent
    yield exponent, hom.level, f"inverse sends level {hom.level} to exponent {exponent}"


def _hom_addition(ring, rng):
    a, b, c = _hom(rng, ring), _hom(rng, ring), _hom(rng, ring)
    k = rng.randint(0, min(4, ring.precision - a.level))
    raised = ContinuousHom(ring, *a.raised(a.level + k))
    yield raised, a, f"a hom differs from the hom of its numerators times t^{k}"
    yield from _ring_laws(a, b, c, ContinuousHom.zero(ring))


def _standard_forward(omega):
    """pair(0;1).forward(omega), the pairing through the standard unit
    comp(1;0), in closed form: gf(x;y;n) pairs f with the w-part of
    f (x + y w), so 1 and w go to y and x + 2 w^ y."""
    x, y = omega.x, omega.y
    return ContinuousHom(omega.ring, y, x + (omega.ring.w.truncate(omega.exponent) * y).scale(2))


def _standard_factorization(ring, rng):
    pair = _pair(rng, ring, invertible=False)
    omega = _klass(rng, ring)
    c = ring.nf(pair.rho - (ring.w * pair.sigma).scale(2), pair.sigma)
    yield (pair.forward(omega), _standard_forward(omega.act(c)),
           "forward map is not pair(0;1) after the action of (rho - 2 w^ sigma) + sigma w")


def _forward_additive(ring, rng):
    pair = _pair(rng, ring, invertible=True)
    a, b = _klass(rng, ring), _klass(rng, ring)
    h1, h2 = _hom(rng, ring), _hom(rng, ring)
    yield from _additive("forward", pair.forward, a, b)
    yield from _additive("inverse", pair.inverse, h1, h2)


# ----------------------------------------------------------------------
# completion properties


def _nilpotent(ring, rng):
    eps = CompletionElement(ring, ring.w, TruncatedSeries.one(ring.field, ring.precision))
    yield eps.is_zero(), False, "w + X is zero in the completion"
    yield (eps * eps).is_zero(), True, "(w + X)^2 != 0 in the completion"


def _comp_axioms(ring, rng):
    a, b, c = _comp(rng, ring), _comp(rng, ring), _comp(rng, ring)
    yield from _ring_laws(a, b, c, CompletionElement.zero(ring), CompletionElement.one(ring))


def _closed_vs_composed(ring, rng):
    a, b = _comp(rng, ring), _comp(rng, ring)
    composed = a.mul_via_composition(b, CompletionElement.one(ring))
    yield composed, a * b, "operational product disagrees with the closed formula"


def _embed_multiplicative(ring, rng):
    n, embed = ring.precision, CompletionElement.embed
    f, g = _nf(rng, ring, n), _nf(rng, ring, n)
    one = CompletionElement.one(ring)
    yield from _homomorphism("the completion map", embed, f, g, ring.one_nf(n), one)


def _embed_action(ring, rng):
    f = _nf(rng, ring, ring.precision)
    omega = _klass(rng, ring)
    yield (CompletionElement.embed(f).pair.forward(omega), _standard_forward(omega.act(f)),
           "embed(f) does not act on classes through pair(0;1) as f does")


def _embed_injective(ring, rng):
    n, field = ring.precision, ring.field
    f, h = _nf(rng, ring, n), _nf(rng, ring, n, unit=True)
    v = ring.nf(-ring.w, TruncatedSeries.one(field, n))  # w - w^, nonzero mod t^N
    kills = CompletionElement.embed(f) == CompletionElement.embed(f + v * h)
    yield kills, False, "embedding into the completion kills (w - w^) h for a unit h"


def _endo_extraction(ring, rng):
    pair = _pair(rng, ring, invertible=False)
    n = rng.randint(1, ring.precision)
    found = extract_pair(ring, pair.forward, n)
    lost = f"extraction at level {n} does not recover the pair"
    yield found.sigma, pair.sigma.truncate(n), lost
    yield found.rho, pair.rho.truncate(n), lost
    if n < ring.precision:
        again = extract_pair(ring, pair.forward, n + 1).truncated(n)
        yield again, found, f"extraction at levels {n} and {n + 1} disagrees"


def _unit_composition(ring, rng):
    a, b, unit = _comp(rng, ring), _comp(rng, ring), _comp(rng, ring, unit=True)
    composed = a.mul_via_composition(b, unit) * unit
    yield composed, a * b, "composition relative to {} is not a e^-1 b", unit


SUITES = {
    "series": [
        ("ring_axioms", _series_ring_axioms),
        ("inverse", _series_inverse),
        ("shift", _series_shift),
        ("tail_stability", _tail_stability),
        ("tail_vanishing", _tail_vanishing),
        ("tail_linearity", _tail_linearity),
        ("tail_addition", _tail_addition),
    ],
    "ring": [
        ("axioms", _ring_axioms),
        ("embedding_hom", _embedding_hom),
        ("inverse_law", _inverse_law),
        ("generator_consistency", _generator_consistency),
        ("exponent_growth", _exponent_growth),
    ],
    "cohomology": [
        ("raising_invariance", _raising_invariance),
        ("annihilation", _annihilation),
        ("action_compatible", _action_compatible),
        ("bilinearity", _bilinearity),
        ("zero_detection", _zero_detection),
        ("addition", _class_addition),
    ],
    "duality": [
        ("residue_well_defined", _residue_well_defined),
        ("residue_linear", _residue_linear),
        ("defining_identity", _defining_identity),
        ("roundtrip_class", _roundtrip_class),
        ("roundtrip_hom", _roundtrip_hom),
        ("pair_additivity", _pair_additivity),
        ("cm_linearity", _cm_linearity),
        ("canonical_levels", _canonical_levels),
        ("hom_addition", _hom_addition),
        ("forward_additive", _forward_additive),
        ("standard_factorization", _standard_factorization),
    ],
    "completion": [
        ("nilpotent", _nilpotent),
        ("comp_axioms", _comp_axioms),
        ("closed_vs_composed", _closed_vs_composed),
        ("embed_multiplicative", _embed_multiplicative),
        ("embed_action", _embed_action),
        ("embed_injective", _embed_injective),
        ("endo_extraction", _endo_extraction),
        ("unit_composition", _unit_composition),
    ],
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def check(ring: AkizukiRing, suite: str, name: str, seed: int, count: int):
    """The first failing case of the law ``suite.name`` on ``count`` cases,
    as (case, detail), or None when every case holds."""
    law = dict(SUITES[suite])[name]
    for i in range(count):
        detail = _first_broken(law(ring, random.Random(f"{seed}:{suite}.{name}:{i}")))
        if detail is not None:
            return i, detail
    return None


def run(ring: AkizukiRing, suite: str, seed: int, count: int, write=print) -> bool:
    """Run one suite (or 'all'); returns True when every law held."""
    ok = True
    for name in list(SUITES) if suite == "all" else [suite]:
        for law, _ in SUITES[name]:
            failure = check(ring, name, law, seed, count)
            if failure is None:
                write(f"pass {name}.{law} count={count}")
            else:
                ok = False
                write(f"FAIL {name}.{law} case={failure[0]}: {failure[1]}")
    return ok
