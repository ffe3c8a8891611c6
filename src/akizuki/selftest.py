"""The registry of algebraic laws, runnable from the command line.

Each suite re-verifies the laws behind one layer of the library on randomly
generated data.  ``SUITES`` is the one place a law is written: the
``akizuki selftest`` command, the test suite and the acceptance report all
run it through ``check``.  Case i of a law draws from its own RNG seeded by
(seed, law, i), so reported counterexamples are stable under re-ordering or
sharding of the run.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cohomology import CohomologyClass
from .duality import CompletionElement, ContinuousHom, ResiduePair, extract_pair
from .ring import AkizukiRing
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
    return ring.nf(
        _series(rng, ring.field, level, unit=unit), _series(rng, ring.field, level)
    )


def _level(rng, ring, low=1, high=None):
    return rng.randint(low, high if high is not None else ring.precision)


def _klass(rng, ring, high=None):
    n = _level(rng, ring, 1, high)
    return CohomologyClass.make(_nf(rng, ring, n), n)


def _hom(rng, ring, high=None):
    n = _level(rng, ring, 1, high)
    return ContinuousHom.make(
        ring, _series(rng, ring.field, n), _series(rng, ring.field, n)
    )


def _pair(rng, ring, invertible=True):
    n = ring.precision
    return ResiduePair(
        ring,
        _series(rng, ring.field, n),
        _series(rng, ring.field, n, unit=invertible),
    )


def _comp(rng, ring):
    n = ring.precision
    return CompletionElement(
        ring, _series(rng, ring.field, n), _series(rng, ring.field, n)
    )


# ----------------------------------------------------------------------
# series properties


def _series_ring_axioms(ring, rng):
    field = ring.field
    n = rng.randint(1, ring.precision)
    a, b, c = (_series(rng, field, n) for _ in range(3))
    if (a + b) + c != a + (b + c):
        return "addition is not associative"
    if a + b != b + a:
        return "addition is not commutative"
    if (a * b) * c != a * (b * c):
        return "multiplication is not associative"
    if a * b != b * a:
        return "multiplication is not commutative"
    if a * (b + c) != a * b + a * c:
        return "distributivity fails"
    if a + TruncatedSeries.zero(field, n) != a:
        return "0 is not an additive identity"
    if a * TruncatedSeries.one(field, n) != a:
        return "1 is not a multiplicative identity"
    return None


def _series_inverse(ring, rng):
    n = rng.randint(1, ring.precision)
    a = _series(rng, ring.field, n, unit=True)
    if a * a.invert() != TruncatedSeries.one(ring.field, n):
        return f"a * a^-1 != 1 for a = {a}"
    return None


def _series_shift(ring, rng):
    n = rng.randint(2, ring.precision)
    a = _series(rng, ring.field, n)
    k = rng.randint(1, n - 1)
    if a.promote(k).shift(-k) != a:
        return "promote/shift do not invert each other"
    v = a.valuation()
    if a.promote(k).valuation() != (None if v is None else v + k):
        return f"promote({k}) does not raise the valuation by {k}"
    if v is not None and v > 0 and a.shift(-v).valuation() != 0:
        return "shifting out the valuation did not normalize it"
    return None


def _tail_stability(ring, rng):
    n = rng.randint(1, ring.precision - 1)
    f = _series(rng, ring.field, ring.precision)
    if f.principal_part(n) != f.shift(1).principal_part(n + 1):
        return f"principal part not representative-stable for f = {f}"
    return None


def _tail_vanishing(ring, rng):
    n = rng.randint(1, ring.precision)
    f = _series(rng, ring.field, ring.precision)
    vanished = f.principal_part(n).is_zero()
    low = f.truncate(n).is_zero()
    if vanished != low:
        return f"vanishing criterion failed for f = {f}, n = {n}"
    return None


def _tail_linearity(ring, rng):
    n = rng.randint(1, ring.precision)
    f = _series(rng, ring.field, ring.precision)
    g = _series(rng, ring.field, ring.precision)
    c = _series(rng, ring.field, ring.precision)
    lhs = f.principal_part(n).scaled_by(c) + g.principal_part(n)
    rhs = (c * f + g).principal_part(n)
    if lhs != rhs:
        return "tail scaling is not A-linear"
    return None


def _tail_addition(ring, rng):
    n = rng.randint(1, ring.precision)
    f = _series(rng, ring.field, ring.precision)
    g = _series(rng, ring.field, ring.precision)
    if f.principal_part(n) + g.principal_part(n) != (f + g).principal_part(n):
        return "tails do not add as their series do"
    return None


# ----------------------------------------------------------------------
# ring properties


def _embedding_hom(ring, rng):
    m = rng.randint(1, ring.precision)
    f, g = _nf(rng, ring, m), _nf(rng, ring, m)
    if (f + g).embed() != f.embed() + g.embed():
        return "embedding does not respect addition"
    if (f * g).embed() != f.embed() * g.embed():
        return f"embedding does not respect products at level {m}"
    if (-f).embed() != -f.embed():
        return "embedding does not respect negation"
    if ring.one_nf(m).embed() != TruncatedSeries.one(ring.field, m):
        return f"embedding does not send 1 to 1 at level {m}"
    return None


def _inverse_law(ring, rng):
    m = rng.randint(1, ring.precision)
    f = _nf(rng, ring, m, unit=True)
    inverse = f.invert()
    if f * inverse != ring.one_nf(m):
        return f"f * f^-1 != 1 at level {m}"
    return None


def _generator_consistency(ring, rng):
    i = rng.randint(0, max(ring.top_index - 1, 0))
    if i >= ring.top_index:
        return None
    cap = 2 * ring.exponents[ring.top_index] + 2 - (2 * ring.exponents[i] + 2)
    m = rng.randint(1, min(cap, ring.precision))
    form = ring.generator_nf(i, m)
    # With a = t(z - a_0 - s_i) = t^(n_i + 1)(z_i - a_i), the direct
    # expansion of g_i in the completed DVR is a^2 / t^(2 n_i + 2); and with
    # ŵ = t(z - a_0), w - t s_i = a + (w - ŵ) squares to a^2 - 2 a ŵ + 2 a w,
    # which is t^(2 n_i + 2) g_i at level m + 2 n_i + 2: a second route to
    # the normal form itself.
    drop = 2 * ring.exponents[i] + 2
    a = ring.upper_sum_at(i, m + drop).shift(1)
    square = a * a
    if form.embed() != square.shift(-drop):
        return f"g{i} normal form disagrees with its direct expansion at level {m}"
    w_hat = ring.upper_sum_at(0, m + drop).shift(1)
    x = (square - (a * w_hat).scale(2)).shift(-drop)
    if (form.x, form.y) != (x, a.scale(2).shift(-drop)):
        return f"g{i} normal form disagrees with (w - t s_{i})^2 / t^{drop} at level {m}"
    return None


def _exponent_growth(ring, rng):
    for r, n_r in enumerate(ring.exponents):
        if n_r < 2 ** (r + 1) - 2:
            return f"exponent n_{r} = {n_r} below the forced growth 2^{r + 1} - 2"
    return None


# ----------------------------------------------------------------------
# cohomology properties


def _raising_invariance(ring, rng):
    k = rng.randint(0, min(4, ring.precision - 1))
    n = rng.randint(1, ring.precision - k)
    f = _nf(rng, ring, n)
    raised = ring.nf(f.x.promote(k), f.y.promote(k))
    a = CohomologyClass.make(f, n)
    b = CohomologyClass.make(raised, n + k)
    if a != b:
        return f"class of f/t^{n} differs from t^{k} f/t^{n + k}"
    return None


def _annihilation(ring, rng):
    omega = _klass(rng, ring)
    n = omega.exponent
    tn = ring.nf(
        TruncatedSeries.t_power(ring.field, n, ring.precision),
        TruncatedSeries.zero(ring.field, ring.precision),
    )
    if not omega.act(tn).is_zero():
        return f"t^{n} does not annihilate a class with denominator t^{n}"
    return None


def _action_compatible(ring, rng):
    omega = _klass(rng, ring)
    f = _nf(rng, ring, ring.precision)
    g = _nf(rng, ring, ring.precision)
    if omega.act(f * g) != omega.act(f).act(g):
        return "action is not multiplicative"
    return None


def _bilinearity(ring, rng):
    omega1 = _klass(rng, ring)
    omega2 = _klass(rng, ring)
    f = _nf(rng, ring, ring.precision)
    lhs = (omega1 + omega2).act(f)
    rhs = omega1.act(f) + omega2.act(f)
    if lhs != rhs:
        return "action is not additive in the class"
    g = _nf(rng, ring, ring.precision)
    if omega1.act(f + g) != omega1.act(f) + omega1.act(g):
        return "action is not additive in the ring element"
    return None


def _zero_detection(ring, rng):
    n = rng.randint(1, ring.precision)
    k = rng.randint(n, ring.precision)
    f = _nf(rng, ring, ring.precision)
    shifted = ring.nf(f.x.shift(k).truncate(n), f.y.shift(k).truncate(n))
    omega = CohomologyClass.make(shifted, n)
    if not omega.is_zero():
        return f"t^{k}-multiple numerator not detected as zero over t^{n}"
    return None


def _class_addition(ring, rng):
    a, b, c = _klass(rng, ring), _klass(rng, ring), _klass(rng, ring)
    if (a + b) + c != a + (b + c):
        return "class addition is not associative"
    if a + b != b + a:
        return "class addition is not commutative"
    if a + CohomologyClass.zero(ring) != a:
        return "the zero class is not an additive identity"
    return None


# ----------------------------------------------------------------------
# duality properties


def _residue_well_defined(ring, rng):
    pair = _pair(rng, ring, invertible=False)
    n = rng.randint(1, ring.precision - 1)
    f = _nf(rng, ring, n)
    raised = ring.nf(f.x.promote(1), f.y.promote(1))
    a = pair.residue(CohomologyClass.make(f, n))
    b = pair.residue(CohomologyClass.make(raised, n + 1))
    if a != b:
        return "residue differs across representatives"
    return None


def _residue_linear(ring, rng):
    pair = _pair(rng, ring, invertible=False)
    omega1, omega2 = _klass(rng, ring), _klass(rng, ring)
    a = _series(rng, ring.field, ring.precision)
    lhs = pair.residue(omega1.scaled(a) + omega2)
    rhs = pair.residue(omega1).scaled_by(a) + pair.residue(omega2)
    if lhs != rhs:
        return "residue is not A-linear"
    return None


def _defining_identity(ring, rng):
    pair = _pair(rng, ring, invertible=False)
    omega = _klass(rng, ring)
    f = _nf(rng, ring, ring.precision)
    if pair.forward(omega)(f) != pair.residue(omega.act(f)):
        return "forward hom disagrees with the residue of the acted class"
    return None


def _roundtrip_class(ring, rng):
    pair = _pair(rng, ring, invertible=True)
    omega = _klass(rng, ring)
    if pair.inverse(pair.forward(omega)) != omega:
        return f"inverse(forward(omega)) != omega for omega = {omega}"
    return None


def _roundtrip_hom(ring, rng):
    pair = _pair(rng, ring, invertible=True)
    hom = _hom(rng, ring)
    if pair.forward(pair.inverse(hom)) != hom:
        return f"forward(inverse(hom)) != hom for hom = {hom}"
    return None


def _pair_additivity(ring, rng):
    p1 = _pair(rng, ring, invertible=False)
    p2 = _pair(rng, ring, invertible=False)
    omega = _klass(rng, ring)
    if p1.residue(omega) + p2.residue(omega) != (p1 + p2).residue(omega):
        return "residues are not additive in the pair"
    if p1.forward(omega) + p2.forward(omega) != (p1 + p2).forward(omega):
        return "forward maps are not additive in the pair"
    return None


def _cm_linearity(ring, rng):
    pair = _pair(rng, ring, invertible=False)
    omega = _klass(rng, ring)
    f = _nf(rng, ring, ring.precision)
    g = _nf(rng, ring, ring.precision)
    lhs = pair.forward(omega.act(f))(g)
    rhs = pair.forward(omega)(f * g)
    if lhs != rhs:
        return "forward map is not C_M-linear in the class"
    return None


def _canonical_levels(ring, rng):
    pair = _pair(rng, ring, invertible=True)
    omega, hom = _klass(rng, ring), _hom(rng, ring)
    level = pair.forward(omega).level
    if level != omega.exponent:
        return f"forward sends exponent {omega.exponent} to level {level}"
    exponent = pair.inverse(hom).exponent
    if exponent != hom.level:
        return f"inverse sends level {hom.level} to exponent {exponent}"
    return None


def _hom_addition(ring, rng):
    a, b, c = _hom(rng, ring), _hom(rng, ring), _hom(rng, ring)
    if (a + b) + c != a + (b + c):
        return "hom addition is not associative"
    if a + b != b + a:
        return "hom addition is not commutative"
    if a + ContinuousHom.zero(ring) != a:
        return "the zero hom is not an additive identity"
    if a - a != ContinuousHom.zero(ring):
        return "h - h is not the zero hom"
    k = rng.randint(0, min(4, ring.precision - a.level))
    if ContinuousHom(ring, *a.raised(a.level + k)) != a:
        return f"a hom differs from the hom of its numerators times t^{k}"
    return None


def _forward_additive(ring, rng):
    pair = _pair(rng, ring, invertible=True)
    a, b = _klass(rng, ring), _klass(rng, ring)
    if pair.forward(a + b) != pair.forward(a) + pair.forward(b):
        return "forward is not additive in the class"
    h1, h2 = _hom(rng, ring), _hom(rng, ring)
    if pair.inverse(h1 + h2) != pair.inverse(h1) + pair.inverse(h2):
        return "inverse is not additive in the hom"
    return None


# ----------------------------------------------------------------------
# completion properties


def _nilpotent(ring, rng):
    eps = CompletionElement(
        ring, ring.w, TruncatedSeries.one(ring.field, ring.precision)
    )
    if eps.is_zero():
        return "w + X is zero in the completion"
    if not (eps * eps).is_zero():
        return "(w + X)^2 != 0 in the completion"
    return None


def _comp_axioms(ring, rng):
    a, b, c = _comp(rng, ring), _comp(rng, ring), _comp(rng, ring)
    if (a * b) * c != a * (b * c):
        return "completion product is not associative"
    if a * b != b * a:
        return "completion product is not commutative"
    if a * (b + c) != a * b + a * c:
        return "completion product does not distribute"
    if a * CompletionElement.one(ring) != a:
        return "comp(1;0) is not a unit element"
    if a + CompletionElement.zero(ring) != a:
        return "comp(0;0) is not an additive identity"
    if not (a - a).is_zero():
        return "a - a is not zero"
    return None


def _closed_vs_composed(ring, rng):
    a = _comp(rng, ring)
    b = _comp(rng, ring)
    unit = CompletionElement.one(ring)
    if a.mul_via_composition(b, unit) != a * b:
        return "operational product disagrees with the closed formula"
    return None


def _embed_multiplicative(ring, rng):
    n = ring.precision
    f, g = _nf(rng, ring, n), _nf(rng, ring, n)
    lhs = CompletionElement.embed(f * g)
    rhs = CompletionElement.embed(f) * CompletionElement.embed(g)
    if lhs != rhs:
        return "embedding into the completion is not multiplicative"
    if CompletionElement.embed(f + g) != CompletionElement.embed(f) + CompletionElement.embed(g):
        return "embedding into the completion is not additive"
    if CompletionElement.embed(ring.one_nf(n)) != CompletionElement.one(ring):
        return "embedding into the completion does not send 1 to 1"
    return None


def _endo_extraction(ring, rng):
    pair = _pair(rng, ring, invertible=False)
    n = rng.randint(1, ring.precision)
    found = extract_pair(ring, pair.forward, n)
    if found.sigma != pair.sigma.truncate(n) or found.rho != pair.rho.truncate(n):
        return f"extraction at level {n} does not recover the pair"
    if n < ring.precision and extract_pair(ring, pair.forward, n + 1).truncated(n) != found:
        return f"extraction at levels {n} and {n + 1} disagrees"
    return None


def _unit_composition(ring, rng):
    a, b = _comp(rng, ring), _comp(rng, ring)
    n = ring.precision
    unit = CompletionElement(
        ring, _series(rng, ring.field, n, unit=True), _series(rng, ring.field, n)
    )
    if a.mul_via_composition(b, unit) * unit != a * b:
        return f"composition relative to {unit} is not a e^-1 b"
    return None


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
    ],
    "completion": [
        ("nilpotent", _nilpotent),
        ("comp_axioms", _comp_axioms),
        ("closed_vs_composed", _closed_vs_composed),
        ("embed_multiplicative", _embed_multiplicative),
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
        detail = law(ring, random.Random(f"{seed}:{suite}.{name}:{i}"))
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
