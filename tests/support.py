"""Shared test support: independent oracles, random data generators, and
the runner for the registry of algebraic laws.

The naive_* helpers implement series arithmetic from scratch on plain
coefficient lists, so cross-checks against the package never share code
with the implementation under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

from akizuki import (
    AkizukiRing,
    CohomologyClass,
    CompletionElement,
    ContinuousHom,
    PrimeField,
    RationalField,
    ResiduePair,
    TruncatedSeries,
    selftest,
)
from akizuki.expressions import Atom, BinOp, Gen, Neg, Num, Pow

RING_Q = AkizukiRing(RationalField(), 31)
RING_P101 = AkizukiRing(PrimeField(101), 31)
RING_P2 = AkizukiRing(PrimeField(2), 31)

# ----------------------------------------------------------------------
# naive list-based series arithmetic (the oracle side of dual-route checks)


def field_value(field, value):
    """A plain int or Fraction as a canonical value of ``field``: reduced
    mod p over F_p, a Fraction over Q.  The oracles compute on plain
    numbers and read nothing else of the field but its characteristic."""
    p = field.characteristic
    return value % p if p else Fraction(value)


def naive_mul(a, b, field, n):
    """Schoolbook product mod t^n: plain sums of the pairwise products of
    the nonzero coefficients, each sum made canonical once at the end."""
    acc = [0] * n
    right = [(j, y) for j, y in enumerate(b[:n]) if y]
    for i, x in enumerate(a[:n]):
        if not x:
            continue
        for j, y in right:
            if i + j >= n:
                break
            acc[i + j] += x * y
    return [field_value(field, v) for v in acc]


def naive_inv(a, field, n):
    """The inverse mod t^n by the recurrence sum_{i<=k} a_i out_{k-i} = 0."""
    p = field.characteristic
    lead = pow(a[0], -1, p) if p else 1 / Fraction(a[0])
    out = [lead]
    for k in range(1, n):
        acc = sum(a[i] * out[k - i] for i in range(1, min(k, len(a) - 1) + 1))
        out.append(field_value(field, -acc * lead))
    return out


def naive_w(ring, m):
    out = [ring.field.zero()] * m
    for n_j, a_j in zip(ring.exponents[1:], ring.units[1:]):
        if n_j + 1 < m:
            out[n_j + 1] = a_j
    return out


def naive_gen(ring, i, m):
    """g_i = ((z - a_0 - s_i) / t^{n_i})^2 on plain lists, in a window wide
    enough that dropping invisible terms cannot disturb the result."""
    field = ring.field
    n_i = ring.exponents[i]
    width = m + n_i
    upper = [field.zero()] * width
    for n_j, a_j in zip(ring.exponents[i + 1 :], ring.units[i + 1 :]):
        if n_j < width:
            upper[n_j] = a_j
    q = upper[n_i:]
    return naive_mul(q, q, field, m)


def naive_eval(node, ring, m):
    """Evaluate an expression tree over plain coefficient lists."""
    field = ring.field
    zeros = [field_value(field, 0)] * (m - 1)
    if isinstance(node, Num):
        return [field_value(field, node.value)] + zeros
    if isinstance(node, Atom):
        if node.name == "t":
            return ([field_value(field, 0), field_value(field, 1)] + zeros)[:m]
        return naive_w(ring, m)
    if isinstance(node, Gen):
        return naive_gen(ring, node.index, m)
    if isinstance(node, Neg):
        return [field_value(field, -c) for c in naive_eval(node.arg, ring, m)]
    if isinstance(node, Pow):
        out = [field_value(field, 1)] + zeros
        base = naive_eval(node.base, ring, m)
        for _ in range(node.exponent):
            out = naive_mul(out, base, field, m)
        return out
    left = naive_eval(node.left, ring, m)
    right = naive_eval(node.right, ring, m)
    if node.op == "+":
        return [field_value(field, x + y) for x, y in zip(left, right)]
    if node.op == "-":
        return [field_value(field, x - y) for x, y in zip(left, right)]
    if node.op == "*":
        return naive_mul(left, right, field, m)
    return naive_mul(left, naive_inv(right, field, m), field, m)


# ----------------------------------------------------------------------
# the closed pair formulas, on plain lists: w^2 = 2uw - u^2 for normal forms,
# the 2x2 transition matrix of the duality map, and X^2 = -2wX - w^2 for the
# completion.  Differential oracles for the square-zero kernel in the package.


def _lin(field, *terms):
    """sum of c * a over (c, a) pairs of an int scalar and a list."""
    scalars = [c for c, _ in terms]
    columns = zip(*(a for _, a in terms))
    return [field_value(field, sum(c * v for c, v in zip(scalars, col))) for col in columns]


def admissible(ring, m):
    """The tail indices r with 2 n_r + 2 >= m, read off ``ring.exponents``:
    those for which (w - t s_r)^2 = 0 holds at level m."""
    return [r for r, n_r in enumerate(ring.exponents) if 2 * n_r + 2 >= m]


def naive_u(ring, m, r):
    """t * s_r mod t^m for tail index r."""
    out = [ring.field.zero()] * m
    for n_j, a_j in zip(ring.exponents[1 : r + 1], ring.units[1 : r + 1]):
        if n_j + 1 < m:
            out[n_j + 1] = a_j
    return out


def naive_gen_nf(ring, i, m):
    """g_i as the normal form (x, y) at level m, on plain lists.  With
    u = t s_R and d = u - t s_i, (w - u)^2 = 0 at level m + 2 n_i + 2 gives
    (w - t s_i)^2 = (w - u + d)^2 = d^2 - 2 d u + 2 d w; both parts are
    divisible by t^{2 n_i + 2}."""
    field = ring.field
    drop = 2 * ring.exponents[i] + 2
    need = m + drop
    u = naive_w(ring, need)
    d = _lin(field, (1, u), (-1, naive_u(ring, need, i)))
    x = _lin(field, (1, naive_mul(d, d, field, need)), (-2, naive_mul(d, u, field, need)))
    y = _lin(field, (2, d))
    assert not any(x[:drop]) and not any(y[:drop])
    return x[drop:], y[drop:]


def naive_nf_mul(x1, y1, x2, y2, u, field):
    """(x1 + y1 w)(x2 + y2 w) with w^2 = 2 u w - u^2."""
    n = len(x1)
    yy = naive_mul(y1, y2, field, n)
    x = _lin(field, (1, naive_mul(x1, x2, field, n)),
             (-1, naive_mul(yy, naive_mul(u, u, field, n), field, n)))
    y = _lin(field, (1, naive_mul(x1, y2, field, n)), (1, naive_mul(x2, y1, field, n)),
             (2, naive_mul(yy, u, field, n)))
    return x, y


def naive_nf_inv(x, y, u, field):
    """(x + 2 y u - y w) / (x + y u)^2."""
    n = len(x)
    yu = naive_mul(y, u, field, n)
    d = _lin(field, (1, x), (1, yu))
    e = naive_inv(naive_mul(d, d, field, n), field, n)
    return (naive_mul(_lin(field, (1, x), (2, yu)), e, field, n),
            naive_mul(_lin(field, (-1, y)), e, field, n))


def naive_forward(x, y, sigma, rho, u, field):
    """alpha = x sigma + y rho, beta = x rho + y (2 u rho - u^2 sigma)."""
    n = len(x)
    uu = naive_mul(u, u, field, n)
    alpha = _lin(field, (1, naive_mul(x, sigma, field, n)), (1, naive_mul(y, rho, field, n)))
    inner = _lin(field, (2, naive_mul(u, rho, field, n)), (-1, naive_mul(uu, sigma, field, n)))
    beta = _lin(field, (1, naive_mul(x, rho, field, n)), (1, naive_mul(y, inner, field, n)))
    return alpha, beta


def naive_duality_inverse(alpha, beta, sigma, rho, u, field):
    """The 2x2-matrix inverse: with d = rho - u sigma,
    x = (alpha u (sigma u - 2 rho) + beta rho) / d^2,
    y = (alpha rho - beta sigma) / d^2."""
    n = len(alpha)
    d = _lin(field, (1, rho), (-1, naive_mul(u, sigma, field, n)))
    e = naive_inv(naive_mul(d, d, field, n), field, n)
    su = _lin(field, (1, naive_mul(sigma, u, field, n)), (-2, rho))
    x = _lin(field, (1, naive_mul(naive_mul(alpha, u, field, n), su, field, n)),
             (1, naive_mul(beta, rho, field, n)))
    y = _lin(field, (1, naive_mul(alpha, rho, field, n)), (-1, naive_mul(beta, sigma, field, n)))
    return naive_mul(x, e, field, n), naive_mul(y, e, field, n)


def naive_comp_mul(r1, s1, r2, s2, w, field):
    """(r1 + s1 X)(r2 + s2 X) with X^2 = -2 w X - w^2."""
    n = len(r1)
    ss = naive_mul(s1, s2, field, n)
    rho = _lin(field, (1, naive_mul(r1, r2, field, n)),
               (-1, naive_mul(ss, naive_mul(w, w, field, n), field, n)))
    sigma = _lin(field, (1, naive_mul(s1, r2, field, n)), (1, naive_mul(s2, r1, field, n)),
                 (-2, naive_mul(ss, w, field, n)))
    return rho, sigma


# ----------------------------------------------------------------------
# seeded random data


def rand_elem(rng: random.Random, field, nonzero=False):
    if field.characteristic == 0:
        value = Fraction(rng.randint(-9, 9))
        if rng.random() < 0.25:
            value = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if nonzero and value == 0:
            value = Fraction(rng.randint(1, 9))
        return value
    p = field.characteristic
    value = rng.randrange(p)
    if nonzero and value == 0:
        value = 1 if p == 2 else rng.randrange(1, p)
    return value


def rand_series(rng, field, precision, unit=False):
    coeffs = [rand_elem(rng, field) for _ in range(precision)]
    if unit:
        coeffs[0] = rand_elem(rng, field, nonzero=True)
    return TruncatedSeries(field, tuple(coeffs))


def rand_nf(rng, ring, level, unit=False):
    return ring.nf(
        rand_series(rng, ring.field, level, unit=unit),
        rand_series(rng, ring.field, level),
    )


def rand_klass(rng, ring, max_exponent):
    n = rng.randint(1, max_exponent)
    return CohomologyClass.make(rand_nf(rng, ring, n), n)


def rand_hom(rng, ring, max_level):
    n = rng.randint(1, max_level)
    return ContinuousHom.make(
        ring, rand_series(rng, ring.field, n), rand_series(rng, ring.field, n)
    )


def rand_pair(rng, ring, invertible=True):
    n = ring.precision
    return ResiduePair(
        ring,
        rand_series(rng, ring.field, n),
        rand_series(rng, ring.field, n, unit=invertible),
    )


def rand_comp(rng, ring):
    n = ring.precision
    return CompletionElement(
        ring, rand_series(rng, ring.field, n), rand_series(rng, ring.field, n)
    )


def rand_tree(rng, depth):
    """A random expression tree; division denominators are units by
    construction (a nonzero constant plus t times a subtree)."""
    if depth == 0 or rng.random() < 0.3:
        choice = rng.randrange(6)
        if choice == 0:
            return Atom("t")
        if choice == 1:
            return Atom("w")
        if choice == 2:
            return Gen(0)
        if choice == 3:
            return Gen(1)
        if choice == 4:
            return Pow(Atom("t"), rng.randint(0, 3))
        value = rng.randint(-4, 4)
        return Num(value if value != 0 else 1)
    roll = rng.random()
    if roll < 0.12:
        return Neg(rand_tree(rng, depth - 1))
    if roll < 0.24:
        num = rand_tree(rng, depth - 1)
        den = BinOp(
            "+",
            Num(rng.choice([1, 2, 3, -1, -2])),
            BinOp("*", Atom("t"), rand_tree(rng, depth - 1)),
        )
        return BinOp("/", num, den)
    op = rng.choice(["+", "-", "*", "*"])
    return BinOp(op, rand_tree(rng, depth - 1), rand_tree(rng, depth - 1))


# ----------------------------------------------------------------------
# the law registry

LAW_CASES = 40  # cases of each law on each ring in tier-1 (twice that on q and fp:101)


def assert_laws(ring, *laws, count=LAW_CASES):
    """Each registry law "suite.name" of ``akizuki.selftest`` holds on
    ``count`` cases at seed 0 over ``ring``."""
    for law in laws:
        failure = selftest.check(ring, *law.split("."), 0, count)
        assert failure is None, f"{law} over {ring.field}, case {failure[0]}: {failure[1]}"
