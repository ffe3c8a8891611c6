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
from akizuki.series import Terms

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


def naive_sum(field, n, terms):
    """The low n coefficients of the sum of the terms (sign, a) = sign a and
    (sign, a, b) = sign a b, as the fused kernel takes them: a is a list or
    a series, and b a list, a series, None (the series 1) or ``Terms``
    (sparse (exponent, coefficient) pairs)."""
    acc = [0] * n
    for sign, a, *b in terms:
        b = b[0] if b else None
        if b is None:
            b = [1]
        elif isinstance(b, Terms):
            sparse = dict(b)
            b = [sparse.get(e, 0) for e in range(n)]
        prod = naive_mul(_coeffs(a), _coeffs(b), field, n)
        acc = [o + sign * v for o, v in zip(acc, prod)]
    return [field_value(field, v) for v in acc]


def _coeffs(a):
    """The coefficients of a series, or a plain list as it is."""
    return a.coeffs if isinstance(a, TruncatedSeries) else a


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


def reduce_mod_p(values, p):
    """Rationals n/d, with d prime to p, as n d^-1 mod p, on plain ints: the
    ring map from them onto F_p."""
    return [Fraction(v).numerator * pow(Fraction(v).denominator, -1, p) % p for v in values]


def lists(*series):
    """The coefficient lists of series."""
    return [list(s.coeffs) for s in series]


def raised(field, coeffs, n):
    """A numerator list over t^m rewritten over t^n."""
    return [field.zero()] * (n - len(coeffs)) + list(coeffs)


def row_reduce_mod_p(rows, p):
    """The reduced row echelon form over F_p of a matrix of ints with at
    least one row, by Gauss-Jordan elimination, and its pivot columns."""
    rows = [[v % p for v in row] for row in rows]
    pivots = []
    for col in range(len(rows[0])):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], -1, p)
        top = rows[r] = [v * inv % p for v in rows[r]]
        for i, row in enumerate(rows):
            c = row[col]
            if i != r and c:
                rows[i] = [(v - c * u) % p for v, u in zip(row, top)]
        pivots.append(col)
    return rows, pivots


def rank_mod_p(rows, p):
    """The rank over F_p of a matrix given as lists of ints."""
    return len(row_reduce_mod_p(rows, p)[1]) if rows else 0


def solve_mod_p(rows, rhs, p):
    """The solution c of rows c = rhs over F_p, for a square matrix of ints
    that is nonsingular mod p; ValueError if the matrix is singular."""
    n = len(rows)
    reduced, pivots = row_reduce_mod_p([list(row) + [b] for row, b in zip(rows, rhs)], p)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n] for row in reduced]


def nullspace_mod_p(rows, p):
    """A basis of the vectors c with rows c = 0 over F_p, one per column
    without a pivot, read off the reduced row echelon form."""
    reduced, pivots = row_reduce_mod_p(rows, p)
    basis = []
    for free in sorted(set(range(len(reduced[0]))) - set(pivots)):
        c = [0] * len(reduced[0])
        c[free] = 1
        for r, col in enumerate(pivots):
            c[col] = -reduced[r][free] % p
        basis.append(c)
    return basis


def commutant_mod_p(mats, p):
    """A basis of the m x m matrices X over F_p with X A = A X for every
    m x m matrix A in ``mats`` (lists of rows), each X as its rows."""
    m = len(mats[0])
    equations = []
    for a in mats:
        for i in range(m):
            for j in range(m):  # (X A - A X)[i][j] over the unknowns X[i][k] at i m + k
                row = [0] * (m * m)
                for k in range(m):
                    row[i * m + k] += a[k][j]
                    row[k * m + j] -= a[i][k]
                equations.append(row)
    return [[c[i * m : (i + 1) * m] for i in range(m)] for c in nullspace_mod_p(equations, p)]


def action_rows(ring, n):
    """The matrices of t and of w on H[t^n], from the list oracles, in the
    basis gf(t^j;0;n), gf(0;t^j;n), j < n (``coordinates``): row k of each
    is the image of basis vector k, so a class with coordinates v goes to
    v M.  t acts as (x, y) -> (t x, t y) and w as (x, y) -> (-u^2 y,
    x + 2 u y), for u = ``naive_w``, all mod t^n."""
    field = ring.field
    u = naive_w(ring, n)
    uu = naive_mul(u, u, field, n)
    t_rows, w_rows = [], []
    for j in range(n):
        tj = [field_value(field, int(i == j)) for i in range(n)]
        zero = [field_value(field, 0)] * n
        for x, y in ((tj, zero), (zero, tj)):
            t_rows.append(coordinates([0] + x[:-1], [0] + y[:-1]))
            w_rows.append(coordinates(lin(field, (-1, naive_mul(uu, y, field, n))),
                                      lin(field, (1, x), (2, naive_mul(u, y, field, n)))))
    return t_rows, w_rows


def coordinates(x, y):
    """The coordinates x_0, y_0, x_1, y_1, ... of gf(x;y;n) in the basis
    gf(t^j;0;n), gf(0;t^j;n), from its two numerator lists over t^n."""
    return [c for pair in zip(x, y) for c in pair]


def valuation(coeffs):
    """The index of the first nonzero coefficient, or None for zero."""
    return next((k for k, c in enumerate(coeffs) if c), None)


# ----------------------------------------------------------------------
# the closed pair formulas, on plain lists: w^2 = 2uw - u^2 for normal forms,
# the 2x2 transition matrix of the duality map, and X^2 = -2wX - w^2 for the
# completion.  Differential oracles for the square-zero kernel in the package.


def lin(field, *terms):
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


def closed_u(ring, m):
    """The one coefficient u of the closed formulas at level m: t s_r mod t^m
    is the same list for every admissible r, and equals ŵ mod t^m."""
    w = naive_w(ring, m)
    for r in admissible(ring, m):
        assert naive_u(ring, m, r) == w, (m, r)
    return w


def naive_gen_nf(ring, i, m):
    """g_i as the normal form (x, y) at level m, on plain lists.  With
    u = t s_R and d = u - t s_i, (w - u)^2 = 0 at level m + 2 n_i + 2 gives
    (w - t s_i)^2 = (w - u + d)^2 = d^2 - 2 d u + 2 d w; both parts are
    divisible by t^{2 n_i + 2}."""
    field = ring.field
    drop = 2 * ring.exponents[i] + 2
    need = m + drop
    u = naive_w(ring, need)
    d = lin(field, (1, u), (-1, naive_u(ring, need, i)))
    x = lin(field, (1, naive_mul(d, d, field, need)), (-2, naive_mul(d, u, field, need)))
    y = lin(field, (2, d))
    assert not any(x[:drop]) and not any(y[:drop])
    return x[drop:], y[drop:]


def naive_nf_mul(x1, y1, x2, y2, u, field):
    """(x1 + y1 w)(x2 + y2 w) with w^2 = 2 u w - u^2."""
    n = len(x1)
    yy = naive_mul(y1, y2, field, n)
    x = lin(field, (1, naive_mul(x1, x2, field, n)),
            (-1, naive_mul(yy, naive_mul(u, u, field, n), field, n)))
    y = lin(field, (1, naive_mul(x1, y2, field, n)), (1, naive_mul(x2, y1, field, n)),
            (2, naive_mul(yy, u, field, n)))
    return x, y


def naive_nf_inv(x, y, u, field):
    """(x + 2 y u - y w) / (x + y u)^2."""
    n = len(x)
    yu = naive_mul(y, u, field, n)
    d = lin(field, (1, x), (1, yu))
    e = naive_inv(naive_mul(d, d, field, n), field, n)
    return (naive_mul(lin(field, (1, x), (2, yu)), e, field, n),
            naive_mul(lin(field, (-1, y)), e, field, n))


def naive_forward(x, y, sigma, rho, u, field):
    """alpha = x sigma + y rho, beta = x rho + y (2 u rho - u^2 sigma)."""
    n = len(x)
    uu = naive_mul(u, u, field, n)
    alpha = lin(field, (1, naive_mul(x, sigma, field, n)), (1, naive_mul(y, rho, field, n)))
    inner = lin(field, (2, naive_mul(u, rho, field, n)), (-1, naive_mul(uu, sigma, field, n)))
    beta = lin(field, (1, naive_mul(x, rho, field, n)), (1, naive_mul(y, inner, field, n)))
    return alpha, beta


def naive_duality_inverse(alpha, beta, sigma, rho, u, field):
    """The 2x2-matrix inverse: with d = rho - u sigma,
    x = (alpha u (sigma u - 2 rho) + beta rho) / d^2,
    y = (alpha rho - beta sigma) / d^2."""
    n = len(alpha)
    d = lin(field, (1, rho), (-1, naive_mul(u, sigma, field, n)))
    e = naive_inv(naive_mul(d, d, field, n), field, n)
    su = lin(field, (1, naive_mul(sigma, u, field, n)), (-2, rho))
    x = lin(field, (1, naive_mul(naive_mul(alpha, u, field, n), su, field, n)),
            (1, naive_mul(beta, rho, field, n)))
    y = lin(field, (1, naive_mul(alpha, rho, field, n)), (-1, naive_mul(beta, sigma, field, n)))
    return naive_mul(x, e, field, n), naive_mul(y, e, field, n)


def naive_comp_mul(r1, s1, r2, s2, w, field):
    """(r1 + s1 X)(r2 + s2 X) with X^2 = -2 w X - w^2."""
    n = len(r1)
    ss = naive_mul(s1, s2, field, n)
    rho = lin(field, (1, naive_mul(r1, r2, field, n)),
              (-1, naive_mul(ss, naive_mul(w, w, field, n), field, n)))
    sigma = lin(field, (1, naive_mul(s1, r2, field, n)), (1, naive_mul(s2, r1, field, n)),
                (-2, naive_mul(ss, w, field, n)))
    return rho, sigma


# ----------------------------------------------------------------------
# each layer against its closed formula, with u = ŵ (``closed_u``)


def tail_list(tail, n):
    """The principal part as the numerator list over t^n."""
    return list(tail.numerator(n).coeffs)


def check_nf(ring, f, g):
    field, m = ring.field, f.level
    u = closed_u(ring, m)
    got = f * g
    assert lists(got.x, got.y) == list(naive_nf_mul(*lists(f.x, f.y, g.x, g.y), u, field))
    if f.is_unit():
        inv = f.invert()
        assert lists(inv.x, inv.y) == list(naive_nf_inv(*lists(f.x, f.y), u, field))


def check_duality(ring, pair, omega_nf, hom):
    """The residue, forward and inverse maps of an invertible pair at the
    level n of ``omega_nf``, and ``hom`` at level n or below it.  Results
    come back canonical, with common factors of t dropped; raised back over
    t^n they are the oracles' representatives."""
    field, n = ring.field, omega_nf.level
    omega = CohomologyClass.make(omega_nf, n)
    sig, rho = lists(pair.sigma.truncate(n), pair.rho.truncate(n))
    x, y = lists(omega_nf.x, omega_nf.y)
    alpha, beta = (raised(field, c, n) for c in lists(hom.alpha, hom.beta))
    u = closed_u(ring, n)
    want = lin(field, (1, naive_mul(x, sig, field, n)), (1, naive_mul(y, rho, field, n)))
    assert tail_list(pair.residue(omega), n) == want
    fwd = pair.forward(omega)
    assert [raised(field, c, n) for c in lists(fwd.alpha, fwd.beta)] == list(
        naive_forward(x, y, sig, rho, u, field)
    )
    back = pair.inverse(hom).numerator
    assert [raised(field, c, n) for c in lists(back.x, back.y)] == list(
        naive_duality_inverse(alpha, beta, sig, rho, u, field)
    )


def check_hom(ring, hom, f):
    field, n = ring.field, hom.level
    g = f.truncate(n)
    alpha, beta = lists(hom.alpha, hom.beta)
    x, y = lists(g.x, g.y)
    want = lin(field, (1, naive_mul(x, alpha, field, n)), (1, naive_mul(y, beta, field, n)))
    assert tail_list(hom(f), n) == want


def check_completion(ring, a, b, composed=True):
    want = naive_comp_mul(*lists(a.rho, a.sigma, b.rho, b.sigma), naive_w(ring, ring.precision), ring.field)
    got = a * b
    assert lists(got.rho, got.sigma) == list(want)
    if composed:
        other = a.mul_via_composition(b, CompletionElement.one(ring))
        assert lists(other.rho, other.sigma) == list(want)


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


def rand_coeff(rng, field, nonzero=False):
    """A field value for the kernel suites; over q, numerators of either sign
    over one of several unrelated small denominators."""
    if field.characteristic == 0:
        value = Fraction(rng.randint(-99, 99), rng.choice((1, 2, 3, 7, 11, 13)))
        return value or Fraction(1) if nonzero else value
    p = field.characteristic
    return rng.randrange(1, p) if nonzero else rng.randrange(p)


def rand_dense(rng, field, n, unit=False):
    """A series of n ``rand_coeff`` values, with a nonzero constant term if
    ``unit``."""
    coeffs = [rand_coeff(rng, field) for _ in range(n)]
    if unit:
        coeffs[0] = rand_coeff(rng, field, nonzero=True)
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
