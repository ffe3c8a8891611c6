"""Independent list-based arithmetic for checking benchmark results.

Nothing here imports the library: series are plain lists of ints reduced
mod p, and the instance data (exponents, w) is rebuilt from the definitions.
The checks in ``workloads`` compare library results against these routes.
"""

from __future__ import annotations


def minimal_exponents(precision: int) -> list[int]:
    """n_0 = 0, n_{r+1} = 2 n_r + 2, up to the first r with 2 n_r + 2 >= N."""
    ns = [0]
    while 2 * ns[-1] + 2 < precision:
        ns.append(2 * ns[-1] + 2)
    return ns


def w_coeffs(precision: int) -> list[int]:
    """w = t (z - a_0) with all units 1 and minimal exponents, mod t^N."""
    out = [0] * precision
    for n_i in minimal_exponents(precision)[1:]:
        if n_i + 1 < precision:
            out[n_i + 1] = 1
    return out


def mul(a: list[int], b: list[int], p: int) -> list[int]:
    """a * b mod (t^n, p) for two windows of the same length n.

    Kronecker substitution: each window becomes one integer with a slot of
    ``width`` hex digits per coefficient, wide enough that no coefficient of
    the product carries into the next slot, and the two integers are
    multiplied.
    """
    n = len(a)
    width = (2 * (p - 1).bit_length() + n.bit_length() + 3) // 4  # hex digits per slot
    x = int("".join(f"{c:0{width}x}" for c in reversed(a)), 16)
    y = int("".join(f"{c:0{width}x}" for c in reversed(b)), 16)
    digits = f"{x * y:0{2 * n * width}x}"
    top = len(digits)
    return [int(digits[top - (k + 1) * width: top - k * width], 16) % p for k in range(n)]


def add(a: list[int], b: list[int], p: int) -> list[int]:
    return [(x + y) % p for x, y in zip(a, b)]


def sub(a: list[int], b: list[int], p: int) -> list[int]:
    return [(x - y) % p for x, y in zip(a, b)]


def scale(a: list[int], c: int, p: int) -> list[int]:
    return [(c * x) % p for x in a]


def dual_mul(x1, y1, x2, y2, w, p):
    """(x1 + y1 e)(x2 + y2 e) in A[e]/(e - w)^2, i.e. with e^2 = 2 w e - w^2.

    Normal forms multiply this way with e = w (the rewriting rule with
    u = t s_r agrees with u = w in every window it is used in).
    """
    yy = mul(y1, y2, p)
    x = sub(mul(x1, x2, p), mul(mul(w, w, p), yy, p), p)
    y = add(add(mul(x1, y2, p), mul(x2, y1, p), p), scale(mul(w, yy, p), 2, p), p)
    return x, y


def comp_mul(r1, s1, r2, s2, w, p):
    """(r1 + s1 X)(r2 + s2 X) with X^2 = -2 w X - w^2, the closed formula."""
    ss = mul(s1, s2, p)
    rho = sub(mul(r1, r2, p), mul(mul(w, w, p), ss, p), p)
    sigma = sub(add(mul(s1, r2, p), mul(s2, r1, p), p), scale(mul(w, ss, p), 2, p), p)
    return rho, sigma
