"""Expression parsing, and normal-form evaluation checked against the
plain-list oracles of tests/support.py."""

import random
import time

import pytest

from akizuki import (
    AlgebraError,
    Atom,
    BinOp,
    Gen,
    Neg,
    NormalForm,
    NotInvertibleError,
    Num,
    ParseError,
    Pow,
    TruncatedSeries,
    eval_nf,
    parse_expression,
    parse_series,
)
from akizuki.expressions import MAX_NESTING, MAX_POWER_BITS
from support import RING_P2, RING_P101, RING_Q, naive_eval, naive_gen_nf, rand_tree


def S(text, precision, ring=RING_Q):
    return parse_series(text, ring.field, precision)


# ----------------------------------------------------------------------
# parsing


def test_parse_shapes():
    assert parse_expression("t") == Atom("t")
    assert parse_expression("w") == Atom("w")
    assert parse_expression("g2") == Gen(2)
    assert parse_expression("3") == Num(3)
    assert parse_expression("-t") == Neg(Atom("t"))
    assert parse_expression("+t") == Atom("t")
    assert parse_expression("t + w") == BinOp("+", Atom("t"), Atom("w"))
    assert parse_expression("t^3") == Pow(Atom("t"), 3)
    assert parse_expression("(1+t)*w") == BinOp(
        "*", BinOp("+", Num(1), Atom("t")), Atom("w")
    )


def test_parse_precedence():
    assert parse_expression("1 + t*w") == BinOp(
        "+", Num(1), BinOp("*", Atom("t"), Atom("w"))
    )
    assert parse_expression("t^2*w") == BinOp("*", Pow(Atom("t"), 2), Atom("w"))
    assert parse_expression("1 - t - w") == BinOp(
        "-", BinOp("-", Num(1), Atom("t")), Atom("w")
    )
    assert parse_expression("-t^2") == Neg(Pow(Atom("t"), 2))


def test_parse_errors():
    for bad in ("", "t +", "(t", "t )", "t ^ w", "$", "t t", "1/", "^2"):
        with pytest.raises(ParseError):
            parse_expression(bad)


# ----------------------------------------------------------------------
# evaluation goldens


def test_eval_w_square():
    sq = eval_nf(parse_expression("w^2"), RING_Q, 14)
    assert sq.x == S("-t^6 - 2*t^10", 14)
    assert sq.y == S("2*t^3 + 2*t^7", 14)
    assert list(sq.embed().coeffs) == naive_eval(parse_expression("w^2"), RING_Q, 14)


def test_eval_geometric_inverse():
    inv = eval_nf(parse_expression("1/(1 - t*w)"), RING_Q, 6)
    assert inv.x == S("1", 6)
    assert inv.y == S("t + 2*t^5", 6)
    back = inv * eval_nf(parse_expression("1 - t*w"), RING_Q, 6)
    assert back == RING_Q.one_nf(6)


def test_eval_generator_atom():
    assert eval_nf(parse_expression("g0"), RING_Q, 12) == RING_Q.generator_nf(0, 12)
    g1 = eval_nf(parse_expression("g1"), RING_Q, 12)
    assert [list(g1.x.coeffs), list(g1.y.coeffs)] == list(naive_gen_nf(RING_Q, 1, 12))


def test_eval_division_by_non_unit():
    with pytest.raises(NotInvertibleError):
        eval_nf(parse_expression("1/t"), RING_Q, 6)
    with pytest.raises(NotInvertibleError):
        eval_nf(parse_expression("1/w"), RING_Q, 6)


def test_eval_constants_and_signs():
    assert eval_nf(parse_expression("-3"), RING_Q, 4) == RING_Q.constant_nf(-3, 4)
    assert eval_nf(parse_expression("2^3"), RING_Q, 4) == RING_Q.constant_nf(8, 4)
    assert eval_nf(parse_expression("t^5"), RING_Q, 4) == RING_Q.constant_nf(0, 4)


# ----------------------------------------------------------------------
# the dual-route property: normal-form evaluation embeds to the same DVR
# value as the plain-list oracle


@pytest.mark.parametrize(
    "ring", [RING_Q, RING_P101, RING_P2], ids=lambda r: str(r.field)
)
def test_random_trees_dual_route(ring):
    rng = random.Random(43)
    level = 14
    for _ in range(60):
        tree = rand_tree(rng, rng.randint(0, 4))
        try:
            via_nf = eval_nf(tree, ring, level).embed()
        except NotInvertibleError:
            # denominator degenerated to a non-unit mod p: skip
            continue
        via_lists = TruncatedSeries(ring.field, tuple(naive_eval(tree, ring, level)))
        assert via_nf == via_lists


def test_roundtrip_eval_matches_manual():
    tree = parse_expression("(1 + w)^2 - 2*w")
    out = eval_nf(tree, RING_Q, 14)
    manual = RING_Q.one_nf(14) + (RING_Q.w_nf(14) * RING_Q.w_nf(14))
    assert out == manual


# ----------------------------------------------------------------------
# powers by repeated squaring, and limits of the parser


def test_pow_agrees_with_repeated_products():
    base = parse_expression("1 + t - 2*w + g0/3")
    level = 14
    nf_base, nf_out = eval_nf(base, RING_Q, level), RING_Q.one_nf(level)
    for k in range(21):
        power = eval_nf(Pow(base, k), RING_Q, level)
        assert power == nf_out, k
        assert list(power.embed().coeffs) == naive_eval(Pow(base, k), RING_Q, level), k
        nf_out = nf_out * nf_base


def test_pow_uses_repeated_squaring(monkeypatch):
    products = []
    mul = NormalForm.mul

    def counting_mul(self, other):
        products.append(1)
        assert len(products) <= 2 * 18, "Pow multiplies the base in a loop"
        return mul(self, other)

    monkeypatch.setattr(NormalForm, "mul", counting_mul)
    eval_nf(parse_expression("(1+w)^200000"), RING_Q, 8)  # 200000 < 2^18
    assert products


def test_pow_large_exponent_over_fp2():
    # (1 + t)^(2^20) = 1 + t^(2^20) in characteristic 2
    tree = parse_expression("(1+t)^1048576")
    assert eval_nf(tree, RING_P2, 8) == RING_P2.one_nf(8)
    # the same identity by the plain-list oracle, at an exponent it can loop
    assert naive_eval(parse_expression("(1+t)^8"), RING_P2, 8) == [1] + [0] * 7


@pytest.mark.parametrize("text", ["2^1000000000", "(1/3 + t)^1000000", "(2+w)^70000"])
def test_power_past_the_bit_cap_is_an_algebra_error(text):
    start = time.perf_counter()
    tree = parse_expression(text)
    with pytest.raises(AlgebraError, match=f"more than {MAX_POWER_BITS} bits"):
        eval_nf(tree, RING_Q, 8)
    assert time.perf_counter() - start < 5


def test_power_up_to_the_bit_cap_evaluates():
    k = MAX_POWER_BITS - 1
    value = eval_nf(parse_expression(f"2^{k}"), RING_Q, 4)
    assert value == RING_Q.constant_nf(2**k, 4)
    # the cap reads coefficients, not the exponent: no growth over F_p
    assert eval_nf(parse_expression("(2+w)^1000000"), RING_P101, 8).level == 8


def test_long_chain_evaluates():
    # a left-deep tree far deeper than Python's recursion limit
    tree = parse_expression("+".join(["1"] * 3000))
    assert eval_nf(tree, RING_P101, 4) == RING_P101.constant_nf(3000, 4)


@pytest.mark.parametrize(
    "text",
    ["(" * 3000 + "t" + ")" * 3000, "-" * 3000 + "t", "-(" * 1500 + "t" + ")" * 1500],
    ids=["parentheses", "unary-minus", "mixed"],
)
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested deeper"):
        parse_expression(text)


def test_nesting_up_to_the_limit_parses():
    text = "(" * MAX_NESTING + "t" + ")" * MAX_NESTING
    assert parse_expression(text) == Atom("t")
    node = parse_expression("-" * MAX_NESTING + "t")
    for _ in range(MAX_NESTING):
        node = node.arg
    assert node == Atom("t")
    with pytest.raises(ParseError):
        parse_expression("(" + text + ")")


def test_overlong_integer_is_a_parse_error():
    with pytest.raises(ParseError, match="5000 digits"):
        parse_expression("1 + " + "7" * 5000)
    with pytest.raises(ParseError, match="5000 digits"):
        parse_expression("g" + "1" * 5000)
