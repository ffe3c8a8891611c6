"""Parsing and evaluation of ring expressions.

Grammar: atoms ``t``, ``w``, ``g0``, ``g1``, ...; integer constants;
operators ``+ - * /``; parentheses; ``^`` with a nonnegative integer
exponent.  Rational constants are spelled as quotients (``1/2``), which the
evaluator resolves by local division, so they need no dedicated literal.
Parentheses and unary signs nest at most MAX_NESTING deep, and over q the
coefficients of a power stay within MAX_POWER_BITS bits.
"""

from __future__ import annotations

import operator
import re

from .errors import AlgebraError, ParseError
from .fields import parse_int
from .ring import AkizukiRing, NormalForm
from .series import TruncatedSeries
from .value import Value

# Each level of parentheses costs the recursive-descent parser five Python
# frames; this bound keeps parsing well inside the default recursion limit.
MAX_NESTING = 100

# Over q, repeated squaring doubles the bit size of a coefficient at every
# step, so 2^k would build a k-bit integer in log2(k) products.  A power
# stops with AlgebraError once a numerator or denominator of its
# coefficients passes this many bits; a step at most doubles the size, so
# no intermediate grows past about twice the cap.  Coefficients past 4300
# digits (about 14300 bits) cannot be printed anyway.
MAX_POWER_BITS = 1 << 16


class Num(Value):
    __slots__ = _fields = ("value",)


class Atom(Value):
    __slots__ = _fields = ("name",)  # "t" or "w"


class Gen(Value):
    __slots__ = _fields = ("index",)


class Neg(Value):
    __slots__ = _fields = ("arg",)


class BinOp(Value):
    __slots__ = _fields = ("op", "left", "right")  # op one of + - * /


class Pow(Value):
    __slots__ = _fields = ("base", "exponent")


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(g\d+)|([tw])|([()+\-*/^])|(\S))")


def _tokenize(text: str) -> tuple:
    """The (kind, value) tokens of an expression, and each token's text."""
    tokens, spelled = [], []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            break
        number, gen, atom, op, bad = m.groups()
        if bad is not None:
            raise ParseError(f"unexpected character {bad!r} in expression")
        if number is not None:
            tokens.append(("num", parse_int(number)))
        elif gen is not None:
            tokens.append(("gen", parse_int(gen[1:])))
        elif atom is not None:
            tokens.append(("atom", atom))
        else:
            tokens.append(("op", op))
        spelled.append(m.group(m.lastindex))
        pos = m.end()
    return tokens, spelled


class _Parser:
    def __init__(self, tokens, spelled):
        self.tokens, self.spelled = tokens, spelled
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.take()
        if tok != ("op", op):
            raise ParseError(f"expected {op!r}, got {self.spelled[self.pos - 1]!r}")

    def nested(self, parse):
        """Run a sub-parser one nesting level deeper."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels")
        node = parse()
        self.depth -= 1
        return node

    def parse(self):
        node = self.sum()
        if self.peek() is not None:
            raise ParseError(f"trailing input at {self.spelled[self.pos]!r}")
        return node

    def sum(self):
        node = self.product()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            node = BinOp(op, node, self.product())
        return node

    def product(self):
        node = self.signed()
        while self.peek() in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            node = BinOp(op, node, self.signed())
        return node

    def signed(self):
        if self.peek() == ("op", "-"):
            self.take()
            return Neg(self.nested(self.signed))
        if self.peek() == ("op", "+"):
            self.take()
            return self.nested(self.signed)
        return self.power()

    def power(self):
        node = self.primary()
        if self.peek() == ("op", "^"):
            self.take()
            kind, value = self.take()
            if kind != "num":
                raise ParseError("the exponent after ^ must be a nonnegative integer")
            node = Pow(node, value)
        return node

    def primary(self):
        kind, value = self.take()
        if kind == "num":
            return Num(value)
        if kind == "atom":
            return Atom(value)
        if kind == "gen":
            return Gen(value)
        if (kind, value) == ("op", "("):
            node = self.nested(self.sum)
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {value!r}")


def parse_expression(text: str):
    """Parse an expression into an AST; raises ParseError on bad input."""
    tokens, spelled = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    return _Parser(tokens, spelled).parse()


def _power(base, k: int):
    """base^k for k >= 1 by left-to-right binary exponentiation: fewer than
    2 log2(k) products, each step checked against MAX_POWER_BITS."""
    out = base
    for bit in bin(k)[3:]:
        out = out * out
        if bit == "1":
            out = out * base
        if _largest_bits(out) > MAX_POWER_BITS:
            raise AlgebraError(
                f"a power has a coefficient of more than {MAX_POWER_BITS} bits"
            )
    return out


def _largest_bits(form: NormalForm) -> int:
    """The bit size of the largest numerator or denominator among the
    coefficients of a normal form (0 over F_p, where they stay below p)."""
    if form.ring.field.characteristic:
        return 0
    return max(
        max(c.numerator.bit_length(), c.denominator.bit_length())
        for part in (form.x, form.y)
        for c in part.coeffs
    )


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": lambda left, right: left * right.invert()}


def eval_nf(node, ring: AkizukiRing, level: int) -> NormalForm:
    """Evaluate an AST to a normal form at the given level.

    The tree is folded bottom-up, left to right; an explicit stack keeps
    long chains off the Python stack."""
    field = ring.field
    todo, values = [(node, False)], []
    while todo:
        node, ready = todo.pop()
        if isinstance(node, Num):
            values.append(ring.constant_nf(field.from_int(node.value), level))
        elif isinstance(node, Gen):
            values.append(ring.generator_nf(node.index, level))
        elif isinstance(node, Atom) and node.name == "t":
            t = TruncatedSeries.t_power(field, 1, level)
            values.append(ring.nf(t, TruncatedSeries.zero(field, level)))
        elif isinstance(node, Atom):
            values.append(ring.w_nf(level))
        elif not isinstance(node, (Neg, Pow, BinOp)):
            raise TypeError(f"not an expression node: {node!r}")
        elif not ready:
            todo.append((node, True))
            if isinstance(node, BinOp):
                todo += [(node.right, False), (node.left, False)]
            else:
                todo.append((node.arg if isinstance(node, Neg) else node.base, False))
        elif isinstance(node, Neg):
            values.append(-values.pop())
        elif isinstance(node, Pow):
            base, k = values.pop(), node.exponent
            values.append(_power(base, k) if k else ring.one_nf(level))
        else:
            right = values.pop()
            values.append(_BINARY[node.op](values.pop(), right))
    return values[0]
