"""Parsing and evaluation of ring expressions.

Grammar: atoms ``t``, ``w``, ``g0``, ``g1``, ...; integer constants;
operators ``+ - * /``; parentheses; ``^`` with a nonnegative integer
exponent.  Rational constants are spelled as quotients (``1/2``), which the
evaluator resolves by local division, so they need no dedicated literal.
Parentheses and unary signs nest at most MAX_NESTING deep.

Two evaluators share one walk over the tree: ``eval_nf`` works through
normal forms (the ring's own arithmetic), while ``eval_series`` evaluates
the same expression directly in the completed DVR and serves as an
independent cross-check.  They differ only in their leaves.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

from .errors import ParseError
from .fields import parse_int
from .ring import AkizukiRing, NormalForm
from .series import TruncatedSeries

# Each level of parentheses costs the recursive-descent parser five Python
# frames; this bound keeps parsing well inside the default recursion limit.
MAX_NESTING = 100


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Atom:
    name: str  # "t" or "w"


@dataclass(frozen=True)
class Gen:
    index: int


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(g\d+)|([tw])|([()+\-*/^])|(\S))")


def _tokenize(text: str) -> list:
    tokens = []
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
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
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
            raise ParseError(f"expected {op!r}, got {tok!r}")

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
            raise ParseError(f"trailing input at token {self.peek()!r}")
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
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    return _Parser(tokens).parse()


def _power(base, k: int):
    """base^k for k >= 1 by left-to-right binary exponentiation: fewer than
    2 log2(k) products."""
    out = base
    for bit in bin(k)[3:]:
        out = out * out
        if bit == "1":
            out = out * base
    return out


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": lambda left, right: left * right.invert()}


def _evaluate(root, leaf):
    """Fold a tree bottom-up, left to right, with ``leaf`` valuing Num, Atom
    and Gen; an explicit stack keeps long chains off the Python stack."""
    todo, values = [(root, False)], []
    while todo:
        node, ready = todo.pop()
        if isinstance(node, (Num, Atom, Gen)):
            values.append(leaf(node))
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
            values.append(_power(base, k) if k else leaf(Num(1)))
        else:
            right = values.pop()
            values.append(_BINARY[node.op](values.pop(), right))
    return values[0]


def eval_nf(node, ring: AkizukiRing, level: int) -> NormalForm:
    """Evaluate an AST to a normal form at the given level."""
    field = ring.field

    def leaf(node):
        if isinstance(node, Num):
            return ring.constant_nf(field.from_int(node.value), level)
        if isinstance(node, Gen):
            return ring.generator_nf(node.index, level)
        if node.name == "t":
            return ring.nf(
                TruncatedSeries.t_power(field, 1, level),
                TruncatedSeries.zero(field, level),
            )
        return ring.w_nf(level)

    return _evaluate(node, leaf)


def eval_series(node, ring: AkizukiRing, level: int) -> TruncatedSeries:
    """Evaluate an AST directly in the completed DVR, mod t^level."""
    field = ring.field

    def leaf(node):
        if isinstance(node, Num):
            return TruncatedSeries.constant(field, field.from_int(node.value), level)
        if isinstance(node, Gen):
            return ring.generator_series(node.index, level)
        if node.name == "t":
            return TruncatedSeries.t_power(field, 1, level)
        return ring.w.truncate(level)

    return _evaluate(node, leaf)
