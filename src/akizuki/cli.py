"""Command-line interface.

Exit codes: 0 success, 1 domain error (non-unit, precision, bad instance),
2 parse or usage error, 3 selftest failure.  Output is deterministic; with
``--output machine`` every command emits line-oriented ``key = value`` text.
"""

from __future__ import annotations

import argparse
import sys

from .config import RingSettings
from .duality import CompletionElement, extract_pair
from .errors import AlgebraError, ParseError
from .expressions import eval_nf, parse_expression
from .literals import parse_comp, parse_gf, parse_hom, parse_pair

# selftest.SUITE_NAMES, in its order (the usage error lists them), written
# out so that only the selftest command loads the law registry.
SUITE_NAMES = ("series", "ring", "cohomology", "duality", "completion", "all")


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ParseError, so they print as one
    ``parse error: ...`` line with exit code 2 like every other bad input."""

    def error(self, message):
        raise ParseError(message)


def _common_flags(sub, prec=False):
    sub.add_argument("--config", help="instance config file")
    sub.add_argument("--field", help="coefficient field: q or fp:<prime>")
    if prec:
        sub.add_argument(
            "--prec", type=int, default=None,
            help="working level for this command (default: the instance precision)",
        )
    sub.add_argument(
        "--output", choices=("pretty", "machine"), default="pretty",
        help="output style",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="akizuki",
        description="Exact arithmetic in a truncated model of Akizuki's local domain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", help="normal form of a ring expression")
    p.add_argument("expr")
    _common_flags(p, prec=True)

    p = sub.add_parser("res", help="residue of a cohomology class under a pair")
    p.add_argument("pair")
    p.add_argument("gf")
    _common_flags(p)

    p = sub.add_parser("duality", help="apply the duality map or its inverse")
    p.add_argument("direction", choices=("forward", "inverse"))
    p.add_argument("pair")
    p.add_argument("arg", help="gf(...) for forward, hom(...) for inverse")
    _common_flags(p)

    p = sub.add_parser("hom-eval", help="evaluate a continuous hom on an expression")
    p.add_argument("hom")
    p.add_argument("expr")
    _common_flags(p, prec=True)

    p = sub.add_parser("h1", help="cohomology-class queries")
    p.add_argument("query", choices=("eq", "zero", "act"))
    p.add_argument("args", nargs="+",
                   help="eq: gf gf | zero: gf | act: expr gf")
    _common_flags(p, prec=True)

    p = sub.add_parser("complete", help="arithmetic in the completed ring")
    p.add_argument("op", choices=("add", "mul", "embed"))
    p.add_argument("args", nargs="+",
                   help="add/mul: comp comp | embed: expr")
    p.add_argument("--unit", default=None,
                   help="for mul: compute via composition relative to this comp(...)")
    _common_flags(p)

    p = sub.add_parser("extract", help="recover a pair from its duality map")
    p.add_argument("pair")
    _common_flags(p, prec=True)

    p = sub.add_parser("selftest", help="run a seeded property suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--count", type=int, default=100, help="cases per law")
    _common_flags(p)

    return parser


def _resolve_ring(args):
    settings = RingSettings.from_file(args.config) if args.config else RingSettings()
    if args.field:
        settings = settings.replace(field_spec=args.field)
    return settings.build()


def _level(args, ring):
    level = args.prec if args.prec is not None else ring.precision
    if not 1 <= level <= ring.precision:
        raise AlgebraError(
            f"level {level} outside the instance capacity 1..{ring.precision}"
        )
    return level


def _emit(args, rows, bare):
    """Print ``str(bare)`` in pretty mode, and in machine mode a ``key =
    value`` line for each (key, value) of ``rows``, an iterable read only
    then.  Only the printed text is formatted, all before anything prints."""
    if args.output == "machine":
        text = "\n".join(f"{key} = {value}" for key, value in rows)
    else:
        text = str(bare)
    print(text)


def _need(args_list, count, usage):
    if len(args_list) != count:
        raise ParseError(f"expected {usage}")
    return args_list


def _cmd_nf(args, ring):
    level = _level(args, ring)
    form = eval_nf(parse_expression(args.expr), ring, level)
    _emit(args, ((key, getattr(form, key.lower())) for key in ("X", "Y", "level")), bare=form)
    return 0


def _cmd_res(args, ring):
    pair = parse_pair(args.pair, ring)
    omega = parse_gf(args.gf, ring)
    tail = pair.residue(omega)
    _emit(args, [("residue", tail)], bare=tail)
    return 0


def _cmd_duality(args, ring):
    pair = parse_pair(args.pair, ring)
    if args.direction == "forward":
        result = pair.forward(parse_gf(args.arg, ring))
    else:
        result = pair.inverse(parse_hom(args.arg, ring))
    _emit(args, [("result", result)], bare=result)
    return 0


def _cmd_hom_eval(args, ring):
    hom = parse_hom(args.hom, ring)
    level = _level(args, ring)
    f = eval_nf(parse_expression(args.expr), ring, level)
    value = hom(f)
    _emit(args, [("value", value)], bare=value)
    return 0


def _cmd_h1(args, ring):
    if args.prec is not None and args.query != "act":
        raise ParseError(f"--prec applies to h1 act, not h1 {args.query}")
    if args.query == "eq":
        a_text, b_text = _need(args.args, 2, "h1 eq <gf> <gf>")
        answer = str(parse_gf(a_text, ring) == parse_gf(b_text, ring)).lower()
        _emit(args, [("equal", answer)], bare=answer)
    elif args.query == "zero":
        (a_text,) = _need(args.args, 1, "h1 zero <gf>")
        answer = str(parse_gf(a_text, ring).is_zero()).lower()
        _emit(args, [("zero", answer)], bare=answer)
    else:
        expr_text, gf_text = _need(args.args, 2, "h1 act <expr> <gf>")
        omega = parse_gf(gf_text, ring)
        level = _level(args, ring)
        f = eval_nf(parse_expression(expr_text), ring, level)
        result = omega.act(f)
        _emit(args, [("result", result)], bare=result)
    return 0


def _cmd_complete(args, ring):
    if args.unit is not None and args.op != "mul":
        raise ParseError(f"--unit applies to complete mul, not complete {args.op}")
    if args.op == "embed":
        (expr_text,) = _need(args.args, 1, "complete embed <expr>")
        result = CompletionElement.embed(eval_nf(parse_expression(expr_text), ring, ring.precision))
    else:
        a_text, b_text = _need(args.args, 2, f"complete {args.op} <comp> <comp>")
        a = parse_comp(a_text, ring)
        b = parse_comp(b_text, ring)
        if args.op == "add":
            result = a + b
        elif args.unit is not None:
            result = a.mul_via_composition(b, parse_comp(args.unit, ring))
        else:
            result = a * b
    _emit(args, [("result", result)], bare=result)
    return 0


def _cmd_extract(args, ring):
    pair = parse_pair(args.pair, ring)
    level = _level(args, ring)
    found = extract_pair(ring, pair.forward, level)
    _emit(args, ((key, getattr(found, key)) for key in ("sigma", "rho", "level")), bare=found)
    return 0


def _cmd_selftest(args, ring):
    if args.count < 1:
        raise ParseError(f"--count must be at least 1, got {args.count}")
    from . import selftest
    ok = selftest.run(ring, args.suite, args.seed, args.count)
    print(f"selftest {args.suite}: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 3


_DISPATCH = {
    "nf": _cmd_nf,
    "res": _cmd_res,
    "duality": _cmd_duality,
    "hom-eval": _cmd_hom_eval,
    "h1": _cmd_h1,
    "complete": _cmd_complete,
    "extract": _cmd_extract,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        ring = _resolve_ring(args)
        return _DISPATCH[args.command](args, ring)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def app() -> None:
    raise SystemExit(main())
