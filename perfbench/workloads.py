"""The benchmark's workloads: seeded task generators, timed tasks and checks.

Each workload is a closed loop with one client.  Its task list is an endless
sequence of blocks; block ``b`` of seed ``s`` comes from its own RNG seeded
with ``"<workload>:<s>:<b>"``, so a list is identical on every run and any
prefix can be rebuilt on its own.  Every block holds the workload's fixed
mix of task kinds (or fields) in a seeded order, so a run of whole blocks
sees the same mix whatever the seed.

A workload turns a spec (plain JSON data) into library inputs outside the
timer (``prepare``), runs the timed library calls (``run``) and then checks
the result by an independent route outside the timer (``check``, which
returns None when the result is correct and a message otherwise).  The
library is reached through module and class attributes at call time, so the
span recorder in ``spans`` sees every call once it is installed.
"""

from __future__ import annotations

import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import akizuki as ak
import akizuki.cli

import oracle


def block_rng(name: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{index}")


def q_elem(rng: random.Random, nonzero: bool = False) -> Fraction:
    """A coefficient drawn like the selftest suites: an integer in [-9, 9],
    or with probability 0.2 a quotient p/q with q <= 6."""
    value = Fraction(rng.randint(-9, 9))
    if rng.random() < 0.2:
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    if nonzero and value == 0:
        value = Fraction(rng.randint(1, 9))
    return value


def fp_coeffs(rng: random.Random, count: int, p: int, unit: bool = False) -> list[int]:
    coeffs = [rng.randrange(p) for _ in range(count)]
    if unit:
        coeffs[0] = rng.randrange(1, p)
    return coeffs


def generator_headroom(precision: int, level: int) -> list[int]:
    """Indices i of g0..g6 that generator_nf accepts at ``level``: i below
    the top tail index R and level + 2 n_i + 2 <= 2 n_R + 2."""
    ns = oracle.minimal_exponents(precision)
    top = len(ns) - 1
    return [i for i in range(min(6, top - 1) + 1) if level + 2 * ns[i] + 2 <= 2 * ns[top] + 2]


# ----------------------------------------------------------------------
# random expression trees for the CLI's expression arguments, rendered as
# text together with their constant term (t, w and every g_i have constant
# term 0), which decides whether a subtree is a unit and may stand as a
# divisor.  A Pow base has constant term 0 and no division in it, so Pow
# chains stay sparse, like the short literals of desk use.

_OPS = ("+", "-", "*", "/", "^")
_OP_WEIGHTS = (4, 3, 5, 3, 5)


def _zero(p):
    return Fraction(0) if p == 0 else 0


def _combine(op, a, b, p):
    if op == "+":
        c = a + b
    elif op == "-":
        c = a - b
    elif op == "*":
        c = a * b
    elif p == 0:
        return a / b
    else:
        return a * pow(b, -1, p) % p
    return c if p == 0 else c % p


def random_tree(rng, depth, atoms, max_pow, p, leaf_prob=0.25, divide=True):
    """(text, constant term) of a tree with at most ``depth`` operator levels.

    Leaves are the given atoms or integers 1..9; ``p`` is the field
    characteristic (0 for the rationals).  Below the root, a node is a leaf
    with probability 0.25; ``leaf_prob`` sets it for the root.  With
    ``divide`` false the tree has no division.
    """
    if depth == 0 or rng.random() < leaf_prob:
        if rng.random() < 0.4:
            k = rng.randint(1, 9)
            return str(k), (Fraction(k) if p == 0 else k % p)
        return rng.choice(atoms), _zero(p)
    op = rng.choices(_OPS, _OP_WEIGHTS if divide else _OP_WEIGHTS[:3] + (0, _OP_WEIGHTS[4]))[0]
    if op == "^":
        for _ in range(10):
            text, const = random_tree(rng, depth - 1, atoms, max_pow, p, divide=False)
            if const == 0:
                break
        else:
            text = rng.choice(atoms)
        return f"({text})^{rng.randint(2, max_pow)}", _zero(p)
    left, lc = random_tree(rng, depth - 1, atoms, max_pow, p, divide=divide)
    for _ in range(10 if op == "/" else 1):
        right, rc = random_tree(rng, depth - 1, atoms, max_pow, p, divide=divide)
        if op != "/" or rc != 0:
            break
    else:
        k = rng.randint(1, 9)
        right, rc = str(k), (Fraction(k) if p == 0 else k % p)
    return f"({left} {op} {right})", _combine(op, lc, rc, p)


# ----------------------------------------------------------------------


class Workload:
    """Base class: the block structure shared by every workload."""

    name = ""
    block_size = 1  # tasks per block; a run measures whole blocks
    trace_blocks = 1  # blocks in the fixed prefix that a traced run measures
    setup_code = ""  # run in a fresh interpreter: import and build the rings

    def block(self, seed: int, index: int) -> list[dict]:
        raise NotImplementedError

    def prepare(self, spec: dict):
        return spec

    def run(self, job):
        raise NotImplementedError

    def check(self, job, result) -> str | None:
        raise NotImplementedError


class CompletionFp511(Workload):
    """Dense products and inversions at N = 511 over F_101.

    Each block of five holds three closed products, one product by
    composition of duality maps and one normal-form product plus inverse.
    """

    name = "completion-fp511"
    precision = 511
    p = 101
    block_size = 5
    trace_blocks = 4
    kinds = ("closed", "closed", "closed", "composed", "nf")
    setup_code = "import akizuki\nakizuki.AkizukiRing(akizuki.PrimeField(101), 511)"

    def __init__(self):
        self.ring = ak.AkizukiRing(ak.PrimeField(self.p), self.precision)
        self.w = oracle.w_coeffs(self.precision)

    def block(self, seed, index):
        rng = block_rng(self.name, seed, index)
        kinds = list(self.kinds)
        rng.shuffle(kinds)
        n, p = self.precision, self.p
        specs = []
        for kind in kinds:
            units = kind == "nf"  # x-parts of normal forms are units
            specs.append({
                "kind": kind,
                "a": [fp_coeffs(rng, n, p, unit=units), fp_coeffs(rng, n, p)],
                "b": [fp_coeffs(rng, n, p, unit=units), fp_coeffs(rng, n, p)],
            })
        return specs

    def prepare(self, spec):
        return {"kind": spec["kind"], "a": [tuple(c) for c in spec["a"]],
                "b": [tuple(c) for c in spec["b"]]}

    def run(self, job):
        ring = self.ring
        field = ring.field
        series = ak.TruncatedSeries
        a0, a1 = (series(field, c) for c in job["a"])
        b0, b1 = (series(field, c) for c in job["b"])
        if job["kind"] == "nf":
            product = ring.nf(a0, a1) * ring.nf(b0, b1)
            return product, product.invert()
        a = ak.CompletionElement(ring, a0, a1)
        b = ak.CompletionElement(ring, b0, b1)
        if job["kind"] == "closed":
            return a * b
        return a.mul_via_composition(b, ak.CompletionElement.one(ring))

    def check(self, job, result):
        p, w = self.p, self.w
        (r1, s1), (r2, s2) = job["a"], job["b"]
        if job["kind"] == "nf":
            product, inverse = result
            got = (list(product.x.coeffs), list(product.y.coeffs))
            if got != oracle.dual_mul(r1, s1, r2, s2, w, p):
                return "normal-form product disagrees with the list oracle"
            one = oracle.dual_mul(*got, list(inverse.x.coeffs), list(inverse.y.coeffs), w, p)
            if one != ([1] + [0] * (self.precision - 1), [0] * self.precision):
                return "f * f^-1 != 1 for the normal-form inverse"
            return None
        rho, sigma = list(result.rho.coeffs), list(result.sigma.coeffs)
        if job["kind"] == "composed":
            if (rho, sigma) != oracle.comp_mul(r1, s1, r2, s2, w, p):
                return "composed product != closed product (list oracle)"
            return None
        # Dual basis with eps = X + w (eps^2 = 0): rho + sigma X is
        # (rho - sigma w) + sigma eps, and the two parts multiply as dual numbers.
        e1 = oracle.sub(r1, oracle.mul(w, s1, p), p)
        e2 = oracle.sub(r2, oracle.mul(w, s2, p), p)
        if oracle.sub(rho, oracle.mul(w, sigma, p), p) != oracle.mul(e1, e2, p):
            return "image under X -> -w of the product != product of the images"
        eps = oracle.add(oracle.mul(e1, s2, p), oracle.mul(e2, s1, p), p)
        if sigma != eps:
            return "eps-coefficient of the product != the one from the factors"
        return None


_NF_RE = re.compile(r"\((.*)\) \+ \((.*)\)\*w mod t\^(\d+)$")


class CliDesk(Workload):
    """Desk-scale CLI commands, run in-process with captured output."""

    name = "cli-desk"
    precision = 31
    block_size = 12
    trace_blocks = 40
    # Per block: half on the default q, a third on F_101, a sixth on M31.
    fields = ("q",) * 6 + ("fp:101",) * 4 + ("fp:2147483647",) * 2
    families = (
        "nf", "res", "duality-forward", "duality-inverse", "hom-eval",
        "h1-eq", "h1-zero", "h1-act", "complete-add", "complete-mul",
        "complete-mul-unit", "complete-embed", "extract",
    )
    setup_code = (
        "import akizuki.cli\n"
        "from akizuki.config import RingSettings\n"
        "for spec in ('q', 'fp:101', 'fp:2147483647'):\n"
        "    RingSettings(field_spec=spec).build()"
    )

    def __init__(self):
        self.rings = {
            spec: ak.RingSettings(field_spec=spec).build() for spec in set(self.fields)
        }

    # -- generation ------------------------------------------------------

    @staticmethod
    def _terms(rng, exponents, unit=False):
        """Nonzero terms at distinct exponents from the given candidates."""
        candidates = list(exponents)
        count = rng.randint(1, min(6, len(candidates)))
        chosen = sorted(rng.sample(candidates, count))
        if unit and chosen[0] != 0:
            chosen = [0] + chosen[: count - 1]
        return [(e, q_elem(rng, nonzero=True)) for e in chosen]

    @staticmethod
    def _render(terms):
        if not terms:
            return "0"
        out = ""
        for e, c in terms:
            body = str(abs(c)) if e == 0 else f"{abs(c)}*t" if e == 1 else f"{abs(c)}*t^{e}"
            if not out:
                out = body if c > 0 else "-" + body
            else:
                out += (" + " if c > 0 else " - ") + body
        return out

    def _gf(self, rng, n=None):
        n = n if n is not None else rng.randint(1, self.precision)
        return self._terms(rng, range(n)), self._terms(rng, range(n)), n

    def _gf_text(self, gf):
        x, y, n = gf
        return f"gf({self._render(x)};{self._render(y)};{n})"

    def _hom_text(self, rng, n):
        x, y = self._terms(rng, range(n)), self._terms(rng, range(n))
        return f"hom({n};{self._render(x)};{self._render(y)})"

    def _pair_text(self, rng, unit=False):
        top = range(self.precision)
        sigma, rho = self._terms(rng, top), self._terms(rng, top, unit=unit)
        return f"pair({self._render(sigma)};{self._render(rho)})"

    def _comp_text(self, rng):
        top = range(self.precision)
        return f"comp({self._render(self._terms(rng, top))};{self._render(self._terms(rng, top))})"

    def _expr(self, rng, level, p):
        gens = generator_headroom(self.precision, level)
        atoms = ["t", "w"] + [f"g{i}" for i in gens]
        return random_tree(rng, 2, atoms, 4, p)[0]

    def _argv(self, rng, family, p):
        top = self.precision
        if family == "nf":
            m = rng.randint(2, top)
            return ["nf", self._expr(rng, m, p), "--prec", str(m)]
        if family == "res":
            return ["res", self._pair_text(rng), self._gf_text(self._gf(rng))]
        if family == "duality-forward":
            return ["duality", "forward", self._pair_text(rng), self._gf_text(self._gf(rng))]
        if family == "duality-inverse":
            n = rng.randint(1, top)
            return ["duality", "inverse", self._pair_text(rng, unit=True), self._hom_text(rng, n)]
        if family == "hom-eval":
            n = rng.randint(1, top)
            m = rng.randint(max(n, 2), top)
            return ["hom-eval", self._hom_text(rng, n), self._expr(rng, m, p), "--prec", str(m)]
        if family == "h1-eq":
            x, y, n = first = self._gf(rng, rng.randint(1, top - 1))
            if rng.random() < 0.5:  # the same class over t^(n+1)
                second = ([(e + 1, c) for e, c in x], [(e + 1, c) for e, c in y], n + 1)
            else:
                second = self._gf(rng)
            return ["h1", "eq", self._gf_text(first), self._gf_text(second)]
        if family == "h1-zero":
            if rng.random() < 0.5:  # every term reduces away: the zero class
                n = rng.randint(1, top)
                span = range(n, n + 6)
                gf = (self._terms(rng, span), self._terms(rng, span), n)
            else:
                gf = self._gf(rng)
            return ["h1", "zero", self._gf_text(gf)]
        if family == "h1-act":
            gf = self._gf(rng)
            m = rng.randint(max(gf[2], 2), top)
            return ["h1", "act", self._expr(rng, m, p), self._gf_text(gf), "--prec", str(m)]
        if family in ("complete-add", "complete-mul", "complete-mul-unit"):
            op = "add" if family == "complete-add" else "mul"
            argv = ["complete", op, self._comp_text(rng), self._comp_text(rng)]
            if family == "complete-mul-unit":
                argv += ["--unit", "comp(1;0)"]
            return argv
        if family == "complete-embed":
            return ["complete", "embed", self._expr(rng, top, p)]
        if family == "extract":
            return ["extract", self._pair_text(rng), "--prec", str(rng.randint(2, top))]
        raise ValueError(family)

    def block(self, seed, index):
        rng = block_rng(self.name, seed, index)
        fields = list(self.fields)
        rng.shuffle(fields)
        specs = []
        for spec in fields:
            p = 0 if spec == "q" else int(spec.split(":")[1])
            argv = self._argv(rng, rng.choice(self.families), p)
            if spec != "q":
                argv += ["--field", spec]
            if rng.random() < 1 / 3:
                argv += ["--output", "machine"]
            specs.append({"argv": argv})
        return specs

    # -- timed call and check ---------------------------------------------

    def run(self, job):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = akizuki.cli.main(job["argv"])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def _split(argv):
        """Positional arguments and flag values of a generated argv."""
        positional, flags = [], {}
        items = iter(argv)
        for item in items:
            if item.startswith("--"):
                flags[item] = next(items)
            else:
                positional.append(item)
        return positional, flags

    def check(self, job, result):
        code, out, err = result
        if code != 0 or err:
            return f"exit {code}, stderr {err.strip()!r} for {job['argv']}"
        try:
            expected, printed = self._expected_and_printed(job["argv"], out)
        except (ak.ParseError, ak.AlgebraError, KeyError, ValueError) as exc:
            return f"output {out!r} does not re-parse ({exc}) for {job['argv']}"
        if expected != printed:
            return f"printed {printed} != library {expected} for {job['argv']}"
        return None

    def _expected_and_printed(self, argv, out):
        """The library API's answer for the inputs, and the re-parsed output."""
        positional, flags = self._split(argv)
        ring = self.rings[flags.get("--field", "q")]
        field = ring.field
        level = int(flags.get("--prec", ring.precision))
        machine = flags.get("--output") == "machine"
        rows = dict(line.split(" = ", 1) for line in out.splitlines()) if machine else {}
        bare = out.strip()

        def printed(key):
            return rows[key] if machine else bare

        def nf_of(text):
            return ak.eval_nf(ak.parse_expression(text), ring, level)

        command, args = positional[0], positional[1:]
        if command == "nf":
            form = nf_of(args[0])
            if machine:
                x, y, m = rows["X"], rows["Y"], rows["level"]
            else:
                match = _NF_RE.match(bare)
                if match is None:
                    raise ValueError("not a normal form")
                x, y, m = match.groups()
            m = int(m)
            got = (ak.parse_series(x, field, m), ak.parse_series(y, field, m), m)
            return (form.x, form.y, form.level), got
        if command == "res":
            tail = ak.parse_pair(args[0], ring).residue(ak.parse_gf(args[1], ring))
            return tail, ak.parse_tail(printed("residue"), field)
        if command == "duality":
            pair = ak.parse_pair(args[1], ring)
            if args[0] == "forward":
                hom = pair.forward(ak.parse_gf(args[2], ring))
                return hom, ak.parse_hom(printed("result"), ring)
            omega = pair.inverse(ak.parse_hom(args[2], ring))
            return omega, ak.parse_gf(printed("result"), ring)
        if command == "hom-eval":
            value = ak.parse_hom(args[0], ring)(nf_of(args[1]))
            return value, ak.parse_tail(printed("value"), field)
        if command == "h1":
            query = args[0]
            if query == "eq":
                answer = ak.parse_gf(args[1], ring) == ak.parse_gf(args[2], ring)
                return str(answer).lower(), printed("equal")
            if query == "zero":
                answer = ak.parse_gf(args[1], ring).is_zero()
                return str(answer).lower(), printed("zero")
            omega = ak.parse_gf(args[2], ring).act(nf_of(args[1]))
            return omega, ak.parse_gf(printed("result"), ring)
        if command == "complete":
            op = args[0]
            if op == "embed":
                value = ak.CompletionElement.embed(nf_of(args[1]))
            else:
                a, b = ak.parse_comp(args[1], ring), ak.parse_comp(args[2], ring)
                if op == "add":
                    value = a + b
                elif "--unit" in flags:
                    value = a.mul_via_composition(b, ak.parse_comp(flags["--unit"], ring))
                else:
                    value = a * b
            return value, ak.parse_comp(printed("result"), ring)
        if command == "extract":
            pair = ak.parse_pair(args[0], ring)
            found = ak.extract_pair(ring, pair.forward, level)
            if machine:
                sigma, rho = rows["sigma"], rows["rho"]
                level = int(rows["level"])
            else:
                sigma, rho = bare[len("pair("):-1].split(";")
            got = (ak.parse_series(sigma, field, level), ak.parse_series(rho, field, level))
            return (found.sigma, found.rho), got
        raise ValueError(f"unknown command {command!r}")


WORKLOADS = {w.name: w for w in (CompletionFp511, CliDesk)}
