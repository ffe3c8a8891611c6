"""The seeded property-suite runner, the one comparison of its claims, and
the generic laws it states once for every type."""

import operator

import pytest

from akizuki import AkizukiRing, selftest
from support import RING_P101, RING_Q

first_broken = selftest._first_broken


def collect(ring, suite, seed=0, count=2):
    lines = []
    ok = selftest.run(ring, suite, seed, count, write=lines.append)
    return ok, lines


def test_suite_names():
    assert set(selftest.SUITE_NAMES) == {
        "series",
        "ring",
        "cohomology",
        "duality",
        "completion",
        "all",
    }


@pytest.mark.parametrize("suite", sorted(set(selftest.SUITE_NAMES) - {"all"}))
def test_each_suite_passes(suite):
    ok, lines = collect(RING_Q, suite)
    assert ok
    assert lines
    assert all(line.startswith("pass ") for line in lines)


def test_all_runs_every_suite():
    ok, lines = collect(RING_P101, "all", count=1)
    assert ok
    prefixes = {line.split()[1].split(".")[0] for line in lines}
    assert prefixes == {"series", "ring", "cohomology", "duality", "completion"}


def test_determinism():
    ok1, lines1 = collect(RING_Q, "duality", seed=3, count=3)
    ok2, lines2 = collect(RING_Q, "duality", seed=3, count=3)
    assert ok1 and ok2
    assert lines1 == lines2


def test_failures_are_reported(monkeypatch):
    def broken(ring, rng):
        yield 0, 1, "simulated failure"

    patched = {"series": (("broken_property", broken),)}
    monkeypatch.setattr(selftest, "SUITES", patched)
    ok, lines = collect(RING_Q, "series")
    assert not ok
    assert lines == ["FAIL series.broken_property case=0: simulated failure"]


def test_first_broken_formats_only_the_first_broken_claim():
    class Unprintable:
        def __str__(self):
            raise AssertionError("a claim that holds was formatted")

    def claims(seen):
        yield 1, 1, "holds for {}", Unprintable()
        seen.append("second")
        yield 2, 3, "{} != {}", 2, 3
        seen.append("third")
        yield 4, 5, "never reached"

    seen = []
    assert first_broken(claims(seen)) == "2 != 3"
    assert seen == ["second"]
    assert first_broken(iter([(1, 1, "holds")])) is None
    assert first_broken(iter([])) is None


def _generator_nf_without_top_term(ring, i, m):
    """``AkizukiRing.generator_nf`` with the top term a_R t^(n_R) dropped
    from s_R: a wrong normal form whose embedding mod t^m often agrees."""
    drop = ring._generator_drop(i, m)
    need = m + drop
    s_i = ring._terms(1, i + 1, need)
    s_top = ring._terms(1, len(ring.exponents) - 1, need)
    x = (s_i * s_i - s_top * s_top).shift(2).shift(-drop)
    y = (s_top - s_i).shift(1).scale(2).shift(-drop)
    return ring.nf(x, y)


@pytest.mark.parametrize("ring", [RING_Q, RING_P101], ids=lambda r: str(r.field))
def test_generator_consistency_sees_a_wrong_normal_form(monkeypatch, ring):
    monkeypatch.setattr(AkizukiRing, "generator_nf", _generator_nf_without_top_term)
    assert selftest.check(ring, "ring", "generator_consistency", 0, 40) is not None


class Z7:
    """The integers mod 7.  A test replaces one of the operations ``add``,
    ``neg`` and ``mul`` on residues to break exactly one law."""

    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)

    def __init__(self, v):
        self.v = v % 7

    def __eq__(self, other):
        return self.v == other.v

    def __add__(self, other):
        return type(self)(self.add(self.v, other.v))

    def __neg__(self):
        return type(self)(self.neg(self.v))

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        return type(self)(self.mul(self.v, other.v))


def z7(*values, **ops):
    """The values in Z7 with the operations ``ops`` replaced."""
    cls = type("Z7", (Z7,), {name: staticmethod(op) for name, op in ops.items()})
    return [cls(v) for v in values]


RING_BREAKS = [
    ({"add": lambda a, b: -(a + b)}, "addition is not associative"),
    ({"add": lambda a, b: a}, "addition is not commutative"),
    ({"add": lambda a, b: a + b + 1}, "0 is not an additive identity"),
    ({"neg": lambda a: a}, "a - a is not 0"),
    ({"mul": lambda a, b: a * b + 1}, "multiplication is not associative"),
    ({"mul": lambda a, b: a}, "multiplication is not commutative"),
    ({"mul": operator.add}, "multiplication does not distribute over addition"),
    ({"mul": lambda a, b: 2 * a * b}, "1 is not a multiplicative identity"),
]


@pytest.mark.parametrize("ops, broken", RING_BREAKS, ids=[broken for _, broken in RING_BREAKS])
def test_ring_laws_name_the_one_law_a_type_breaks(ops, broken):
    a, b, c, zero, one = z7(1, 2, 3, 0, 1, **ops)
    assert first_broken(selftest._ring_laws(a, b, c, zero, one)) == broken
    if "mul" in ops:  # without a unit only the group laws are checked
        assert first_broken(selftest._ring_laws(a, b, c, zero)) is None


def test_ring_laws_hold_for_a_lawful_type():
    a, b, c, zero, one = z7(1, 2, 3, 0, 1)
    assert first_broken(selftest._ring_laws(a, b, c, zero, one)) is None
    assert first_broken(selftest._ring_laws(a, b, c, zero)) is None


def test_additive_names_the_map_that_does_not_add():
    a, b, three = z7(1, 2, 3)
    assert first_broken(selftest._additive("squaring", lambda x: x * x, a, b)) == (
        "squaring is not additive"
    )
    assert first_broken(selftest._additive("tripling", lambda x: x * three, a, b)) is None


HOM_BREAKS = [
    (lambda x: x + x, "is not multiplicative"),
    (lambda x: x - x, "does not send 1 to 1"),
    (lambda x: x * x, "does not respect negation"),
    (lambda x: x * x * x, "is not additive"),
]


@pytest.mark.parametrize("f, broken", HOM_BREAKS, ids=[broken for _, broken in HOM_BREAKS])
def test_homomorphism_names_the_one_law_a_map_breaks(f, broken):
    a, b, one = z7(2, 3, 1)
    assert first_broken(selftest._homomorphism("f", f, a, b, one, one)) == f"f {broken}"


def test_homomorphism_holds_for_the_identity():
    a, b, one = z7(2, 3, 1)
    assert first_broken(selftest._homomorphism("f", lambda x: x, a, b, one, one)) is None
