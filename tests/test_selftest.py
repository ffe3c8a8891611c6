"""The seeded property-suite runner."""

import pytest

from akizuki import AkizukiRing, selftest
from support import RING_P101, RING_Q


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
        return "simulated failure"

    patched = {"series": (("broken_property", broken),)}
    monkeypatch.setattr(selftest, "SUITES", patched)
    ok, lines = collect(RING_Q, "series")
    assert not ok
    assert lines == ["FAIL series.broken_property case=0: simulated failure"]


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
