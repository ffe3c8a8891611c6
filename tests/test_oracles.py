"""The plain-list oracles of tests/support.py share no code with the package:
with the series kernel and every arithmetic method of TruncatedSeries made
to raise, they return the same lists as before."""

import random

import pytest

from akizuki import TruncatedSeries, eval_nf, parse_expression, series
from support import RING_P101, RING_Q, naive_eval, naive_gen, naive_gen_nf, rand_tree

ARITHMETIC = ("__add__", "__sub__", "__neg__", "__mul__", "scale", "invert",
              "shift", "promote", "truncate", "principal_part")


def oracle_values():
    """naive_eval on seeded trees, and naive_gen and naive_gen_nf on every
    representable generator, over q and fp:101 at levels 6 and 14."""
    values = []
    for ring in (RING_Q, RING_P101):
        rng = random.Random(f"oracles:{ring.field}")
        for level in (6, 14):
            values += [naive_eval(rand_tree(rng, 3), ring, level) for _ in range(8)]
            for i in range(ring.top_index):
                values += [naive_gen(ring, i, level), naive_gen_nf(ring, i, level)]
    return values


def test_oracles_run_without_the_package_arithmetic(monkeypatch):
    before = oracle_values()

    def refuse(*args, **kwargs):
        raise AssertionError("an oracle reached the package arithmetic")

    monkeypatch.setattr(series, "_window_mul", refuse)
    monkeypatch.setattr(series, "fused", refuse)
    for name in ARITHMETIC:
        monkeypatch.setattr(TruncatedSeries, name, refuse)
    # the patch reaches the package's own route
    with pytest.raises(AssertionError, match="package arithmetic"):
        eval_nf(parse_expression("w*w"), RING_Q, 6)
    assert oracle_values() == before
