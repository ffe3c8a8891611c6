"""The contract of the library's immutable value types.

Every value type (series and tails, the five types built on a pair of
series, the two fields, ring settings and the six expression nodes) builds
the same value from positional and keyword arguments, is equal only to a
value of its own class with equal fields, hashes alike when equal, refuses
assignment, and copies and pickles to an equal value.  ``repr`` is pinned
by ``golden/value_reprs.txt``, one line per sample; the file was written by
the code before the value types stopped being frozen dataclasses, so it
also pins their generated reprs.  Regenerate it only for a change that
means to alter a repr:

    PYTHONPATH=src python tests/test_value_types.py > tests/golden/value_reprs.txt
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from akizuki import (
    AkizukiRing,
    Atom,
    BinOp,
    CohomologyClass,
    CompletionElement,
    ContinuousHom,
    Gen,
    LaurentTail,
    Neg,
    NormalForm,
    Num,
    Pow,
    PrimeField,
    RationalField,
    ResiduePair,
    RingSettings,
    TruncatedSeries,
)

GOLDEN = Path(__file__).with_name("golden") / "value_reprs.txt"

# The field names of each type, in constructor order.
FIELDS = {
    TruncatedSeries: ("field", "coeffs"),
    LaurentTail: ("field", "coeffs"),
    NormalForm: ("ring", "x", "y"),
    CohomologyClass: ("ring", "x", "y"),
    ResiduePair: ("ring", "sigma", "rho"),
    ContinuousHom: ("ring", "alpha", "beta"),
    CompletionElement: ("ring", "rho", "sigma"),
    PrimeField: ("p",),
    RationalField: (),
    RingSettings: ("field_spec", "precision", "exponents", "units"),
    Num: ("value",),
    Atom: ("name",),
    Gen: ("index",),
    Neg: ("arg",),
    BinOp: ("op", "left", "right"),
    Pow: ("base", "exponent"),
}


def samples() -> list[tuple[type, tuple]]:
    """(type, positional arguments) of pairwise distinct values, every type
    with more than one value at least twice."""
    q, f5 = RationalField(), PrimeField(5)
    out = [(RationalField, ()), (PrimeField, (5,)), (PrimeField, (101,))]
    for field, ring in ((q, AkizukiRing(q, 4)), (f5, AkizukiRing(f5, 4, units=(2, 3)))):
        one, zero = field.one(), field.zero()
        a = (one, field.from_int(3), zero, field.from_int(-1))
        b = (zero, zero, field.from_int(2), one)
        low = (zero, field.from_int(4))
        if field is q:
            a, low = (Fraction(1, 2), *a[1:]), (zero, Fraction(-2, 3))
        sa, sb = TruncatedSeries(field, a), TruncatedSeries(field, b)
        # the t-divisible numerators of the classes and homs cut to level 2
        ta, tb = TruncatedSeries(field, (zero, zero, *low)), TruncatedSeries(field, (zero, *b[1:]))
        out += [
            (TruncatedSeries, (field, a)),
            (TruncatedSeries, (field, low)),
            (LaurentTail, (field, a)),
            (LaurentTail, (field, (*low, zero, zero))),
            (NormalForm, (ring, sa, sb)),
            (NormalForm, (ring, sb, sa)),
            (CohomologyClass, (ring, sa, sb)),
            (CohomologyClass, (ring, ta, tb)),
            (ResiduePair, (ring, sa, sb)),
            (ResiduePair, (ring, sb, sa)),
            (ContinuousHom, (ring, sa, sb)),
            (ContinuousHom, (ring, ta, tb)),
            (CompletionElement, (ring, sa, sb)),
            (CompletionElement, (ring, sb, sa)),
        ]
    out += [
        (RingSettings, ()),
        (RingSettings, ("fp:101", 9, (0, 3, 8), ("1", "-1", "2"))),
        (RingSettings, ("q", 40, "minimal", None)),
        (Num, (3,)),
        (Num, (10**30,)),
        (Atom, ("t",)),
        (Atom, ("w",)),
        (Gen, (0,)),
        (Gen, (2,)),
        (Neg, (Num(1),)),
        (Neg, (Neg(Atom("t")),)),
        (BinOp, ("+", Num(1), Atom("w"))),
        (BinOp, ("/", Gen(1), BinOp("*", Atom("t"), Num(2)))),
        (Pow, (Atom("t"), 3)),
        (Pow, (BinOp("-", Atom("w"), Num(1)), 0)),
    ]
    return out


def _build(cls, args):
    """The value from positional arguments and the one from keywords."""
    return cls(*args), cls(**dict(zip(FIELDS[cls], args)))


def test_every_type_is_sampled():
    assert {cls for cls, _ in samples()} == set(FIELDS)


@pytest.mark.parametrize("index", range(len(samples())))
def test_value_contract(index):
    cls, args = samples()[index]
    value, named = _build(cls, args)
    assert type(value) is cls and value == named and not value != named
    assert hash(value) == hash(named)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert copy.copy(value) == value
    clones = [copy.deepcopy(value), pickle.loads(pickle.dumps(value))]
    if "ring" in FIELDS[cls]:
        # a pair compares its ring by identity, and these copy the ring too
        assert [type(clone) for clone in clones] == [cls, cls]
    else:
        assert clones == [value, value]


@pytest.mark.parametrize("index", range(len(samples())))
def test_bad_arguments_are_type_errors(index):
    cls, args = samples()[index]
    names = FIELDS[cls]
    with pytest.raises(TypeError):
        cls(*args, *[None] * (len(names) + 1 - len(args)))
    with pytest.raises(TypeError):
        cls(*args, unknown=None)
    if args:
        with pytest.raises(TypeError):
            cls(*args, **{names[0]: args[0]})
    if args and cls is not RingSettings:  # every RingSettings field has a default
        with pytest.raises(TypeError):
            cls(*args[:-1])


def test_values_differ_across_samples_and_classes():
    """Distinct samples are unequal, including a normal form and a class
    built from the same ring and series."""
    values = [cls(*args) for cls, args in samples()]
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            assert (a == b) == (i == j), (a, b)


def test_repr_matches_golden():
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert [repr(cls(*args)) for cls, args in samples()] == want


if __name__ == "__main__":
    print("\n".join(repr(cls(*args)) for cls, args in samples()))
