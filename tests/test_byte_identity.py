"""Byte identity of printed results across kernel changes.

``transcript()`` runs a seeded mix of series, normal-form, duality and
completion operations over q, fp:2 and fp:101 at precisions 2, 5, 31 and
64, and renders each result with ``str()``.  The test compares the
transcript with ``golden/byte_identity.txt`` line by line, so any change to
a kernel that moves a printed coefficient shows here.  The golden file was
written by the code before the fused series kernel, when normal forms and
the duality maps took a reduction index r, with one line per admissible r
(2 n_r + 2 >= the level).  The transcript keeps those lines, each now from
the one relation (w - ŵ)^2 = 0, so the file also pins that every admissible
r gave the same result.  Its ``comp embed:`` lines are the completion map
x + y w -> comp(x + 2ŵ y; y), checked against the list oracles when they
were written.  Regenerate the file only for a change that means to alter
output:

    PYTHONPATH=src python tests/test_byte_identity.py > tests/golden/byte_identity.txt
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from akizuki import (
    AkizukiRing,
    CohomologyClass,
    CompletionElement,
    ContinuousHom,
    PrimeField,
    RationalField,
    ResiduePair,
    TruncatedSeries,
)
from support import admissible

GOLDEN = Path(__file__).with_name("golden") / "byte_identity.txt"
FIELDS = (RationalField(), PrimeField(2), PrimeField(101))
PRECISIONS = (2, 5, 31, 64)
CASES = 4


def _coeff(rng, field, nonzero=False):
    if field.characteristic == 0:
        value = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5, 7)))
        return value if value or not nonzero else Fraction(rng.randint(1, 9))
    p = field.characteristic
    return rng.randrange(1, p) if nonzero else rng.randrange(p)


def _series(rng, field, n, unit=False):
    coeffs = [_coeff(rng, field) for _ in range(n)]
    if unit:
        coeffs[0] = _coeff(rng, field, nonzero=True)
    return TruncatedSeries(field, tuple(coeffs))


def _block(rng, ring):
    """The lines of one case on one ring."""
    field, top = ring.field, ring.precision
    out = []
    emit = out.append

    a, b = _series(rng, field, top, unit=True), _series(rng, field, top)
    emit(f"series mul: {a * b}")
    emit(f"series add: {a + b}")
    emit(f"series sub: {a - b}")
    emit(f"series neg: {-b}")
    emit(f"series scale: {b.scale(_coeff(rng, field))}")
    emit(f"series invert: {a.invert()}")

    m = rng.randint(2, top)
    f = ring.nf(_series(rng, field, m, unit=True), _series(rng, field, m))
    g = ring.nf(_series(rng, field, m), _series(rng, field, m))
    for r in admissible(ring, m):
        emit(f"nf mul m={m} r={r}: {f * g}")
        emit(f"nf invert m={m} r={r}: {f.invert()}")
    full = ring.nf(_series(rng, field, top), _series(rng, field, top))
    emit(f"nf embed: {full.embed()}")

    pair = ResiduePair(ring, _series(rng, field, top), _series(rng, field, top, unit=True))
    n = rng.randint(1, top)
    omega = CohomologyClass.make(ring.nf(_series(rng, field, n), _series(rng, field, n)), n)
    hom = ContinuousHom.make(ring, _series(rng, field, n), _series(rng, field, n))
    emit(f"residue {omega}: {pair.residue(omega)}")
    for r in admissible(ring, n):
        emit(f"forward n={n} r={r}: {pair.forward(omega)}")
        emit(f"inverse n={n} r={r}: {pair.inverse(hom)}")
    level = rng.randint(max(hom.level, 1), top)
    h = ring.nf(_series(rng, field, level), _series(rng, field, level))
    emit(f"hom call {hom}: {hom(h)}")

    x = CompletionElement(ring, _series(rng, field, top), _series(rng, field, top))
    y = CompletionElement(ring, _series(rng, field, top), _series(rng, field, top))
    emit(f"comp mul: {x * y}")
    emit(f"comp mul composed: {x.mul_via_composition(y, CompletionElement.one(ring))}")
    emit(f"comp embed: {CompletionElement.embed(full)}")
    return out


def transcript() -> list[str]:
    lines = []
    for field in FIELDS:
        for precision in PRECISIONS:
            ring = AkizukiRing(field, precision)
            rng = random.Random(f"byte-identity:{field}:{precision}")
            for case in range(CASES):
                prefix = f"{field} N={precision} case={case} "
                lines += [prefix + line for line in _block(rng, ring)]
    return lines


def test_transcript_matches_golden():
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = transcript()
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        assert got_line == want_line


if __name__ == "__main__":
    print("\n".join(transcript()))
