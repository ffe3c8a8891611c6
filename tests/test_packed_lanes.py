"""Differential tests of the F_p lanes and of the mod-p reduction on the
packed integer.

Over F_p a window longer than the short-window rule allows
(``series._SHORT_BYTES``) packs its operands from their lanes, the values
as little-endian bytes of the least width that holds p - 1, and reduces the
kernel's sum mod p on the packed integer instead of one ``%`` per
coefficient.  Here the reduction ``series._reduce`` is checked against
``%`` for slots of 1 to 23 bytes and primes from 2 to the largest one the
prime test admits, the kernel is checked against the schoolbook oracles of
``support`` on windows just below, at, just above and 4 times above the
short-window limit, every lanes cache is decoded and compared with the
values it caches, and the cache is shown to stay out of equality, hashing,
repr and pickling.
"""

import copy
import pickle
import random

import pytest

from akizuki import AkizukiRing, CompletionElement, PrimeField, TruncatedSeries
from akizuki.fields import PRIME_LIMIT
from akizuki.series import Terms, _reduce, _SHORT_BYTES, fused
import akizuki.series
from support import check_completion, check_nf, naive_inv, naive_mul, naive_sum, rand_dense
from test_value_types import GOLDEN, samples

PRIMES = [
    2, 3, 101, 251, 257, 65521, 2**31 - 1, 4294967291, 4294967311, 2**61 - 1,
    PRIME_LIMIT - 168,  # the largest prime below PRIME_LIMIT
]


def width(p):
    """Bytes per lane: the least that hold p - 1."""
    return max(1, -(-(p - 1).bit_length() // 8))


def decode(raw, w):
    """The values of w-byte little-endian lanes, read one by one."""
    return [int.from_bytes(raw[i : i + w], "little") for i in range(0, len(raw), w)]


def check_lanes(s):
    """A series' lanes, when the kernel has set them, decode to its values."""
    lanes = getattr(s, "_lanes", None)
    if lanes is not None:
        assert type(lanes) is bytes
        assert decode(lanes, width(s.field.p)) == list(s.coeffs)
    return lanes is not None


# ----------------------------------------------------------------------
# the reduction on the packed integer


@pytest.mark.parametrize("p", PRIMES)
def test_packed_reduction_matches_mod_p_at_every_slot_width(p):
    """Slots whose values fill all their bits (reduced three slots apart)
    and slots with a free top bit (two apart)."""
    rng = random.Random(f"reduce:{p}")
    for size in range(width(p), max(12, 2 * width(p) + 2)):  # kernel slots hold p - 1
        for bits in (8 * size, 8 * size - 1):
            top = (1 << bits) - 1
            for n in (_SHORT_BYTES // size - 1, _SHORT_BYTES // size, 4 * _SHORT_BYTES // size):
                windows = [
                    [top] * n,  # every slot full
                    [min(p - 1, top)] * n,
                    [rng.randrange(top + 1) for _ in range(n)],
                    # multiples of p and their neighbours
                    [min(top, max(0, p * rng.randrange(top // p + 1) + rng.choice((-1, 0, 1)))) for _ in range(n)],
                ]
                for values in windows:
                    packed = int.from_bytes(b"".join(v.to_bytes(size, "little") for v in values), "little")
                    got = _reduce(packed, n, size, p, bits)
                    assert len(got) == n * size
                    assert decode(got, size) == [v % p for v in values], (p, size, bits, n)


# ----------------------------------------------------------------------
# the kernel on both sides of the short-window limit


def short_limit(p):
    """The longest product window that keeps the short-window path (0 when
    even one coefficient needs a slot of more than 8 bytes)."""
    n = 0
    while True:
        size = -(-((p - 1) ** 2 * (n + 1)).bit_length() // 8)
        lane = 1 << (size - 1).bit_length()
        if size > 8 or (n + 1) * lane > _SHORT_BYTES:
            return n
        n += 1


@pytest.mark.parametrize("p", PRIMES)
def test_kernel_on_both_sides_of_the_short_window_limit(p):
    """Sums of products and sparse terms at the last short window, one
    coefficient on either side of it and 4 times past it (wide primes have
    no short window: their products always take the lanes)."""
    field, rng = PrimeField(p), random.Random(f"kernel:{p}")
    edge = short_limit(p)
    for n in sorted({max(edge - 1, 1), edge, edge + 1}) if edge else [1, 31]:
        full = TruncatedSeries(field, (p - 1,) * n)
        a, b, c = (rand_dense(rng, field, n) for _ in "abc")
        spots = {0: 1, 1: p - 1, 3: 1, n // 2: p - 1, n - 1: 1}
        sparse = Terms(sorted((e, v) for e, v in spots.items() if e < n))
        for terms in (
            [(1, full, full)],
            [(1, a, b)],
            [(1, full, full), (1, full, full), (-1, a, b)],
            [(-1, a), (1, b, sparse), (-1, c, sparse)],
            [(1, full, sparse), (-1, full, full)],
        ):
            got = fused(*terms)
            assert list(got.coeffs) == naive_sum(field, n, terms), (p, n, terms)
            check_lanes(got)
            # a result fed back packs from its lanes
            again = got * a
            assert list(again.coeffs) == naive_mul(list(got.coeffs), list(a.coeffs), field, n)
            check_lanes(again)
    for n in [max(edge - 1, 1), edge + 1, 4 * max(edge, 64)]:
        full = TruncatedSeries(field, (p - 1,) * n)
        square = full * full
        assert list(square.coeffs) == naive_mul(full.coeffs, full.coeffs, field, n)
        assert check_lanes(square) == (n > edge)
        unit = rand_dense(rng, field, n, unit=True)
        assert list(unit.invert().coeffs) == naive_inv(list(unit.coeffs), field, n)


def test_operands_with_lanes_and_without_agree():
    """The same values as a fresh series, as a series with its lanes set by
    an earlier product, and as a plain list give the same product."""
    field, n = PrimeField(65521), 300
    rng = random.Random("agree")
    a, b = rand_dense(rng, field, n), rand_dense(rng, field, n)
    first = a * b
    assert check_lanes(a) and check_lanes(b) and check_lanes(first)
    fresh = TruncatedSeries(field, a.coeffs) * TruncatedSeries(field, b.coeffs)
    plain, _ = akizuki.series._window_mul(field, n, ((1, list(a.coeffs), list(b.coeffs)),))
    assert fresh == first and list(first.coeffs) == plain == naive_mul(a.coeffs, b.coeffs, field, n)


def test_operands_pack_only_their_window(monkeypatch):
    """Newton's first products read a window of the series being inverted:
    its lanes are cut to the window, so no packed operand has more slots
    than the kernel call's window (the extra slots would only cost)."""
    windows, pack, window_mul = [], akizuki.series._pack, akizuki.series._window_mul

    def spy_pack(raw, size, half):
        windows[-1][1].append(len(raw) // size)
        return pack(raw, size, half)

    def spy_window_mul(field, n, terms):
        windows.append((n, []))
        return window_mul(field, n, terms)

    monkeypatch.setattr(akizuki.series, "_pack", spy_pack)
    monkeypatch.setattr(akizuki.series, "_window_mul", spy_window_mul)
    field, rng = PrimeField(65521), random.Random("window")
    unit = rand_dense(rng, field, 300, unit=True)
    assert list(unit.invert().coeffs) == naive_inv(list(unit.coeffs), field, 300)
    assert len(windows) > 4 and all(max(slots) <= n for n, slots in windows)


def test_newton_keeps_its_lanes(monkeypatch):
    """Over F_p each Newton step keeps the lanes of the products it makes:
    in (f g)^-1 at N = 511 over F_101 no operand packs from a plain list,
    and the inverse i of the stored part comes back with its lanes, so
    i * i packs from them.  Only g after the short-window steps, at 64 and
    128 values, has none yet."""
    seen, lanes = [], akizuki.series._lanes

    def spy(x, window, w):
        cached = type(x) is TruncatedSeries and getattr(x, "_lanes", None) is not None
        seen.append((type(x) is TruncatedSeries, cached, len(window)))
        return lanes(x, window, w)

    field, rng = PrimeField(101), random.Random("newton lanes")
    ring = AkizukiRing(field, 511)
    f = ring.nf(rand_dense(rng, field, 511, unit=True), rand_dense(rng, field, 511))
    g = ring.nf(rand_dense(rng, field, 511, unit=True), rand_dense(rng, field, 511))
    product = f * g
    monkeypatch.setattr(akizuki.series, "_lanes", spy)
    inverse = product.invert()
    monkeypatch.undo()
    assert all(series for series, _, _ in seen)
    assert [m for _, cached, m in seen if not cached] == [64, 128]
    check_nf(ring, product, inverse)
    unit = rand_dense(rng, field, 511, unit=True)
    assert check_lanes(unit.invert())


@pytest.mark.parametrize("p", [101, 2**31 - 1])
def test_every_layer_result_decodes_to_its_values(p):
    field, n = PrimeField(p), 200
    ring = AkizukiRing(field, n)
    rng = random.Random(f"layers:{p}")
    f = ring.nf(rand_dense(rng, field, n, unit=True), rand_dense(rng, field, n))
    g = ring.nf(rand_dense(rng, field, n), rand_dense(rng, field, n))
    check_nf(ring, f, g)
    a = CompletionElement(ring, rand_dense(rng, field, n), rand_dense(rng, field, n))
    b = CompletionElement(ring, rand_dense(rng, field, n), rand_dense(rng, field, n))
    check_completion(ring, a, b)
    results = [*(f * g).parts, *f.invert().parts, *(a * b).parts]
    assert sum(map(check_lanes, results)) >= 4


# ----------------------------------------------------------------------
# the cache is not part of the value


def test_equality_hash_repr_and_pickling_ignore_the_lanes():
    field, n = PrimeField(101), 300
    rng = random.Random("cache")
    a, b = rand_dense(rng, field, n), rand_dense(rng, field, n)
    cached = a * b
    plain = TruncatedSeries(field, cached.coeffs)
    assert check_lanes(cached) and getattr(plain, "_lanes", None) is None
    assert cached == plain and hash(cached) == hash(plain) and repr(cached) == repr(plain)
    assert pickle.dumps(cached) == pickle.dumps(plain)
    for clone in (pickle.loads(pickle.dumps(cached)), copy.copy(cached), copy.deepcopy(cached)):
        assert clone == cached and getattr(clone, "_lanes", None) is None
    with pytest.raises(AttributeError):
        cached._lanes = b""


def test_value_repr_golden_ignores_the_lanes():
    values = [cls(*args) for cls, args in samples()]
    for value in values:
        for s in (value, *getattr(value, "parts", ())):
            if isinstance(s, TruncatedSeries) and s.field.characteristic:
                akizuki.series._lanes(s, s.coeffs, width(s.field.p))
                assert check_lanes(s)
    assert [repr(value) for value in values] == GOLDEN.read_text(encoding="utf-8").splitlines()
