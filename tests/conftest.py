"""Spies on the series kernel, shared by the kernel suites."""

import pytest

import akizuki.series


@pytest.fixture
def packs(monkeypatch):
    """The (slot bytes, signed) of every operand the kernel packs, in order."""
    seen, pack = [], akizuki.series._pack

    def spy(ints, size, half):
        seen.append((size, half != 0))
        return pack(ints, size, half)

    monkeypatch.setattr(akizuki.series, "_pack", spy)
    return seen


@pytest.fixture
def kernel_calls(monkeypatch):
    """The window width n of every ``_window_mul`` call, in order."""
    seen, window_mul = [], akizuki.series._window_mul

    def spy(field, n, terms):
        seen.append(n)
        return window_mul(field, n, terms)

    monkeypatch.setattr(akizuki.series, "_window_mul", spy)
    return seen
