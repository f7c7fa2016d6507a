"""Tests for the rng and formatting utilities."""

import numpy as np
import pytest

from repro.utils.format import (
    ascii_series,
    ascii_table,
    format_bytes,
    format_seconds,
    format_si,
)
from repro.utils.rng import RngFactory, ensure_rng


class TestEnsureRng:
    def test_passthrough_generator(self):
        gen = np.random.default_rng(5)
        assert ensure_rng(gen) is gen

    def test_int_seed_deterministic(self):
        a = ensure_rng(42).random(4)
        b = ensure_rng(42).random(4)
        np.testing.assert_array_equal(a, b)

    def test_none_is_fixed_default(self):
        a = ensure_rng(None).random(4)
        b = ensure_rng(None).random(4)
        np.testing.assert_array_equal(a, b)


class TestRngFactory:
    def test_same_name_same_stream(self):
        f = RngFactory(9)
        a = f.child("sampler").random(8)
        b = RngFactory(9).child("sampler").random(8)
        np.testing.assert_array_equal(a, b)

    def test_different_names_differ(self):
        f = RngFactory(9)
        a = f.child("alpha").random(8)
        b = f.child("beta").random(8)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngFactory(1).child("x").random(8)
        b = RngFactory(2).child("x").random(8)
        assert not np.array_equal(a, b)

    def test_child_seed_stable_int(self):
        s1 = RngFactory(3).child_seed("loader")
        s2 = RngFactory(3).child_seed("loader")
        assert s1 == s2
        assert isinstance(s1, int)


class TestFormat:
    def test_format_si(self):
        assert format_si(1.2e9) == "1.2G"
        assert format_si(3400, "B/s") == "3.4kB/s"
        assert format_si(5) == "5"

    def test_format_bytes(self):
        assert format_bytes(512) == "512B"
        assert format_bytes(2048) == "2KiB"
        assert "GiB" in format_bytes(3 * 1024**3)

    def test_format_seconds(self):
        assert format_seconds(2.5) == "2.5s"
        assert format_seconds(0.0021) == "2.1ms"
        assert "µs" in format_seconds(3e-6)
        assert format_seconds(float("nan")) == "n/a"

    def test_ascii_table_alignment(self):
        text = ascii_table(["a", "long"], [[1, 2.34567], [10, 3]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "2.346" in text

    def test_ascii_table_title(self):
        text = ascii_table(["x"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_ascii_series(self):
        text = ascii_series("s", [1, 2], [0.5, 0.25])
        assert text == "s: 1=0.5, 2=0.25"


@pytest.mark.parametrize("value,expect", [
    (0.0, "0"),
    (-2.5e6, "-2.5M"),
])
def test_format_si_edge_cases(value, expect):
    assert format_si(value) == expect
