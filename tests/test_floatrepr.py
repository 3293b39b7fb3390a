import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odyn import floatrepr
from odyn.floatrepr import WIDTH, repr_cells


def reprs(values) -> list[bytes]:
    return [repr(v).encode() for v in np.asarray(values, dtype=np.float64).ravel().tolist()]


def assert_rows_are_repr(values):
    out = repr_cells(values)
    expected = reprs(values)
    assert out.shape == (len(expected), WIDTH) and out.dtype == np.uint8
    for row, text in zip(out, expected):
        assert row.tobytes() == text.ljust(WIDTH, b"\0"), text


SPECIALS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.225073858507201e-308, 2.2250738585072014e-308,
    *(float(np.nextafter(1e-4, to)) for to in (0.0, 1.0)), 1e-4, -1e-4,
    *(float(np.nextafter(1e16, to)) for to in (0.0, math.inf)), 1e16, 9999999999999998.0,
    *(2.0 ** k for k in range(-20, 60)), *(-(2.0 ** k) for k in (-1, 0, 1, 52, 53)),
    *(k * 0.05 for k in range(-40, 41)), 0.1 + 0.2, 1 / 3, 2 / 3,
    np.finfo(np.float64).max, -np.finfo(np.float64).max, math.inf, -math.inf, math.nan,
]


class TestReprCells:
    @settings(max_examples=300)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
    def test_every_finite_float(self, values):
        assert_rows_are_repr(np.array(values, dtype=np.float64))

    @settings(max_examples=100)
    @given(st.lists(st.floats(1e-4, 1e16, exclude_max=True), min_size=1, max_size=50),
           st.lists(st.booleans(), min_size=50, max_size=50))
    def test_every_float_of_the_positional_range(self, values, negate):
        x = np.array(values) * np.where(negate[:len(values)], -1.0, 1.0)
        assert_rows_are_repr(x)

    def test_specials(self):
        assert_rows_are_repr(SPECIALS)

    def test_the_neighbours_of_every_power_of_ten(self):
        powers = 10.0 ** np.arange(-6, 19)
        near = [np.nextafter(powers, to) for to in (0.0, math.inf)]
        assert_rows_are_repr(np.concatenate([powers, *near, -powers]))

    @pytest.mark.parametrize("positional", [False, True], ids=["all", "positional"])
    def test_a_sweep_of_random_bit_patterns(self, positional):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2**64, 10**5, dtype=np.uint64).view(np.float64)
        if positional:
            # random 53-bit mantissas at the binary exponents of [1e-4, 1e16), either sign
            mantissas = rng.integers(2**52, 2**53, x.size).astype(np.float64)
            x = np.copysign(np.ldexp(mantissas, rng.integers(-14 - 53, 54 - 53, x.size)), x)
        expected = np.array(reprs(x), dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)
        np.testing.assert_array_equal(repr_cells(x), expected)

    def test_rounded_decimals_and_multiples_of_one_twentieth(self):
        rng = np.random.default_rng(1)
        decimals = [round(v, d) for v, d in zip(rng.uniform(-1e3, 1e3, 2000).tolist(),
                                                  rng.integers(0, 12, 2000).tolist())]
        assert_rows_are_repr(np.concatenate([decimals, np.arange(-2000, 2000) * 0.05]))

    def test_the_arithmetic_decides_almost_every_saturated_value(self, monkeypatch):
        calls = []

        def counting_repr(v):
            calls.append(v)
            return repr(v)

        monkeypatch.setattr(floatrepr, "repr", counting_repr, raising=False)
        x = np.tanh(np.random.default_rng(2).standard_normal(20000) * 3.0)
        out = repr_cells(x)
        assert len(calls) <= 0.01 * x.size
        monkeypatch.undo()
        expected = np.array(reprs(x), dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)
        np.testing.assert_array_equal(out, expected)

    def test_a_fallback_row_holds_only_reprs_bytes(self, monkeypatch):
        # a band this wide sends every value to repr, after the arithmetic
        # has laid out its 17-digit form, longer than most of these reprs
        monkeypatch.setattr(floatrepr, "_BAND", 1e9)
        rng = np.random.default_rng(3)
        x = np.concatenate([[0.1, -1.5, 123.25, 1e-4, 2.5e15, 9999999999999998.0],
                            np.tanh(rng.standard_normal(200)),
                            rng.uniform(-1e16, 1e16, 200).round(-10)])
        assert_rows_are_repr(x)

    def test_any_shape_reads_in_row_major_order(self):
        x = np.arange(12, dtype=np.float64).reshape(3, 4).T * 0.1
        assert [row.tobytes().rstrip(b"\0") for row in repr_cells(x)] == reprs(x)
        assert repr_cells(np.array([])).shape == (0, WIDTH)
