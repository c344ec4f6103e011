"""Unit and property tests for the EBDI stage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transform.celltype import CellType
from repro.transform.ebdi import EbdiCodec, word_dtype, zigzag_decode, zigzag_encode


def line_with_coded_delta(word_bytes, coded):
    """A line whose widest true-cell-coded delta is ``coded``."""
    dtype = word_dtype(word_bytes)
    lines = np.zeros((1, 64 // word_bytes), dtype=dtype)
    lines[0, 1] = zigzag_decode(np.array([coded], dtype=dtype)).view(dtype)[0]
    return lines


class TestZigzag:
    def test_small_values_map_to_small_codes(self):
        values = np.array([0, -1, 1, -2, 2, -3, 3], dtype=np.int64)
        expected = np.array([0, 1, 2, 3, 4, 5, 6], dtype=np.uint64)
        np.testing.assert_array_equal(zigzag_encode(values), expected)

    def test_sign_is_low_bit(self):
        values = np.array([-5, 5], dtype=np.int64)
        codes = zigzag_encode(values)
        assert codes[0] & 1 == 1  # negative -> odd
        assert codes[1] & 1 == 0  # positive -> even

    def test_roundtrip_extremes(self):
        values = np.array(
            [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 1],
            dtype=np.int64,
        )
        np.testing.assert_array_equal(zigzag_decode(zigzag_encode(values)), values)

    def test_small_magnitude_has_leading_zeros(self):
        # |d| <= 127 must fit in 8 bits -> 56 leading zero bits of 64
        values = np.arange(-127, 128, dtype=np.int64)
        codes = zigzag_encode(values)
        assert int(codes.max()) < 256

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_roundtrip_property(self, value):
        arr = np.array([value], dtype=np.int64)
        assert zigzag_decode(zigzag_encode(arr))[0] == value

    def test_32bit_words(self):
        values = np.array([-1000, 1000], dtype=np.int32)
        codes = zigzag_encode(values)
        assert codes.dtype == np.uint32
        np.testing.assert_array_equal(zigzag_decode(codes), values)


class TestWordDtype:
    def test_known_sizes(self):
        assert word_dtype(8) == np.uint64
        assert word_dtype(4) == np.uint32
        assert word_dtype(2) == np.uint16

    def test_rejects_unknown_size(self):
        with pytest.raises(ValueError, match="unsupported"):
            word_dtype(3)


class TestEbdiCodec:
    @pytest.fixture
    def codec(self):
        return EbdiCodec(word_bytes=8, line_bytes=64)

    def test_geometry(self, codec):
        assert codec.words_per_line == 8
        assert codec.dtype == np.uint64

    def test_zero_line_encodes_to_zero_true(self, codec):
        lines = np.zeros((1, 8), dtype=np.uint64)
        enc = codec.encode(lines, CellType.TRUE)
        assert not enc.any()

    def test_zero_line_encodes_to_ones_anti(self, codec):
        lines = np.zeros((1, 8), dtype=np.uint64)
        enc = codec.encode(lines, CellType.ANTI)
        assert (enc == np.uint64(0xFFFFFFFFFFFFFFFF)).all()

    def test_uniform_line_has_zero_deltas(self, codec):
        lines = np.full((1, 8), 0xDEADBEEF, dtype=np.uint64)
        enc = codec.encode(lines, CellType.TRUE)
        assert enc[0, 0] == 0xDEADBEEF
        assert not enc[0, 1:].any()

    def test_nearby_values_give_narrow_deltas(self, codec):
        base = np.uint64(1 << 40)
        lines = (base + np.arange(8, dtype=np.uint64)).reshape(1, 8)
        enc = codec.encode(lines, CellType.TRUE)
        # deltas are 1..7 -> zigzag 2..14, fits in 4 bits
        assert int(enc[0, 1:].max()) < 16

    def test_negative_deltas_stay_narrow(self, codec):
        # Values slightly *below* the base: in two's complement these
        # deltas would be mostly 1 bits; EBDI keeps them narrow.
        base = np.uint64(1000)
        lines = np.array([[base, base - 1, base - 2, base - 3,
                           base - 4, base - 5, base - 6, base - 7]], dtype=np.uint64)
        enc = codec.encode(lines, CellType.TRUE)
        assert int(enc[0, 1:].max()) < 16

    @pytest.mark.parametrize("cell_type", [CellType.TRUE, CellType.ANTI])
    def test_roundtrip_random(self, codec, cell_type):
        rng = np.random.default_rng(42)
        lines = rng.integers(0, 2**64, size=(256, 8), dtype=np.uint64)
        dec = codec.decode(codec.encode(lines, cell_type), cell_type)
        np.testing.assert_array_equal(dec, lines)

    def test_roundtrip_wraparound(self, codec):
        # base near the top of the range, deltas that wrap.
        top = np.uint64(0xFFFFFFFFFFFFFFFF)
        lines = np.array([[top, 0, 1, top - 1, top, 5, top - 5, 2]], dtype=np.uint64)
        for cell_type in CellType:
            dec = codec.decode(codec.encode(lines, cell_type), cell_type)
            np.testing.assert_array_equal(dec, lines)

    def test_word_size_4(self):
        codec = EbdiCodec(word_bytes=4, line_bytes=64)
        assert codec.words_per_line == 16
        rng = np.random.default_rng(1)
        lines = rng.integers(0, 2**32, size=(64, 16), dtype=np.uint32)
        dec = codec.decode(codec.encode(lines, CellType.TRUE), CellType.TRUE)
        np.testing.assert_array_equal(dec, lines)

    def test_rejects_bad_shape(self, codec):
        with pytest.raises(ValueError, match="expected shape"):
            codec.encode(np.zeros((4, 7), dtype=np.uint64), CellType.TRUE)

    def test_rejects_bad_dtype(self, codec):
        with pytest.raises(TypeError, match="expected dtype"):
            codec.encode(np.zeros((4, 8), dtype=np.uint32), CellType.TRUE)

    def test_rejects_indivisible_line(self):
        with pytest.raises(ValueError, match="not a multiple"):
            EbdiCodec(word_bytes=8, line_bytes=60)

    def test_rejects_single_word_line(self):
        with pytest.raises(ValueError, match="at least two"):
            EbdiCodec(word_bytes=8, line_bytes=8)

    def test_delta_bit_width_zero_for_uniform(self, codec):
        lines = np.full((3, 8), 7, dtype=np.uint64)
        np.testing.assert_array_equal(codec.delta_bit_width(lines), [0, 0, 0])

    def test_delta_bit_width_counts_zigzag_bits(self, codec):
        lines = np.zeros((1, 8), dtype=np.uint64)
        lines[0, 0] = 100
        lines[0, 1] = 103  # delta 3 -> zigzag 6 -> 3 bits
        lines[0, 2:] = 100
        assert codec.delta_bit_width(lines)[0] == 3

    @pytest.mark.parametrize("coded, width", [(2**64 - 1, 64), (2**54 - 2, 54)])
    def test_delta_bit_width_exact_above_2_pow_53(self, codec, coded, width):
        assert codec.delta_bit_width(line_with_coded_delta(8, coded))[0] == width

    @settings(max_examples=100)
    @given(st.sampled_from([2, 4, 8]).flatmap(lambda word_bytes: st.tuples(
        st.just(word_bytes),
        st.integers(min_value=0, max_value=2**(8 * word_bytes) - 1))))
    def test_delta_bit_width_is_int_bit_length(self, case):
        word_bytes, coded = case
        codec = EbdiCodec(word_bytes=word_bytes)
        lines = line_with_coded_delta(word_bytes, coded)
        assert codec.delta_bit_width(lines)[0] == coded.bit_length()

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                    min_size=8, max_size=8))
    def test_roundtrip_property(self, words):
        codec = EbdiCodec()
        lines = np.array([words], dtype=np.uint64)
        for cell_type in CellType:
            dec = codec.decode(codec.encode(lines, cell_type), cell_type)
            np.testing.assert_array_equal(dec, lines)
