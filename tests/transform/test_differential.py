"""Differential tests: the batched codec against stage-by-stage references.

The references in :mod:`tests.transform.reference` are the codec as it
was written before the batched path: the 448-entry permutation kernel
for the bit-plane stage, and one line at a time through every stage.
Every fast path must agree with them bit for bit: the SWAR bit-plane
kernel in both directions, and the chunked write path of
``encode_row`` on both sides of every chunk edge.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transform.bitplane import CHUNK_LINES, BitPlaneTransform
from repro.transform.celltype import CellTypeLayout, CellTypePredictor
from repro.transform.codec import StageSelection, ValueTransformCodec
from repro.transform.ebdi import word_dtype
from tests.transform.reference import (
    reference_apply,
    reference_decode,
    reference_encode,
    reference_invert,
    reference_transform,
)

WORD_SIZES = (2, 4, 8)
NUM_ROWS = 64
INTERLEAVE = 4  # short true/anti blocks, so row vectors mix both kinds

stage_selections = st.builds(
    StageSelection, ebdi=st.booleans(), bitplane=st.booleans(),
    rotation=st.booleans(), celltype_aware=st.booleans(),
)


@st.composite
def line_batches(draw, word_bytes, max_lines=24):
    """``(n, words)`` lines of arbitrary bits, ``n`` possibly 0."""
    n = draw(st.integers(min_value=0, max_value=max_lines))
    raw = draw(st.binary(min_size=64 * n, max_size=64 * n))
    return np.frombuffer(raw, dtype=word_dtype(word_bytes)).reshape(
        n, 64 // word_bytes).copy()


@st.composite
def edge_lines(draw, word_bytes, max_lines=16):
    """Lines of arbitrary bits mixed with all-zero and all-one lines,
    lines with one bit set and lines with one bit clear."""
    dtype = word_dtype(word_bytes)
    kinds = draw(st.lists(st.sampled_from(
        ["bits", "zero", "ones", "one-bit", "one-hole"]), max_size=max_lines))
    lines = np.zeros((len(kinds), 64 // word_bytes), dtype=dtype)
    for line, kind in zip(lines, kinds):
        raw = line.view(np.uint8)
        if kind == "bits":
            raw[:] = np.frombuffer(draw(st.binary(min_size=64, max_size=64)),
                                   dtype=np.uint8)
        elif kind != "zero":
            if kind != "ones":
                bit = draw(st.integers(min_value=0, max_value=511))
                raw[bit // 8] = 1 << (bit % 8)
            if kind != "one-bit":
                np.invert(line, out=line)
    return lines


def random_lines(word_bytes, n, seed):
    dtype = word_dtype(word_bytes)
    rng = np.random.default_rng(seed)
    return rng.integers(0, np.iinfo(dtype).max, size=(n, 64 // word_bytes),
                        dtype=dtype, endpoint=True)


def make_codec(stages, word_bytes=8, error_rate=0.0, seed=0):
    predictor = CellTypePredictor.from_layout(
        CellTypeLayout(interleave=INTERLEAVE), NUM_ROWS, error_rate,
        np.random.default_rng(seed))
    return ValueTransformCodec(predictor, word_bytes=word_bytes, stages=stages)


class TestTransposeKernel:
    @pytest.mark.parametrize("word_bytes", WORD_SIZES)
    @pytest.mark.parametrize(
        "n", [0, 1, CHUNK_LINES - 1, CHUNK_LINES, CHUNK_LINES + 1,
              3 * CHUNK_LINES + 7])
    def test_matches_permutation_kernel_at_chunk_edges(self, word_bytes, n):
        bitplane = BitPlaneTransform(word_bytes)
        lines = random_lines(word_bytes, n, seed=n)
        np.testing.assert_array_equal(bitplane.apply(lines),
                                      reference_apply(bitplane, lines))
        np.testing.assert_array_equal(bitplane.invert(lines),
                                      reference_invert(bitplane, lines))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), word_bytes=st.sampled_from(WORD_SIZES))
    def test_matches_permutation_kernel_both_directions(self, data, word_bytes):
        bitplane = BitPlaneTransform(word_bytes)
        lines = data.draw(line_batches(word_bytes))
        applied = bitplane.apply(lines)
        np.testing.assert_array_equal(applied, reference_apply(bitplane, lines))
        np.testing.assert_array_equal(bitplane.invert(lines),
                                      reference_invert(bitplane, lines))
        np.testing.assert_array_equal(bitplane.invert(applied), lines)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), word_bytes=st.sampled_from(WORD_SIZES))
    def test_matches_permutation_kernel_on_edge_lines(self, data, word_bytes):
        bitplane = BitPlaneTransform(word_bytes)
        lines = data.draw(edge_lines(word_bytes))
        applied = bitplane.apply(lines)
        np.testing.assert_array_equal(applied, reference_apply(bitplane, lines))
        np.testing.assert_array_equal(bitplane.invert(lines),
                                      reference_invert(bitplane, lines))
        np.testing.assert_array_equal(bitplane.invert(applied), lines)

    def test_single_bits_land_plane_major(self):
        """Every one-bit line of every word size: bit j of delta word w
        moves to flat delta position j*D + w, the base stays put."""
        for word_bytes in WORD_SIZES:
            bitplane = BitPlaneTransform(word_bytes)
            d, b = bitplane.delta_words, bitplane.word_bits
            lines = np.zeros((512, 64 // word_bytes), dtype=bitplane.dtype)
            lines.view(np.uint8)[np.arange(512), np.arange(512) // 8] = (
                1 << (np.arange(512) % 8))
            applied = bitplane.apply(lines)
            for bit in range(512):
                word, j = divmod(bit, b)
                target = bit if word == 0 else b + j * d + (word - 1)
                got = np.flatnonzero(np.unpackbits(
                    applied[bit].view(np.uint8), bitorder="little"))
                assert got.tolist() == [target], (word_bytes, bit)
            np.testing.assert_array_equal(bitplane.invert(applied), lines)


class TestChunkedEncode:
    """``encode_row`` walks chunks of ``CHUNK_LINES``: the result must
    not depend on where the chunk edges fall."""

    N = 3 * CHUNK_LINES + 7

    @pytest.fixture(scope="class")
    def case(self):
        codec = make_codec(StageSelection.full(), error_rate=0.25, seed=9)
        lines = random_lines(8, self.N, seed=13)
        # runs of true and anti rows, so every chunk mixes both kinds
        rows = (np.arange(self.N) // 5) % NUM_ROWS
        anti = codec.predictor.predict_anti(rows[:CHUNK_LINES])
        assert anti.any() and not anti.all()
        return codec, lines, rows, reference_encode(codec, lines, rows)

    @pytest.mark.parametrize("n", [0, 1, CHUNK_LINES - 1, CHUNK_LINES,
                                   CHUNK_LINES + 1, 3 * CHUNK_LINES + 7])
    def test_row_vector_matches_stage_by_stage(self, case, n):
        codec, lines, rows, expected = case
        encoded = codec.encode_row(lines[:n], rows[:n])
        assert encoded.shape == (codec.num_chips, n, 1)
        np.testing.assert_array_equal(encoded, expected[:, :n])
        np.testing.assert_array_equal(codec.decode_row(encoded, rows[:n]),
                                      lines[:n])

    @pytest.mark.parametrize("row", [2, 4])
    def test_one_int_row_across_chunk_edges(self, row):
        codec = make_codec(StageSelection.full(), error_rate=0.25, seed=9)
        n = CHUNK_LINES + 1
        lines = random_lines(8, n, seed=row)
        encoded = codec.encode_row(lines, row)
        np.testing.assert_array_equal(encoded,
                                      reference_encode(codec, lines, [row] * n))
        np.testing.assert_array_equal(codec.decode_row(encoded, row), lines)

    def test_row_vector_of_the_wrong_length_is_rejected(self):
        codec = make_codec(StageSelection.full())
        lines = random_lines(8, 5, seed=0)
        with pytest.raises(ValueError):
            codec.encode_row(lines, np.arange(6))


class TestFusedPass:
    """The word-major write pass: ``encode_rows`` on both sides of its
    chunk edge (whole rows per chunk), and inputs in any memory layout."""

    @pytest.fixture(scope="class", params=[32, 64, 128])
    def rows_case(self, request):
        lines_per_row = request.param
        per_chunk = CHUNK_LINES // lines_per_row
        codec = make_codec(StageSelection.full(), error_rate=0.25, seed=3)
        rows = (np.arange(per_chunk + 1) * 5 + 3) % NUM_ROWS
        # the row after the chunk edge is stored complemented
        anti = np.flatnonzero(codec.predictor.predict_anti(np.arange(NUM_ROWS)))
        rows[per_chunk] = anti[-1]
        assert 0 < codec.predictor.predict_anti(rows[:per_chunk]).sum() < per_chunk
        lines = random_lines(8, len(rows) * lines_per_row, seed=lines_per_row)
        lines = lines.reshape(len(rows), lines_per_row, -1)
        expected = reference_encode(codec, lines.reshape(-1, lines.shape[2]),
                                    np.repeat(rows, lines_per_row))
        expected = expected.reshape(codec.num_chips, len(rows), lines_per_row,
                                    -1).swapaxes(0, 1)
        return codec, lines, rows, expected, per_chunk

    @pytest.mark.parametrize("edge", [-1, 0, 1])
    def test_encode_rows_at_the_chunk_edge(self, rows_case, edge):
        codec, lines, rows, expected, per_chunk = rows_case
        n = per_chunk + edge
        encoded = codec.encode_rows(lines[:n], rows[:n])
        assert encoded.flags.c_contiguous
        np.testing.assert_array_equal(encoded, expected[:n])
        np.testing.assert_array_equal(codec.decode_rows(encoded, rows[:n]),
                                      lines[:n])

    def test_encode_rows_of_non_contiguous_lines(self, rows_case):
        codec, lines, rows, expected, _ = rows_case
        strided = codec.encode_rows(lines[::2], rows[::2])
        assert strided.flags.c_contiguous
        np.testing.assert_array_equal(strided, expected[::2])
        fortran = np.asfortranarray(lines)
        assert not fortran.flags.c_contiguous
        np.testing.assert_array_equal(codec.encode_rows(fortran, rows), expected)

    def test_encode_row_of_non_contiguous_lines(self, rows_case):
        codec, lines, rows, expected, _ = rows_case
        flat = lines.reshape(-1, lines.shape[2])
        flat_rows = np.repeat(rows, lines.shape[1])
        chips = expected.swapaxes(0, 1).reshape(codec.num_chips, len(flat), -1)
        np.testing.assert_array_equal(
            codec.encode_row(flat[::3], flat_rows[::3]), chips[:, ::3])
        np.testing.assert_array_equal(
            codec.encode_row(np.asfortranarray(flat), flat_rows), chips)
        # strided words: every other column of a doubled line
        doubled = np.repeat(flat, 2, axis=1)
        np.testing.assert_array_equal(
            codec.encode_row(doubled[:, ::2], flat_rows), chips)


class TestBatchedCodec:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), stages=stage_selections,
           word_bytes=st.sampled_from(WORD_SIZES),
           error_rate=st.sampled_from([0.0, 0.3]),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_encode_row_matches_stage_by_stage(self, data, stages, word_bytes,
                                               error_rate, seed):
        codec = make_codec(stages, word_bytes, error_rate, seed)
        lines = data.draw(line_batches(word_bytes))
        rows = np.array(data.draw(st.lists(
            st.integers(min_value=0, max_value=NUM_ROWS - 1),
            min_size=len(lines), max_size=len(lines))), dtype=np.int64)
        expected = reference_encode(codec, lines, rows)
        encoded = codec.encode_row(lines, rows)
        np.testing.assert_array_equal(encoded, expected)
        np.testing.assert_array_equal(codec.decode_row(expected, rows), lines)
        np.testing.assert_array_equal(reference_decode(codec, encoded, rows),
                                      lines)

    @pytest.mark.parametrize("word_bytes", WORD_SIZES)
    @pytest.mark.parametrize("stages", [
        StageSelection(ebdi=e, bitplane=b, rotation=r, celltype_aware=c)
        for e in (False, True) for b in (False, True)
        for r in (False, True) for c in (False, True)
    ], ids=repr)
    def test_every_stage_selection_on_mixed_rows(self, stages, word_bytes):
        codec = make_codec(stages, word_bytes, error_rate=0.25, seed=7)
        rows = np.arange(NUM_ROWS)[::-1]
        anti = codec.predictor.predict_anti(rows)
        assert anti.any() and not anti.all()
        lines = random_lines(word_bytes, NUM_ROWS, seed=word_bytes)
        np.testing.assert_array_equal(codec.encode_row(lines, rows),
                                      reference_encode(codec, lines, rows))
        transformed = codec.transform_lines(lines, rows)
        for line, row, got in zip(lines, rows, transformed):
            np.testing.assert_array_equal(
                got, reference_transform(codec, line, int(row)))
        np.testing.assert_array_equal(
            codec.untransform_lines(transformed, rows), lines)

    @pytest.mark.parametrize("row", [0, 3, 4, 61])
    def test_one_int_row_equals_a_constant_row_vector(self, row):
        codec = make_codec(StageSelection.full(), error_rate=0.3, seed=2)
        lines = random_lines(8, 5, seed=row)
        encoded = codec.encode_row(lines, row)
        np.testing.assert_array_equal(
            encoded, reference_encode(codec, lines, [row] * 5))
        np.testing.assert_array_equal(codec.decode_row(encoded, row), lines)

    @pytest.mark.parametrize("word_bytes,rows,lines_per_row", [
        *(pytest.param(wb, [0, 5, 9, 12, 13, 40, 63], 16, id=str(wb))
          for wb in WORD_SIZES),
        # 512 whole rows: eight chunks of full-range lines
        pytest.param(8, [r % NUM_ROWS for r in range(512)], 64,
                     id="512-rows"),
    ])
    def test_encode_rows_matches_stage_by_stage(self, word_bytes, rows,
                                                lines_per_row):
        codec = make_codec(StageSelection.full(), word_bytes, 0.3, seed=5)
        rows = np.array(rows)
        lines = random_lines(word_bytes, len(rows) * lines_per_row,
                             seed=1).reshape(len(rows), lines_per_row, -1)
        encoded = codec.encode_rows(lines, rows)
        assert encoded.shape == (len(rows), codec.num_chips, lines_per_row,
                                 codec.rotation.words_per_chip)
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(
                encoded[i],
                reference_encode(codec, lines[i], [row] * lines_per_row))
        np.testing.assert_array_equal(codec.decode_rows(encoded, rows), lines)
