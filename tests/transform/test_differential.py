"""Differential tests: the batched codec against stage-by-stage references.

The references in :mod:`tests.transform.reference` are the codec as it
was written before the batched path: the 448-entry permutation kernel
for the bit-plane stage, and one line at a time through every stage.
Every fast path must agree with them bit for bit.
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

    @pytest.mark.parametrize("word_bytes", WORD_SIZES)
    def test_encode_rows_matches_stage_by_stage(self, word_bytes):
        codec = make_codec(StageSelection.full(), word_bytes, 0.3, seed=5)
        rows = np.array([0, 5, 9, 12, 13, 40, 63])
        lines = random_lines(word_bytes, len(rows) * 16, seed=1).reshape(
            len(rows), 16, -1)
        encoded = codec.encode_rows(lines, rows)
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(
                encoded[i], reference_encode(codec, lines[i], [row] * 16))
        np.testing.assert_array_equal(codec.decode_rows(encoded, rows), lines)
