"""Tests for the data-rotation stage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transform.rotation import RotationMapper


@pytest.fixture
def mapper():
    return RotationMapper(num_chips=8, word_bytes=8, line_bytes=64)


class TestRotationMapper:
    def test_rotation_amount_cycles_with_rows(self, mapper):
        assert mapper.rotation_amount(0) == 0
        assert mapper.rotation_amount(3) == 3
        assert mapper.rotation_amount(8) == 0
        assert mapper.rotation_amount(11) == 3

    def test_chip_of_word_row0_is_identity(self, mapper):
        for w in range(8):
            assert mapper.chip_of_word(w, 0) == w

    def test_chip_of_word_rotates_by_row(self, mapper):
        # Word 0 (base) of row 3 lands on chip 3.
        assert mapper.chip_of_word(0, 3) == 3
        assert mapper.chip_of_word(7, 3) == 2

    def test_each_chip_holds_single_word_position(self, mapper):
        """With 8 words and 8 chips, a chip row is word-homogeneous."""
        for row in range(16):
            for chip in range(8):
                words = mapper.words_of_chip(chip, row)
                assert len(words) == 1
                assert mapper.chip_of_word(int(words[0]), row) == chip

    def test_scatter_gather_roundtrip(self, mapper):
        rng = np.random.default_rng(0)
        lines = rng.integers(0, 2**64, size=(64, 8), dtype=np.uint64)
        for row in (0, 1, 7, 13):
            chips = mapper.scatter(lines, row)
            assert chips.shape == (8, 64, 1)
            np.testing.assert_array_equal(mapper.gather(chips, row), lines)

    def test_scatter_places_base_words_diagonally(self, mapper):
        """Base word (word 0) of row R sits on chip R mod 8."""
        lines = np.zeros((4, 8), dtype=np.uint64)
        lines[:, 0] = np.arange(1, 5, dtype=np.uint64)  # tag base words
        for row in range(8):
            chips = mapper.scatter(lines, row)
            base_chip = row % 8
            np.testing.assert_array_equal(chips[base_chip][:, 0], lines[:, 0])
            for chip in range(8):
                if chip != base_chip:
                    assert not chips[chip].any()

    def test_disabled_rotation_is_identity_mapping(self):
        mapper = RotationMapper(num_chips=8, rotate=False)
        for row in range(16):
            assert mapper.rotation_amount(row) == 0
            assert mapper.chip_of_word(2, row) == 2

    def test_more_words_than_chips(self):
        mapper = RotationMapper(num_chips=8, word_bytes=4, line_bytes=64)
        assert mapper.words_per_chip == 2
        rng = np.random.default_rng(1)
        lines = rng.integers(0, 2**32, size=(16, 16), dtype=np.uint32)
        for row in (0, 5):
            chips = mapper.scatter(lines, row)
            assert chips.shape == (8, 16, 2)
            np.testing.assert_array_equal(mapper.gather(chips, row), lines)

    def test_word_homogeneity_with_multiple_words_per_chip(self):
        """Even with 2 words/chip, a chip's word positions are fixed per row."""
        mapper = RotationMapper(num_chips=8, word_bytes=4, line_bytes=64)
        for row in range(8):
            for chip in range(8):
                words = mapper.words_of_chip(chip, row)
                assert len(words) == 2
                assert (words % 8 == words[0] % 8).all()

    def test_rejects_uneven_word_distribution(self):
        with pytest.raises(ValueError, match="spread evenly"):
            RotationMapper(num_chips=3, word_bytes=8, line_bytes=64)

    def test_rejects_bad_gather_shape(self, mapper):
        with pytest.raises(ValueError, match="expected chip data"):
            mapper.gather(np.zeros((4, 4, 1), dtype=np.uint64), 0)

    def test_rejects_row_vector_of_wrong_length(self, mapper):
        with pytest.raises(ValueError, match="expected one row or 3 rows"):
            mapper.scatter(np.zeros((3, 8), dtype=np.uint64), np.arange(2))

    def test_slot_table_is_read_only(self, mapper):
        """words_of_chip hands out views of the table every encode reads."""
        with pytest.raises(ValueError, match="read-only"):
            mapper.words_of_chip(3, 5)[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            mapper.slot_table[5, 3] = 0
        assert mapper.words_of_chip(3, 5).tolist() == [6]  # (6 + 5) % 8 == 3

    @settings(max_examples=25)
    @given(
        row=st.integers(min_value=0, max_value=1000),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_roundtrip_property(self, row, seed):
        mapper = RotationMapper()
        rng = np.random.default_rng(seed)
        lines = rng.integers(0, 2**64, size=(8, 8), dtype=np.uint64)
        np.testing.assert_array_equal(
            mapper.gather(mapper.scatter(lines, row), row), lines
        )
