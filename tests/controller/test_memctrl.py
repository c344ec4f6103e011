"""Tests for the memory-controller front end."""

import tracemalloc

import numpy as np
import pytest

from repro.controller.memctrl import MemoryController
from repro.dram.device import DramDevice
from repro.dram.geometry import DramGeometry
from repro.obs.probes import ProbeBus
from repro.transform.bitplane import CHUNK_LINES
from repro.transform.celltype import CellType
from repro.transform.celltype import CellTypeLayout, CellTypePredictor
from repro.transform.codec import StageSelection, ValueTransformCodec
from repro.workloads.benchmarks import benchmark_profile


def make_controller(row_bytes=4096, stages=StageSelection.full(),
                    probes=None):
    geom = DramGeometry(rows_per_bank=(8 << 20) // (8 * row_bytes),
                        row_bytes=row_bytes, rows_per_ar=32,
                        cell_interleave=32)
    layout = CellTypeLayout(interleave=32)
    device = DramDevice(geom, layout)
    predictor = CellTypePredictor.from_layout(layout, geom.rows_per_bank)
    codec = ValueTransformCodec(predictor, line_bytes=geom.line_bytes,
                                stages=stages)
    return MemoryController(device, codec, probes=probes)


class TestLineInterface:
    def test_roundtrip_single_line(self):
        ctrl = make_controller()
        rng = np.random.default_rng(0)
        line = rng.integers(0, 2**64, size=8, dtype=np.uint64)
        ctrl.write_line(1234, line)
        np.testing.assert_array_equal(ctrl.read_line(1234), line)

    def test_counts_ebdi_ops_on_both_paths(self):
        ctrl = make_controller()
        line = np.zeros(8, dtype=np.uint64)
        ctrl.write_line(0, line)
        ctrl.read_line(0)
        assert ctrl.ebdi_ops == 2
        assert ctrl.line_writes == 1
        assert ctrl.line_reads == 1

    def test_stored_bits_differ_from_logical(self):
        """The device must hold transformed, not raw, bits."""
        ctrl = make_controller()
        rng = np.random.default_rng(1)
        line = rng.integers(1, 2**63, size=8, dtype=np.uint64)
        ctrl.write_line(0, line)
        bank, row, lir = ctrl.mapper.line_location(0)
        raw = ctrl.device.read_line(int(bank), int(row), int(lir))
        assert not np.array_equal(raw.ravel(), line)

    def test_batch_write_matches_single_writes(self):
        ctrl_a = make_controller()
        ctrl_b = make_controller()
        rng = np.random.default_rng(2)
        addrs = np.array([0, 7, 200, 3333, 40000])
        lines = rng.integers(0, 2**64, size=(5, 8), dtype=np.uint64)
        ctrl_a.write_lines(addrs, lines)
        for addr, line in zip(addrs, lines):
            ctrl_b.write_line(int(addr), line)
        for bank_a, bank_b in zip(ctrl_a.device.banks, ctrl_b.device.banks):
            np.testing.assert_array_equal(bank_a.data, bank_b.data)

    def test_batch_write_roundtrip(self):
        ctrl = make_controller()
        rng = np.random.default_rng(3)
        addrs = rng.choice(ctrl.geometry.total_lines, size=64, replace=False)
        lines = rng.integers(0, 2**64, size=(64, 8), dtype=np.uint64)
        ctrl.write_lines(addrs, lines)
        for addr, line in zip(addrs, lines):
            np.testing.assert_array_equal(ctrl.read_line(int(addr)), line)

    def test_zero_fraction_is_counted_before_the_complement(self):
        """Anti rows store their zero words as all-ones; the histogram
        still counts them as zero."""
        plain = make_controller()
        bus = ProbeBus()
        ctrl = MemoryController(plain.device, plain.codec, probes=bus)
        candidates = np.arange(0, ctrl.geometry.total_lines, 997)
        _, rows, _ = ctrl.mapper.line_location(candidates)
        anti = ctrl.codec.predictor.predict_anti(rows)
        addrs = np.concatenate([candidates[anti][:3], candidates[~anti][:3]])
        rng = np.random.default_rng(9)
        lines = (rng.integers(0, 2**40, size=(6, 1), dtype=np.uint64)
                 + rng.integers(0, 64, size=(6, 8), dtype=np.uint64))
        ctrl.write_lines(addrs, lines)
        transformed = ctrl.codec.bitplane.apply(
            ctrl.codec.ebdi.encode(lines, CellType.TRUE))
        histogram = bus.histograms["codec.encoded_zero_fraction"]
        assert histogram.count == 1
        assert histogram.sum == float((transformed == 0).mean()) > 0

    def test_zero_fraction_per_batch_counts_transformed_words(self):
        """One observation per batch of equal write times, each the
        share of the batch's transformed words equal to their row's
        stored zero, on batches that mix true and anti rows."""
        plain = make_controller()
        bus = ProbeBus()
        ctrl = MemoryController(plain.device, plain.codec, probes=bus)
        candidates = np.arange(0, ctrl.geometry.total_lines, 389)
        _, rows, _ = ctrl.mapper.line_location(candidates)
        anti = ctrl.codec.predictor.predict_anti(rows)
        addrs = np.stack([candidates[anti][:9], candidates[~anti][:9]],
                         axis=1).ravel()
        rng = np.random.default_rng(10)
        lines = (rng.integers(0, 2**40, size=(18, 1), dtype=np.uint64)
                 + rng.integers(0, 2**12, size=(18, 8), dtype=np.uint64))
        lines[::4] = rng.integers(0, 2**64, size=(5, 8), dtype=np.uint64)
        times = np.repeat([0.001, 0.002, 0.003], [5, 1, 12])
        observed = []
        record = bus.observe_many
        bus.observe_many = lambda name, values, **kw: (
            observed.extend(values), record(name, values, **kw))
        ctrl.encode_lines(addrs, lines, times)
        _, rows, _ = ctrl.mapper.line_location(addrs)
        transformed = ctrl.codec.transform_lines(lines, rows)
        is_zero = transformed == ctrl.codec.stored_zero(rows)[:, None]
        bounds = [0, 5, 6, 18]
        expected = [float(is_zero[a:b].mean()) for a, b in zip(bounds, bounds[1:])]
        assert observed == pytest.approx(expected, abs=0)
        assert len(set(observed)) > 1 and 0 < min(observed)

    def test_empty_batch_is_noop(self):
        ctrl = make_controller()
        ctrl.write_lines(np.array([], dtype=np.int64),
                         np.empty((0, 8), dtype=np.uint64))
        assert ctrl.line_writes == 0


class TestRoundTripWatchdog:
    """write_lines decodes the first line of each batch from the words
    it stores and checks it against the input, on a checking bus."""

    def armed_controller(self):
        watchdog = ProbeBus(checks=True)
        ctrl = make_controller(probes=watchdog)
        rng = np.random.default_rng(8)
        lines = rng.integers(1, 2**64, size=(4, 8), dtype=np.uint64)
        return ctrl, watchdog, np.array([5, 900, 4100, 9000]), lines

    def test_clean_batch_counts_the_check(self):
        ctrl, watchdog, addrs, lines = self.armed_controller()
        ctrl.write_lines(addrs, lines)
        assert watchdog.checks_run == 1
        assert watchdog.violation_count == 0

    def test_broken_decode_records_a_violation(self, monkeypatch):
        ctrl, watchdog, addrs, lines = self.armed_controller()
        monkeypatch.setattr(ctrl.codec, "decode_row",
                            lambda chip_data, row: np.zeros((1, 8), np.uint64))
        ctrl.write_lines(addrs, lines)
        assert watchdog.checks_run == 1
        assert watchdog.violation_count == 1
        assert watchdog.violations[0]["check"] == "codec.round_trip"
        _, row, _ = ctrl.mapper.line_location(addrs[0])
        assert watchdog.violations[0]["row"] == int(row)


    def test_one_decode_checks_every_batch(self, monkeypatch):
        """A multi-batch write decodes all batches' first lines in one
        call; a stored word corrupted in one batch fails exactly that
        batch's check, with its row and time."""
        watchdog = ProbeBus(checks=True)
        ctrl = make_controller(probes=watchdog)
        rng = np.random.default_rng(11)
        addrs = rng.choice(ctrl.geometry.total_lines, size=12, replace=False)
        lines = rng.integers(1, 2**64, size=(12, 8), dtype=np.uint64)
        times = np.repeat([0.001, 0.002, 0.003, 0.004], 3)
        bad = 6  # the first line of the third batch

        deal = ctrl.codec.rotation.deal

        def corrupting_deal(words, rows, out, chips_first):
            # encode_row deals every line as a group of one, chips
            # first: out[chip, line] is the words the chip stores for it
            deal(words, rows, out, chips_first)
            out[0, bad] ^= np.uint64(1)

        monkeypatch.setattr(ctrl.codec.rotation, "deal", corrupting_deal)
        decode = ctrl.codec.decode_row
        decoded_lines = []

        def counting_decode(chip_data, rows):
            decoded_lines.append(np.size(rows))
            return decode(chip_data, rows)

        monkeypatch.setattr(ctrl.codec, "decode_row", counting_decode)
        ctrl.encode_lines(addrs, lines, times)
        assert decoded_lines == [4]
        assert watchdog.checks_run == 4
        _, rows, _ = ctrl.mapper.line_location(addrs)
        assert watchdog.violations == [
            {"check": "codec.round_trip", "row": int(rows[bad]), "t": 0.003}]


class TestPageInterface:
    @pytest.mark.parametrize("row_bytes", [2048, 4096, 8192])
    def test_page_roundtrip(self, row_bytes):
        ctrl = make_controller(row_bytes)
        rng = np.random.default_rng(4)
        lines = rng.integers(0, 2**64, size=(64, 8), dtype=np.uint64)
        ctrl.write_page(3, lines)
        np.testing.assert_array_equal(ctrl.read_page(3), lines)

    @pytest.mark.parametrize("row_bytes", [2048, 4096, 8192])
    def test_neighbouring_pages_do_not_clobber(self, row_bytes):
        ctrl = make_controller(row_bytes)
        rng = np.random.default_rng(5)
        a = rng.integers(0, 2**64, size=(64, 8), dtype=np.uint64)
        b = rng.integers(0, 2**64, size=(64, 8), dtype=np.uint64)
        ctrl.write_page(0, a)
        ctrl.write_page(1, b)
        np.testing.assert_array_equal(ctrl.read_page(0), a)
        np.testing.assert_array_equal(ctrl.read_page(1), b)

    def test_zero_page_stores_discharged_bits(self):
        ctrl = make_controller()
        ctrl.zero_page(0)  # true-cell row
        bank, row = 0, 0
        assert not ctrl.device.banks[bank].data[row].any()
        # find an anti-cell page: row 32 with interleave 32 -> page 32*8
        anti_page = 32 * 8
        ctrl.zero_page(anti_page)
        assert (ctrl.device.banks[0].data[32]
                == np.uint64(0xFFFFFFFFFFFFFFFF)).all()

    def test_page_and_line_views_agree(self):
        ctrl = make_controller()
        rng = np.random.default_rng(6)
        lines = rng.integers(0, 2**64, size=(64, 8), dtype=np.uint64)
        ctrl.write_page(2, lines)
        for i, addr in enumerate(ctrl.mapper.page_lines(2)[:8]):
            np.testing.assert_array_equal(ctrl.read_line(int(addr)), lines[i])


class TestBulkPopulate:
    @pytest.mark.parametrize("row_bytes", [2048, 4096, 8192])
    def test_populate_matches_page_writes(self, row_bytes):
        ctrl_a = make_controller(row_bytes)
        ctrl_b = make_controller(row_bytes)
        rng = np.random.default_rng(7)
        pages = np.arange(16)
        content = rng.integers(0, 2**64, size=(16, 64, 8), dtype=np.uint64)
        ctrl_a.populate_pages(pages, content)
        for page in pages:
            ctrl_b.write_page(int(page), content[page])
        for bank_a, bank_b in zip(ctrl_a.device.banks, ctrl_b.device.banks):
            np.testing.assert_array_equal(bank_a.data, bank_b.data)

    def test_unnotified_populate_keeps_access_bits_clear(self):
        ctrl = make_controller()
        seen = []
        ctrl.device.add_write_observer(lambda b, r: seen.append((b, r)))
        content = np.zeros((4, 64, 8), dtype=np.uint64)
        ctrl.populate_pages(np.arange(4), content, notify=False)
        assert seen == []
        assert ctrl.ebdi_ops == 0

    @pytest.mark.parametrize("row_bytes", [2048, 4096, 8192])
    def test_partial_population_across_chunks_matches_page_writes(
            self, row_bytes):
        """70 % of the pages, shuffled, on cleansed memory: every bank
        spans several chunks of rows, and with 8 KB rows some rows get
        one of their two pages."""
        ctrl_a = make_controller(row_bytes)
        ctrl_b = make_controller(row_bytes)
        geom = ctrl_a.geometry
        assert geom.rows_per_bank * geom.lines_per_row >= 4 * CHUNK_LINES
        n_pages = geom.total_bytes // geom.page_bytes
        rng = np.random.default_rng(row_bytes)
        pages = rng.permutation(n_pages)[:n_pages * 7 // 10]
        content = rng.integers(0, 2**64, size=(len(pages), 64, 8),
                               dtype=np.uint64)
        for ctrl in (ctrl_a, ctrl_b):
            ctrl.zero_pages(np.arange(n_pages))
        ctrl_a.populate_pages(pages, content)
        for page, lines in zip(pages, content):
            ctrl_b.write_page(int(page), lines)
        np.testing.assert_array_equal(ctrl_a.device.data, ctrl_b.device.data)

    @pytest.mark.parametrize("row_bytes", [2048, 4096, 8192])
    def test_split_population_writes_only_its_pages(self, row_bytes):
        """On memory that holds other content, a shuffled population
        split into calls at arbitrary page boundaries (with 8 KB rows,
        row-mates land in different calls) equals one call and page-by-
        page writes: each call stores its own pages' lines and nothing
        else of their rows."""
        geom = make_controller(row_bytes).geometry
        n_pages = geom.total_bytes // geom.page_bytes
        rng = np.random.default_rng(row_bytes + 1)
        old = rng.integers(0, 2**64, size=(n_pages, 64, 8), dtype=np.uint64)
        pages = rng.permutation(n_pages)[:n_pages // 2]
        content = rng.integers(0, 2**64, size=(len(pages), 64, 8),
                               dtype=np.uint64)
        cuts = np.sort(rng.choice(np.arange(1, len(pages)), 7, replace=False))
        calls = np.split(np.arange(len(pages)), cuts)
        call_of = np.empty(n_pages, dtype=int)
        for k, call in enumerate(calls):
            call_of[pages[call]] = k
        if row_bytes == 8192:
            mates = pages[np.isin(pages ^ 1, pages)]
            assert (call_of[mates] != call_of[mates ^ 1]).any()
        split, whole, by_page = (make_controller(row_bytes) for _ in range(3))
        for ctrl in (split, whole, by_page):
            ctrl.populate_pages(np.arange(n_pages), old)
        for call in calls:
            split.populate_pages(pages[call], content[call])
        whole.populate_pages(pages, content)
        for page, lines in zip(pages, content):
            by_page.write_page(int(page), lines)
        for name in ("data", "last_refresh", "dirty"):
            np.testing.assert_array_equal(getattr(split.device, name),
                                          getattr(whole.device, name))
        assert ([bank.write_count for bank in split.device.banks]
                == [bank.write_count for bank in whole.device.banks])
        np.testing.assert_array_equal(split.device.data, by_page.device.data)
        assert (split.read_page(int(pages[0]))
                == content[0]).all()

    def test_population_holds_a_fixed_number_of_chunks(self):
        """Traced peak of a fully allocated 8 MB population above entry
        (banks of four chunks): at most 7 chunk-sized arrays, measured
        at 5.3 (6.3 when each bank was walked apart), and nothing
        bank-sized.  A population beforehand keeps first-call imports
        out of it."""
        make_controller().populate_pages(np.arange(16),
                                         np.zeros((16, 64, 8), np.uint64))
        ctrl = make_controller()
        geom = ctrl.geometry
        pages = np.arange(geom.total_bytes // geom.page_bytes)
        content = benchmark_profile("mcf").generate_pages(
            len(pages), np.random.default_rng(12), geom.lines_per_page)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            ctrl.populate_pages(pages, content)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        chunk_bytes = CHUNK_LINES * geom.line_bytes
        bank_bytes = geom.rows_per_bank * geom.row_bytes
        assert geom.total_bytes == 8 << 20 and bank_bytes == 4 * chunk_bytes
        assert peak <= 7 * chunk_bytes

    def test_mismatched_codec_rejected(self):
        geom = DramGeometry(rows_per_bank=256, rows_per_ar=32,
                            cell_interleave=32)
        layout = CellTypeLayout(interleave=32)
        device = DramDevice(geom, layout)
        predictor = CellTypePredictor.from_layout(layout, geom.rows_per_bank)
        codec = ValueTransformCodec(predictor, num_chips=4, line_bytes=32)
        with pytest.raises(ValueError):
            MemoryController(device, codec)
