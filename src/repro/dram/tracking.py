"""Discharged-row tracking hardware (paper Sec. IV-B).

Three structures are modelled:

:class:`NaiveSramTracker`
    The rejected strawman: one status bit per logical row held in a
    DIMM-side SRAM array, updated on *every* memory write.  At 32 GB /
    4 KB rows that is >8.3 M bits — a 1 MB SRAM burning 337.14 mW of
    leakage (CACTI 6.5, 32 nm).  Kept as the cost baseline for the
    tracking ablation.

:class:`DischargedStatusTable`
    ZERO-REFRESH's table: the same one-bit-per-row status, but stored in
    a reserved corner of DRAM itself.  It is only read or written at
    refresh time — one ``rows_per_ar``-bit vector (the paper's 16 B
    buffer for 128 rows) per AR command — so its DRAM traffic is tiny
    and is accounted per access for the energy model.

:class:`AccessBitTable`
    The coarse SRAM filter that makes the DRAM-resident table cheap:
    one bit per AR set records "some row in this set was written since
    its last refresh".  Only 8 KB of SRAM at 32 GB (2.71 mW, 0.076 mm²
    per CACTI).  An AR whose bit is clear trusts the stored status
    vector; an AR whose bit is set refreshes everything, re-derives the
    status with the wire-OR detector, and writes the vector back once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dram.geometry import DramGeometry


@dataclass
class TrackingCosts:
    """Storage footprint of a tracking structure, for the energy model."""

    sram_bits: int = 0
    dram_bits: int = 0

    @property
    def sram_bytes(self) -> float:
        return self.sram_bits / 8

    @property
    def dram_bytes(self) -> float:
        return self.dram_bits / 8


class AccessBitTable:
    """One SRAM bit per (bank, AR set): written-since-last-refresh filter."""

    def __init__(self, geometry: DramGeometry):
        self.geometry = geometry
        self._bits = np.zeros(
            (geometry.num_banks, geometry.ar_sets_per_bank), dtype=bool
        )
        self.sets_observed = 0

    def note_writes(self, banks, rows) -> None:
        """Record memory writes to ``rows`` of ``banks`` (ints, or
        equal-length arrays)."""
        sets = np.asarray(rows) // self.geometry.rows_per_ar
        self._bits[np.asarray(banks), sets] = True

    def test_and_clear(self, bank, ar_set):
        """Consume the bit for an AR command (reads then clears it);
        ``bank`` and ``ar_set`` may be equal-length arrays of commands."""
        self.sets_observed += np.size(bank)
        value = self._bits[bank, ar_set].copy()
        self._bits[bank, ar_set] = False
        return value

    def peek(self, bank: int, ar_set: int) -> bool:
        return bool(self._bits[bank, ar_set])

    @property
    def costs(self) -> TrackingCosts:
        """SRAM bits required: one per AR set (8 KB at 32 GB / 8 banks)."""
        return TrackingCosts(sram_bits=self._bits.size)


class DischargedStatusTable:
    """Per-refresh-group discharged status, stored in DRAM.

    The table holds one bit per refresh group (= per logical row); the
    refresh engine reads or writes it in ``rows_per_ar``-bit vectors,
    one DRAM access per AR command, staged through the 16 B charge-state
    register of Fig. 7.  ``reads`` / ``writes`` count those DRAM
    accesses for the energy model.
    """

    def __init__(self, geometry: DramGeometry):
        self.geometry = geometry
        # All rows start unknown/charged: never skip before first derivation.
        self._status = np.zeros(
            (geometry.num_banks, geometry.ar_sets_per_bank, geometry.rows_per_ar),
            dtype=bool,
        )
        self.reads = 0
        self.writes = 0

    def read_vector(self, bank, ar_set) -> np.ndarray:
        """Fetch the status vector for one AR command (one DRAM read);
        equal-length arrays fetch one vector, one read, per command."""
        self.reads += np.size(bank)
        return self._status[bank, ar_set].copy()

    def write_vector(self, bank, ar_set, status: np.ndarray) -> None:
        """Write back a renewed status vector (one DRAM write), or one
        per command for equal-length arrays."""
        status = np.asarray(status, dtype=bool)
        if status.shape[-1:] != (self.geometry.rows_per_ar,):
            raise ValueError(
                f"status vector must have {self.geometry.rows_per_ar} bits"
            )
        self.writes += np.size(bank)
        self._status[bank, ar_set] = status

    def peek(self, bank: int, ar_set: int) -> np.ndarray:
        """Inspect without counting an access (tests/diagnostics)."""
        return self._status[bank, ar_set].copy()

    def discharged_fraction(self) -> float:
        """Fraction of groups currently marked discharged."""
        return float(self._status.mean())

    @property
    def costs(self) -> TrackingCosts:
        """DRAM bits consumed (1 MB equivalent at 32 GB) plus the 16 B
        charge-state staging register per rank."""
        return TrackingCosts(
            sram_bits=self.geometry.rows_per_ar,  # the staging register
            dram_bits=self._status.size,
        )


class NaiveSramTracker:
    """Strawman tracker: full per-row status in SRAM, updated per write.

    Every memory write triggers a content check of the written row and
    an SRAM update; ``updates`` counts them.  Functionally it yields the
    same skip decisions as the optimised design, at >100x the SRAM
    leakage (see :mod:`repro.energy.sram`).
    """

    def __init__(self, geometry: DramGeometry):
        self.geometry = geometry
        self._status = np.zeros(
            (geometry.num_banks, geometry.rows_per_bank), dtype=bool
        )
        self.updates = 0

    def note_write(self, bank, row: int, discharged: bool) -> None:
        """Update the row's bit after a write (content already checked)."""
        self._status[bank, row] = discharged
        self.updates += 1

    def is_discharged(self, bank: int, row: int) -> bool:
        return bool(self._status[bank, row])

    def vector(self, bank, ar_set) -> np.ndarray:
        """The bits of an AR set (or of equal-length arrays of them)."""
        return self._by_set()[bank, ar_set].copy()

    def set_vector(self, bank, ar_set, status: np.ndarray) -> None:
        self._by_set()[bank, ar_set] = status

    def _by_set(self) -> np.ndarray:
        geometry = self.geometry
        return self._status.reshape(geometry.num_banks,
                                    geometry.ar_sets_per_bank,
                                    geometry.rows_per_ar)

    @property
    def costs(self) -> TrackingCosts:
        """SRAM bits: one per logical row (1 MB at 32 GB)."""
        return TrackingCosts(sram_bits=self._status.size)
