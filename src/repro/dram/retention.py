"""Cell decay and data-integrity validation.

A DRAM cell's capacitor leaks: a *charged* cell that is not recharged
within the retention window loses its value, while a *discharged* cell
has nothing to lose — the physical property the whole paper rests on
(Sec. I).  :class:`RetentionTracker` models that decay against the
per-(bank, row, chip) recharge timestamps the rank maintains, and is used by

* integrity tests, proving that ZERO-REFRESH's skipping never lets a
  charged cell go overdue, and
* failure-injection tests, showing that a *broken* tracker (e.g. one
  that skips charged rows) visibly corrupts data in this model.

Decay is applied lazily: :meth:`RetentionTracker.decay` scans the
rank's arrays once for overdue chip slices and drives every cell of
each to the discharged state (stored bits become the row's discharged
read value).  Slices that were already fully discharged decay to
themselves — skipping them is safe by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.dram.device import (
    DramDevice,
    discharged,
    discharged_value,
    overdue_slices,
)


@dataclass
class DecayEvent:
    """A chip slice that went overdue while holding charge (data loss)."""

    bank: int
    row: int
    chip: int
    time_s: float


@dataclass
class DecayReport:
    """Outcome of one decay scan."""

    overdue_slices: int = 0
    corrupted: List[DecayEvent] = field(default_factory=list)

    @property
    def data_loss(self) -> bool:
        return bool(self.corrupted)


class RetentionTracker:
    """Applies capacitor decay to a device and reports integrity."""

    def __init__(self, device: DramDevice, tret_s: float):
        if tret_s <= 0:
            raise ValueError("retention window must be positive")
        self.device = device
        self.tret_s = tret_s

    def overdue(self, time_s: float) -> List[Tuple[int, int, int]]:
        """(bank, row, chip) slices beyond the retention window."""
        slices = overdue_slices(self.device.last_refresh, time_s, self.tret_s)
        return [tuple(where) for where in slices.tolist()]

    def decay(self, time_s: float) -> DecayReport:
        """Decay every overdue slice; report those that held charge.

        Overdue slices are driven to the fully-discharged pattern and
        their timestamps reset (a decayed cell is stable).  A slice that
        contained any charged cell is recorded as corrupted.
        """
        slices, charged = self._scan(time_s)
        report = DecayReport(len(slices), [
            DecayEvent(bank, row, chip, time_s)
            for bank, row, chip in slices[charged].tolist()])
        device = self.device
        banks, rows, chips = slices.T
        device.data[banks, rows, chips] = discharged_value(
            device.anti[banks, rows], device.data.dtype)[:, None, None]
        device.last_refresh[banks, rows, chips] = time_s
        return report

    def verify_no_loss(self, time_s: float) -> bool:
        """True when no charged slice is overdue at ``time_s``."""
        return not self._scan(time_s)[1].any()

    def _scan(self, time_s: float) -> Tuple[np.ndarray, np.ndarray]:
        """The overdue slices as ``(bank, row, chip)`` rows in index
        order, and whether each one holds charge."""
        device = self.device
        slices = overdue_slices(device.last_refresh, time_s, self.tret_s)
        banks, rows, chips = slices.T
        held = ~discharged(device.data[banks, rows, chips],
                           device.anti[banks, rows], device.spared[banks, rows])
        return slices, held
