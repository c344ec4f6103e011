"""Structural DRAM model for ZERO-REFRESH (paper Secs. II and IV).

The model is bit-accurate where it matters for the paper's claims:

* :mod:`repro.dram.timing` — retention window, refresh cadence
  (tREFI / tRFC) and the Table II timing/current parameters, including
  the normal (64 ms) and extended (32 ms) temperature modes.
* :mod:`repro.dram.geometry` — rank/chip/bank/row/line geometry and
  address decomposition; refresh-set and rotation-block layout.
* :mod:`repro.dram.device` — a rank's state in rank-wide arrays, bank
  axis first: bus-level (stored-bit) words, retention timestamps and
  dirty flags, the wire-OR discharged detector, and one batch access
  path per granularity (lines, and rows or pages) for the memory
  controller.
* :mod:`repro.dram.refresh` — the per-bank auto-refresh engine with
  staggered per-chip refresh counters (Fig. 8) and charge-aware skip.
* :mod:`repro.dram.tracking` — the discharged-status table (stored in
  DRAM) plus the coarse SRAM access-bit table (Sec. IV-B), and the
  naive all-SRAM tracker used as the cost baseline.
* :mod:`repro.dram.retention` — cell decay and data-integrity checking
  used by the failure-injection tests.
"""

from repro.dram.commands import Command, CommandTimer, TimingViolation
from repro.dram.device import DramDevice
from repro.dram.geometry import DramGeometry
from repro.dram.refresh import RefreshCounters, RefreshEngine
from repro.dram.retention import RetentionTracker
from repro.dram.timing import TemperatureMode, TimingParams
from repro.dram.variation import RetentionProfile, VrtProcess
from repro.dram.tracking import (
    AccessBitTable,
    DischargedStatusTable,
    NaiveSramTracker,
)

__all__ = [
    "AccessBitTable",
    "Command",
    "CommandTimer",
    "RetentionProfile",
    "TimingViolation",
    "VrtProcess",
    "DischargedStatusTable",
    "DramDevice",
    "DramGeometry",
    "NaiveSramTracker",
    "RefreshCounters",
    "RefreshEngine",
    "RetentionTracker",
    "TemperatureMode",
    "TimingParams",
]
