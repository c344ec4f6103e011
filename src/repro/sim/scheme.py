"""The :class:`RefreshScheme` protocol every refresh mechanism speaks.

A *scheme* is anything that can process one retention window:
ZERO-REFRESH's :class:`~repro.dram.refresh.RefreshEngine` (in all its
modes), the hybrid engine, and the adapter-wrapped baselines in
:mod:`repro.sim.schemes`.  The :class:`~repro.sim.kernel.SimKernel`
drives schemes through warmup and measured windows without knowing
which mechanism it is timing — the seam that keeps cross-scheme
comparisons (Fig. 14/15/17/19) on one timeline by construction.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable


@runtime_checkable
class RefreshScheme(Protocol):
    """One retention window of refresh decisions.

    ``run_window`` returns the window's stats *delta* — an object
    supporting ``merged_with`` (normally
    :class:`~repro.dram.refresh.RefreshStats`) that the kernel
    accumulates without mutating either operand.  A scheme that models
    memory traffic takes it before the window, through its own posting
    methods (the refresh engines' ``post_writes`` and ``post_reads``).
    """

    def run_window(self, start_time_s: float = 0.0):
        ...
