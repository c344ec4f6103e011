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

from typing import Callable, Optional, Protocol, runtime_checkable

WriteHook = Callable[[float, float], None]
"""``hook(span_start_s, span_end_s)`` — inject the traffic of one
inter-command span; the refresh engines call it between refresh
slots, the per-window counter models ignore it."""


@runtime_checkable
class RefreshScheme(Protocol):
    """One retention window of refresh decisions.

    ``run_window`` returns the window's stats *delta* — an object
    supporting ``merged_with`` (normally
    :class:`~repro.dram.refresh.RefreshStats`) that the kernel
    accumulates without mutating either operand.
    """

    def run_window(self, start_time_s: float = 0.0,
                   write_hook: Optional[WriteHook] = None):
        ...
