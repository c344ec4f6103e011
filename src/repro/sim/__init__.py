"""The unified retention-window simulation kernel.

One loop for every refresh mechanism: :class:`SimKernel` drives warmup
and measured windows over the :class:`RefreshScheme` protocol, with
adapters (:mod:`repro.sim.schemes`) for the baselines and
:func:`run_concurrent` for lockstep composition of independent refresh
domains (multi-rank DIMMs).  See DESIGN.md, "Simulation kernel and
probe bus".
"""

from repro.sim.kernel import SimKernel, run_concurrent
from repro.sim.scheme import RefreshScheme
from repro.sim.schemes import (
    RaidrScheme,
    SmartRefreshScheme,
    ZeroIndicatorRefreshScheme,
)

__all__ = [
    "RaidrScheme",
    "RefreshScheme",
    "SimKernel",
    "SmartRefreshScheme",
    "ZeroIndicatorRefreshScheme",
    "run_concurrent",
]
