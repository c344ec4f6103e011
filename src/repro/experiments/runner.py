"""Shared experiment harness.

Experiment modules describe their work to the engine as
``plan(settings) -> list[SimJob]`` / ``reduce(settings, results)``
(see :mod:`repro.experiments.engine`); :class:`ExperimentSettings`
fixes the simulation scale so the same code serves quick benchmark
runs (small memory, few benchmarks) and full paper-scale sweeps.

:func:`simulate_benchmark` is the workhorse: one full ZERO-REFRESH
simulation of a benchmark at an allocation level, returning the
:class:`~repro.core.metrics.RunResult` the figure modules aggregate.
It is the default job body the engine fans out over worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import SystemConfig
from repro.core.metrics import RunResult
from repro.core.zero_refresh import ZeroRefreshSystem
from repro.dram.timing import TemperatureMode
from repro.workloads.benchmarks import BENCHMARK_NAMES, benchmark_profile

QUICK_BENCHMARKS = (
    "gemsFDTD", "sphinx3", "libquantum", "mcf", "gcc",
    "bzip2", "omnetpp", "sp.C", "tpch.q1",
)
"""Representative subset spanning the reduction range, for quick runs."""


def _is_int(value) -> bool:
    """An integer that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentSettings:
    """Scale knobs shared by all experiments.

    ``memory_bytes`` is the simulated capacity (ratios to the paper's
    32 GB are preserved by construction); ``windows`` the measured
    retention windows (paper: 8); ``benchmarks`` the suite slice.
    """

    memory_bytes: int = 32 << 20
    windows: int = 8
    benchmarks: Tuple[str, ...] = BENCHMARK_NAMES
    temperature: TemperatureMode = TemperatureMode.EXTENDED
    rows_per_ar: int = 128
    seed: int = 7

    def __post_init__(self):
        """Reject settings no run can use, naming the field."""
        for name in ("memory_bytes", "windows", "rows_per_ar"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(
                    f"{name} must be a positive int, got {value!r}")
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if not isinstance(self.temperature, TemperatureMode):
            names = ", ".join(mode.name for mode in TemperatureMode)
            raise ValueError(f"temperature must be a TemperatureMode "
                             f"({names}), got {self.temperature!r}")
        if not self.benchmarks:
            raise ValueError("benchmarks must name at least one benchmark")
        try:
            self.config()
        except ValueError as exc:
            raise ValueError(
                f"memory_bytes={self.memory_bytes} with "
                f"rows_per_ar={self.rows_per_ar}: {exc}") from None

    @classmethod
    def quick(cls, **overrides) -> "ExperimentSettings":
        """Small scale for benches/CI: 16 MB, 2 windows, 9 benchmarks.

        ``rows_per_ar`` drops to 32 so the scaled memory still has many
        AR sets per bank; with the paper's 128 a 16 MB memory has only
        4 sets per bank and the write traffic's dirty-set floor
        dominates every scenario.
        """
        defaults = dict(
            memory_bytes=16 << 20, windows=2, benchmarks=QUICK_BENCHMARKS,
            rows_per_ar=32,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def from_dict(cls, overrides=None, quick: bool = False) -> "ExperimentSettings":
        """Build settings from a plain (JSON-decoded) override mapping.

        Parsed by :func:`repro.scenarios.resolve.apply_settings`, the
        one parser every entry point shares: unknown keys and unknown
        benchmark names raise ``ValueError`` so a mistyped request
        fails loudly instead of running the wrong scale.
        ``quick=True`` starts from :meth:`quick`.
        """
        from repro.scenarios.resolve import apply_settings

        return apply_settings(cls.quick() if quick else cls(), overrides)

    def config(self, **overrides) -> SystemConfig:
        return SystemConfig.scaled(
            total_bytes=self.memory_bytes,
            temperature=self.temperature,
            seed=overrides.pop("seed", self.seed),
            rows_per_ar=overrides.pop("rows_per_ar", self.rows_per_ar),
            **overrides,
        )


@dataclass
class ExperimentResult:
    """Printable result of one experiment."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List]
    notes: str = ""
    paper_reference: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        from repro.analysis.report import render_table

        parts = [f"[{self.experiment_id}] {self.title}",
                 render_table(self.headers, self.rows)]
        if self.paper_reference:
            ref = ", ".join(f"{k}={v}" for k, v in self.paper_reference.items())
            parts.append(f"paper: {ref}")
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)

    def to_csv(self) -> str:
        """The table as CSV (headers + rows), for external plotting."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buffer.getvalue()

    def to_dict(self) -> Dict:
        """Plain-python form of the result (JSON-able)."""

        def plain(value):
            if hasattr(value, "item"):  # numpy scalars
                return value.item()
            return value

        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [[plain(v) for v in row] for row in self.rows],
            "notes": self.notes,
            "paper_reference": {k: plain(v)
                                for k, v in self.paper_reference.items()},
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The result as a JSON document (machine-readable ``render``)."""
        import json

        return json.dumps(self.to_dict(), indent=indent)

    def save_csv(self, path) -> None:
        from pathlib import Path

        Path(path).write_text(self.to_csv())


def simulate_benchmark(
    settings: ExperimentSettings,
    benchmark: str,
    allocated_fraction: float = 1.0,
    config_overrides: Optional[dict] = None,
    seed_offset: int = 0,
) -> RunResult:
    """Run one full system simulation and return its results."""
    overrides = dict(config_overrides or {})
    config = settings.config(seed=settings.seed + seed_offset, **overrides)
    system = ZeroRefreshSystem(config)
    profile = benchmark_profile(benchmark)
    system.populate(profile, allocated_fraction=allocated_fraction)
    return system.run_windows(settings.windows)
