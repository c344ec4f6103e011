"""Per-benchmark memory-content profiles (paper Sec. VI-A substitute).

The paper evaluates 17 SPEC CPU2006, 2 NPB and 4 TPC-H applications,
transforming their *actual* memory images during execution-driven
simulation.  Without redistributable SPEC dumps, each benchmark is
modelled here as a :class:`BenchmarkProfile`: a mixture of the content
classes of :mod:`repro.workloads.synthetic` plus the timing parameters
the IPC model needs.

Calibration anchors (checked by ``tests/workloads/test_benchmarks.py``):

* the mixture-implied refresh reduction of the full suite averages
  ~37 % at 100 % allocation, with gemsFDTD and sphinx3 at the top and
  omnetpp / perlbench / sp.C at the bottom (paper Fig. 14);
* raw content averages ~43 % zero bytes but only ~2-4 % fully-zero 1 KB
  blocks (paper Fig. 6);
* mcf, the Fig. 19 subject, sits near the suite average.

Content is laid out in *segments* — contiguous runs of pages drawn from
one class — because real address spaces are segment-structured (zeroed
BSS, arrays, heaps, mapped files).  Segment lengths are multiples of 64
pages so that a refresh-coupled block of 8 bank-local rows (which holds
pages ``p, p+8, ..., p+56`` under the bank-interleaved mapping) never
mixes classes, mirroring how multi-megabyte real segments behave.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.workloads.synthetic import (
    SKIPPABLE_GROUPS,
    WORDS_PER_LINE,
    generate_lines,
)

SEGMENT_ALIGN_PAGES = 128
"""Segment granularity: 128 pages (512 KB).

A refresh-coupled block spans 8 consecutive bank-local rows of one
bank, i.e. a 64-global-row window under the bank-interleaved mapping —
up to 512 KB with 8 KB rows.  Aligning content segments to that span
keeps every block class-homogeneous at all evaluated row sizes, the
property real multi-megabyte segments have."""

DEFAULT_CONTAMINATION = ((0.55, 0.0), (0.25, 0.0008), (0.20, 0.0035))
"""Per-unit outlier-line contamination: (share, per-line probability).

Real memory images are not perfectly regular — stray pointers, headers
and partially initialised entries interrupt otherwise uniform regions.
45 % of non-zero units are pristine, the rest carry a light or heavy
sprinkling of random outlier lines.  One outlier charges every word
position of its refresh-coupled block, which is what makes smaller row
buffers more effective (paper Fig. 18).
"""


@dataclass(frozen=True)
class BenchmarkProfile:
    """Value statistics and timing parameters of one benchmark.

    ``mixture`` maps content-class names to page-fraction weights
    (summing to 1).  ``mpki`` (LLC misses per kilo-instruction),
    ``base_ipc`` and ``refresh_sensitivity`` parameterise the IPC model
    of :mod:`repro.cpu.core`; ``mean_segment_units`` scales segment
    lengths (in units of 64 pages).
    """

    name: str
    suite: str
    mixture: Dict[str, float]
    mpki: float
    base_ipc: float = 1.0
    refresh_sensitivity: float = 2.0
    mean_segment_units: int = 4
    description: str = ""
    contamination: Tuple[Tuple[float, float], ...] = DEFAULT_CONTAMINATION

    def __post_init__(self):
        total = sum(self.mixture.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{self.name}: mixture weights sum to {total}, not 1")
        unknown = set(self.mixture) - set(SKIPPABLE_GROUPS)
        if unknown:
            raise ValueError(f"{self.name}: unknown content classes {unknown}")

    # ------------------------------------------------------------------
    def expected_reduction(self, row_bytes: int = 4096) -> float:
        """Mixture-implied refresh reduction at 100 % allocation.

        Each pure region of class ``c`` can skip ``SKIPPABLE_GROUPS[c]``
        of its 8 word-position groups once transformed — *if* no
        contaminating outlier line lands in the refresh-coupled block.
        A block spans 8 rows, i.e. ``row_bytes / 8`` cachelines, which
        is where the row-size sensitivity of Fig. 18 comes from: the
        survival probability ``(1 - eps) ** lines_per_block`` grows as
        rows shrink.  Zero (idle) regions are never contaminated.
        """
        lines_per_block = row_bytes // 8
        survival = sum(
            share * (1.0 - eps) ** lines_per_block
            for share, eps in self.contamination
        )
        total = 0.0
        for name, weight in self.mixture.items():
            factor = 1.0 if name == "zero" else survival
            total += weight * SKIPPABLE_GROUPS[name] / WORDS_PER_LINE * factor
        return total

    # ------------------------------------------------------------------
    def segment_classes(self, n_pages: int, rng: np.random.Generator) -> List[Tuple[str, int]]:
        """Assign content classes to the 64-page units covering ``n_pages``.

        Units per class follow the mixture weights *exactly* (largest-
        remainder rounding), then the unit order is shuffled, so even a
        small simulated memory realises the intended page fractions
        while every refresh-coupled block stays class-homogeneous.
        Returns a (class, page-count) run list.
        """
        n_units = max(1, -(-n_pages // SEGMENT_ALIGN_PAGES))
        names = list(self.mixture)
        weights = np.array([self.mixture[name] for name in names], dtype=float)
        exact = weights / weights.sum() * n_units
        counts = np.floor(exact).astype(int)
        shortfall = n_units - counts.sum()
        if shortfall > 0:
            order = np.argsort(-(exact - counts))
            counts[order[:shortfall]] += 1
        unit_classes = np.repeat(np.arange(len(names)), counts)
        rng.shuffle(unit_classes)
        segments: List[Tuple[str, int]] = []
        remaining = n_pages
        for class_idx in unit_classes:
            pages = min(remaining, SEGMENT_ALIGN_PAGES)
            if pages <= 0:
                break
            segments.append((names[class_idx], pages))
            remaining -= pages
        return segments

    def segments(self, n_pages: int, rng: np.random.Generator,
                 lines_per_page: int = 64) -> Iterator[np.ndarray]:
        """Page contents one segment at a time, each ``(pages,
        lines_per_page, 8)``, in page order.

        The draws come in a fixed order: the unit shuffle of
        :meth:`segment_classes` first, then per segment its lines, its
        contamination level and its outliers.  Each non-zero segment
        sprinkles that fraction of outlier (fully random) lines — the
        stray pointers and headers that interrupt otherwise regular
        regions in real memory images.  A caller that stores a segment
        before taking the next holds one segment of content, not all of
        it.
        """
        shares = np.array([s for s, _ in self.contamination])
        epsilons = np.array([e for _, e in self.contamination])
        shares = shares / shares.sum()
        for name, pages in self.segment_classes(n_pages, rng):
            count = pages * lines_per_page
            lines = generate_lines(name, count, rng)
            if name != "zero":
                eps = float(epsilons[rng.choice(len(epsilons), p=shares)])
                if eps > 0.0:
                    outliers = np.flatnonzero(rng.random(count) < eps)
                    if len(outliers):
                        lines[outliers] = generate_lines(
                            "random", len(outliers), rng
                        )
            yield lines.reshape(pages, lines_per_page, -1)

    def generate_pages(self, n_pages: int, rng: np.random.Generator,
                       lines_per_page: int = 64) -> np.ndarray:
        """Generate page contents: shape (n_pages, lines_per_page, 8),
        the :meth:`segments` one after another."""
        out = np.empty((n_pages, lines_per_page, WORDS_PER_LINE), dtype=np.uint64)
        cursor = 0
        for segment in self.segments(n_pages, rng, lines_per_page):
            out[cursor:cursor + len(segment)] = segment
            cursor += len(segment)
        return out


def _spec(name, mixture, mpki, ipc, alpha, **kw):
    return BenchmarkProfile(name, "SPEC CPU2006", mixture, mpki, ipc, alpha, **kw)


def _npb(name, mixture, mpki, ipc, alpha, **kw):
    return BenchmarkProfile(name, "NPB", mixture, mpki, ipc, alpha, **kw)


def _tpch(name, mixture, mpki, ipc, alpha, **kw):
    return BenchmarkProfile(name, "TPC-H", mixture, mpki, ipc, alpha, **kw)


PROFILES: Dict[str, BenchmarkProfile] = {
    p.name: p
    for p in [
        _spec("astar",
              {"zero": 0.02, "smallint8": 0.1068, "pointer": 0.3737,
               "int32": 0.1335, "padded": 0.15, "random": 0.216},
              mpki=10.0, ipc=0.7, alpha=8.0,
              description="path-finding over pointer-linked graph tiles"),
        _spec("bzip2",
              {"uniform32": 0.0667, "smallint8": 0.1602, "smallint16": 0.1335,
               "int32": 0.1602, "padded": 0.15, "random": 0.3294},
              mpki=4.0, ipc=1.1, alpha=6.0,
              description="block-sorting compressor; mostly high-entropy buffers"),
        _spec("cactusADM",
              {"zero": 0.06, "uniform32": 0.1948, "smallint8": 0.1515,
               "medium": 0.1948, "float64": 0.3789, "padded": 0.01,
               "random": 0.01},
              mpki=15.0, ipc=0.8, alpha=12.0,
              description="numerical relativity; large FP grids"),
        _spec("gcc",
              {"zero": 0.04, "uniform32": 0.1335, "smallint8": 0.2002,
               "pointer": 0.2936, "medium": 0.1335, "padded": 0.12,
               "random": 0.0792},
              mpki=8.0, ipc=0.9, alpha=8.0,
              description="compiler IR: pointer-rich ASTs and small enums"),
        _spec("gemsFDTD",
              {"zero": 0.15, "uniform32": 0.3319, "smallint8": 0.2767,
               "medium": 0.1107, "float64": 0.1107, "padded": 0.01,
               "random": 0.01},
              mpki=25.0, ipc=0.5, alpha=24.0,
              description="FDTD solver: sparsely excited field arrays"),
        _spec("gobmk",
              {"smallint8": 0.1068, "smallint16": 0.1068, "pointer": 0.1068,
               "int32": 0.1335, "wide": 0.1068, "padded": 0.15,
               "random": 0.2893},
              mpki=1.0, ipc=1.2, alpha=1.2,
              description="Go engine: compact board state, cache resident"),
        _spec("h264ref",
              {"uniform32": 0.0801, "smallint8": 0.1602, "medium": 0.2002,
               "int32": 0.1335, "wide": 0.1068, "padded": 0.15,
               "random": 0.1692},
              mpki=3.0, ipc=1.3, alpha=4.0,
              description="video encoder: pixel blocks and motion vectors"),
        _spec("hmmer",
              {"uniform32": 0.1068, "smallint8": 0.1869, "smallint16": 0.1602,
               "int32": 0.1869, "padded": 0.15, "random": 0.2092},
              mpki=2.5, ipc=1.4, alpha=3.0,
              description="profile HMM search: scoring matrices of small ints"),
        _spec("lbm",
              {"zero": 0.05, "uniform32": 0.2188, "smallint8": 0.1641,
               "medium": 0.1641, "float64": 0.383, "padded": 0.01,
               "random": 0.01},
              mpki=22.0, ipc=0.6, alpha=20.0,
              description="lattice Boltzmann: FP lattices with idle cells"),
        _spec("leslie3d",
              {"zero": 0.1, "uniform32": 0.198, "smallint8": 0.165,
               "medium": 0.22, "float64": 0.297, "padded": 0.01,
               "random": 0.01},
              mpki=18.0, ipc=0.7, alpha=16.0,
              description="CFD solver: structured FP grids, zero halos"),
        _spec("libquantum",
              {"uniform32": 0.4573, "smallint8": 0.3267, "int32": 0.196,
               "padded": 0.01, "random": 0.01},
              mpki=20.0, ipc=0.6, alpha=18.0,
              description="quantum simulation: regular state vectors"),
        _spec("mcf",
              {"zero": 0.03, "smallint8": 0.1335, "pointer": 0.4271,
               "int32": 0.1602, "padded": 0.13, "random": 0.1192},
              mpki=30.0, ipc=0.4, alpha=22.0,
              description="network simplex: pointer-heavy arcs and nodes"),
        _spec("milc",
              {"uniform32": 0.167, "smallint8": 0.1336, "smallint16": 0.1336,
               "medium": 0.1336, "float64": 0.4122, "padded": 0.01,
               "random": 0.01},
              mpki=16.0, ipc=0.7, alpha=16.0,
              description="lattice QCD: SU(3) matrices of doubles"),
        _spec("omnetpp",
              {"pointer": 0.0801, "int32": 0.1335, "int48": 0.2002,
               "wide": 0.0801, "padded": 0.15, "random": 0.3561},
              mpki=12.0, ipc=0.6, alpha=12.0,
              description="discrete-event simulator: scattered heap objects"),
        _spec("perlbench",
              {"smallint8": 0.0667, "pointer": 0.0801, "int32": 0.1068,
               "text": 0.3, "int48": 0.1335, "padded": 0.13,
               "random": 0.1829},
              mpki=3.0, ipc=1.1, alpha=3.0,
              description="interpreter: string buffers and tagged values"),
        _spec("sphinx3",
              {"zero": 0.1, "uniform32": 0.22, "smallint8": 0.33,
               "smallint16": 0.165, "float64": 0.165, "padded": 0.01,
               "random": 0.01},
              mpki=14.0, ipc=0.8, alpha=12.0,
              description="speech recognition: quantised acoustic models"),
        _spec("zeusmp",
              {"zero": 0.05, "uniform32": 0.2093, "smallint8": 0.1744,
               "medium": 0.1744, "float64": 0.3719, "padded": 0.01,
               "random": 0.01},
              mpki=12.0, ipc=0.8, alpha=12.0,
              description="astrophysical MHD on structured grids"),
        _npb("cg.C",
             {"uniform32": 0.1527, "smallint16": 0.1909, "int32": 0.1909,
               "medium": 0.1909, "float64": 0.2546, "padded": 0.01,
               "random": 0.01},
             mpki=17.0, ipc=0.6, alpha=14.0,
             description="conjugate gradient: sparse matrix + index vectors"),
        _npb("sp.C",
             {"medium": 0.1068, "wide": 0.1602, "float64": 0.3336,
               "int48": 0.1335, "padded": 0.15, "random": 0.1159},
             mpki=15.0, ipc=0.7, alpha=12.0,
             description="scalar penta-diagonal solver: dense FP working set"),
        _tpch("tpch.q1",
              {"uniform32": 0.2402, "smallint8": 0.2136, "smallint16": 0.1602,
               "int32": 0.2002, "padded": 0.13, "random": 0.0558},
              mpki=9.0, ipc=0.9, alpha=9.0,
              description="scan-aggregate over lineitem columns"),
        _tpch("tpch.q5",
              {"uniform32": 0.1869, "smallint8": 0.1869, "smallint16": 0.1335,
               "int32": 0.2001, "text": 0.1, "padded": 0.12,
               "random": 0.0726},
              mpki=10.0, ipc=0.8, alpha=10.0,
              description="multi-join with date filters"),
        _tpch("tpch.q13",
              {"zero": 0.04, "uniform32": 0.2669, "smallint8": 0.267,
               "smallint16": 0.1335, "text": 0.15, "padded": 0.1,
               "random": 0.0426},
              mpki=8.0, ipc=0.9, alpha=8.0,
              description="outer-join aggregate with comment strings"),
        _tpch("tpch.q17",
              {"uniform32": 0.1068, "smallint8": 0.1335, "smallint16": 0.1335,
               "pointer": 0.1068, "int32": 0.1602, "padded": 0.15,
               "random": 0.2092},
              mpki=11.0, ipc=0.8, alpha=10.0,
              description="correlated subquery over parts"),
    ]
}
"""All benchmark profiles keyed by name."""

BENCHMARK_NAMES = tuple(PROFILES)


def benchmark_profile(name: str) -> BenchmarkProfile:
    """Look up a benchmark profile by name."""
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; expected one of {BENCHMARK_NAMES}"
        ) from None


def suite_average_reduction() -> float:
    """Mixture-implied suite-average refresh reduction (paper: 37.1 %)."""
    return float(np.mean([p.expected_reduction() for p in PROFILES.values()]))
