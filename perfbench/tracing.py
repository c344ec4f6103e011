"""Layer spans recorded from outside the program.

:class:`Tracer` wraps public functions of ``repro`` where their callers
look them up (a class attribute, or a name imported into a module),
records one span per call in memory, and restores every original when
the ``with`` block ends, also on error.  Nothing under ``src/`` knows
it is being traced.

A span is ``(name, start, end, parent, job)``: ``parent`` is the index
of the span that was open when it started (``-1`` for a root) and
``job`` the engine job, or replay, it belongs to.  :func:`summarize`
turns the spans into per-layer self times (a span's duration minus the
time its child spans cover) and call counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

# (module, attribute path, span name, items counted per call)
# ``items`` names how to count the lines a call handles: "rows" for a
# (rows, lines, words) array in argument 1, "lines" for its length.
LAYER_SPANS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("repro.transform.codec", "ValueTransformCodec.encode_rows",
     "transform.encode_rows", "rows"),
    ("repro.transform.bitplane", "BitPlaneTransform.apply",
     "transform.bitplane", "lines"),
    ("repro.transform.bitplane", "BitPlaneTransform.invert",
     "transform.bitplane", "lines"),
    ("repro.transform.ebdi", "EbdiCodec.encode", "transform.ebdi", None),
    ("repro.transform.ebdi", "EbdiCodec.decode", "transform.ebdi", None),
    ("repro.transform.codec", "ValueTransformCodec.decode_row",
     "transform.decode_row", None),
    ("repro.transform.rotation", "RotationMapper.scatter",
     "transform.rotation", None),
    ("repro.transform.rotation", "RotationMapper.gather",
     "transform.rotation", None),
    ("repro.controller.memctrl", "MemoryController.populate_pages",
     "controller.populate_pages", None),
    ("repro.controller.memctrl", "MemoryController.write_lines",
     "controller.write_lines", "lines"),
    ("repro.controller.memctrl", "MemoryController.read_line",
     "controller.read_line", None),
    ("repro.workloads.benchmarks", "BenchmarkProfile.generate_pages",
     "workloads.generate_pages", None),
    # the write path's per-line content generator, as the system
    # imported it (population calls the same function through
    # repro.workloads.benchmarks and stays inside generate_pages)
    ("repro.core.zero_refresh", "generate_lines",
     "workloads.generate_lines", None),
    ("repro.workloads.access", "WorkingSetTraceGenerator.window_trace",
     "workloads.window_trace", None),
    ("repro.dram.device", "DramDevice.populate_rows",
     "dram.populate_rows", None),
    ("repro.core.zero_refresh", "ZeroRefreshSystem.__init__",
     "core.build", None),
    ("repro.core.zero_refresh", "ZeroRefreshSystem.populate",
     "core.populate", None),
    ("repro.core.zero_refresh", "ZeroRefreshSystem.run_windows",
     "core.run_windows", None),
    ("repro.sim.kernel", "SimKernel.step", "sim.window", None),
    ("repro.sim.schemes", "SmartRefreshScheme.run_window",
     "baselines.smart_refresh", None),
    ("repro.cache.caches", "CacheHierarchy.access", "cache.access", None),
    ("repro.cpu.trace", "TraceDrivenDriver.replay", "cpu.replay", None),
    ("repro.experiments.cache", "ResultCache.put", "store.put", None),
)

REFRESH_TARGET = ("repro.dram.refresh", "RefreshEngine.run_window")
PROCESS_AR_TARGET = ("repro.dram.refresh", "RefreshEngine.process_ar")
# serial engine jobs run through this name; each call starts a new job id
JOB_TARGET = ("repro.experiments.backends", "run_job_in_worker")

SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(
    [name for _, _, name, _ in LAYER_SPANS] + ["dram.refresh",
                                               "core.write_hook"]
))


def _resolve(module: str, path: str):
    """The object owning the last attribute of ``path`` and its name."""
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _count_items(kind: str, args) -> int:
    if len(args) < 2:
        return 0
    shape = np.shape(args[1])
    if kind == "rows":
        return int(shape[0] * shape[1]) if len(shape) >= 2 else 0
    return int(shape[0]) if shape else 0


class Tracer:
    """In-memory span recorder that patches the layer functions.

    Use as a context manager: entering installs every wrapper, leaving
    restores every original, whatever happened inside.
    """

    def __init__(self, targets: Iterable = LAYER_SPANS):
        self.targets = tuple(targets)
        self.names: List[str] = list(SPAN_NAMES)
        self._name_index = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts: Dict[str, int] = {}
        self.job_id = 0
        self.conservation_errors = 0
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            for module, path, name, items in self.targets:
                self._patch(module, path,
                            lambda fn, n=name, k=items: self._spanned(fn, n, k))
            self._patch(*REFRESH_TARGET, self._refresh_window)
            self._patch(*PROCESS_AR_TARGET, self._counted)
            self._patch(*JOB_TARGET, self._job_boundary)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, module: str, path: str,
               make: Callable[[Callable], Callable]) -> None:
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    # ------------------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.t0)
        self.name_id.append(self._name_index[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.t1.append(0.0)
        self._stack.append(index)
        self.t0.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.t1[index] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, fn: Callable, name: str, items: Optional[str]):
        tracer = self
        key = name + ".items"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if items is not None:
                tracer.counts[key] = (tracer.counts.get(key, 0)
                                      + _count_items(items, args))
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return wrapper

    def _refresh_window(self, fn: Callable):
        """``RefreshEngine.run_window``: a span, its write hook as a
        child span, and the window's refresh-group counts."""
        tracer = self
        hook_span = self._spanned(lambda hook, *a: hook(*a),
                                  "core.write_hook", None)

        @functools.wraps(fn)
        def run_window(engine, start_time_s=0.0, write_hook=None):
            if write_hook is not None:
                inner = write_hook

                def write_hook(t0, t1):
                    hook_span(inner, t0, t1)

            index = tracer._open("dram.refresh")
            try:
                delta = fn(engine, start_time_s, write_hook)
            finally:
                tracer._close(index)
            geometry = engine.geometry
            expected = (geometry.num_banks * geometry.ar_sets_per_bank
                        * geometry.rows_per_ar)
            if delta.groups_refreshed + delta.groups_skipped != expected:
                tracer.conservation_errors += 1
            tracer._add("dram.groups_refreshed", delta.groups_refreshed)
            tracer._add("dram.groups_skipped", delta.groups_skipped)
            return delta

        return run_window

    def _counted(self, fn: Callable):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._add("dram.process_ar.calls", 1)
            return fn(*args, **kwargs)

        return wrapper

    def _job_boundary(self, fn: Callable):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.job_id += 1
            return fn(*args, **kwargs)

        return wrapper

    def _add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(value)

    # ------------------------------------------------------------------
    def arrays(self):
        """Spans as numpy arrays: (name_id, parent, job, t0, t1)."""
        return (np.frombuffer(self.name_id, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.job, dtype=np.int32).copy(),
                np.frombuffer(self.t0, dtype=np.float64).copy(),
                np.frombuffer(self.t1, dtype=np.float64).copy())

    def write(self, path) -> None:
        """Write the spans as JSON lines: a header naming the span
        names, then ``[name, start_s, duration_s, parent, job]`` rows
        with times relative to the first span."""
        name_id, parent, job, t0, t1 = self.arrays()
        origin = float(t0[0]) if len(t0) else 0.0
        with open(path, "w") as out:
            out.write(json.dumps({"names": self.names,
                                  "fields": ["name", "start_s", "dur_s",
                                             "parent", "job"]}) + "\n")
            for row in zip(name_id.tolist(), (t0 - origin).round(7).tolist(),
                           (t1 - t0).round(7).tolist(), parent.tolist(),
                           job.tolist()):
                out.write(json.dumps(row) + "\n")


def _top_level(name_id, parent, members) -> np.ndarray:
    """Spans whose name is in ``members`` and no ancestor's is."""
    inside = np.isin(name_id, members)
    covered = np.zeros(len(name_id), dtype=bool)
    cursor = parent.copy()
    while (cursor >= 0).any():
        live = cursor >= 0
        covered[live] |= inside[cursor[live]]
        cursor[live] = parent[cursor[live]]
    return inside & ~covered


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples above
    it; the median when there are too few samples for any."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


def summarize(tracer: Tracer, wall_s: float,
              groups: Dict[str, Tuple[str, ...]]) -> dict:
    """Per-layer numbers from one traced run.

    Returns ``self_s`` and ``calls`` per span name, inclusive seconds
    per entry of ``groups`` (a group's time counts each span once, with
    everything below it), the measured-window distribution, and the
    wall time no span covers.
    """
    name_id, parent, _, t0, t1 = tracer.arrays()
    dur = t1 - t0
    n_names = len(tracer.names)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_t = dur - child
    self_s = np.bincount(name_id, weights=self_t, minlength=n_names)
    calls = np.bincount(name_id, minlength=n_names)
    out = {
        "self_s": {name: float(self_s[i]) for i, name in
                   enumerate(tracer.names)},
        "calls": {name: int(calls[i]) for i, name in
                  enumerate(tracer.names)},
        "inclusive_s": {},
        "counts": dict(tracer.counts),
        "conservation_errors": tracer.conservation_errors,
        "unattributed_s": float(wall_s - dur[~has_parent].sum()),
        "spans": len(dur),
    }
    for group, members in groups.items():
        ids = [tracer.names.index(m) for m in members]
        out["inclusive_s"][group] = float(
            dur[_top_level(name_id, parent, ids)].sum())
    windows = dur[name_id == tracer.names.index("sim.window")]
    pct = tail_percentile(len(windows))
    out["window_s"] = {
        "n": int(len(windows)),
        "p50": float(np.percentile(windows, 50)) if len(windows) else 0.0,
        "tail": float(np.percentile(windows, pct)) if len(windows) else 0.0,
        "tail_pct": pct,
    }
    return out
