"""Host speed, measured beside the benchmark on every CPU.

    python3 perfbench/speed.py --cpu K --out FILE

The benchmark's host shares its cores with other machines' work, and a
core's speed changes from one second to the next: a fixed Python loop
runs at one of two speeds, the slow one about 1.5 to 1.8 times the fast
one, and the share of slow seconds drifts over minutes.  Raw host times
of the same work therefore spread by 30 % and more.  Mostly the time
does not go to other processes (CPU time drifts with wall time): the
core itself runs slower.  At times the host also holds a CPU back
altogether for a while (steal time), which lengthens wall time but not
CPU time.

A probe per CPU measures that speed while the benchmark runs.  Each
probe is a process pinned to its CPU at the lowest priority (nice 19).
Every ``PERIOD_S`` it times four small fixed kernels ``ROUNDS`` times
each: an arithmetic loop and a loop over dicts, lists and attributes
(the interpreter), a copy of a window of a buffer larger than the
core's caches (memory bandwidth) and a gather of random lines of it
(memory latency).  The host's slowdown reaches them differently.  The
probe writes one line per sample: the monotonic time, the CPU's busy
clock ticks so far (user, system, irq and softirq time from
``/proc/stat``; the niced probes' own user time is not in them), its
stolen clock ticks so far, and each kernel's speed, ``REF_NS / median
time``.  A probe costs about half a percent of a CPU and exits when its
parent does.

:func:`host_speed` averages the speed of the kernels a workload names
(their geometric mean) over an interval, weighting each CPU by how busy
it was, and counts the time stolen from the CPUs in the same
proportion: host time less the stolen time, multiplied by the speed, is
the time the same work would take at the reference speed.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

PERIOD_S = 0.1
ROUNDS = 8
LOOP = 200
OBJECTS = 60
BUFFER_BYTES = 64 << 20
COPY_BYTES = 256 << 10
GATHER_LINES = 512
REF_NS = {"loop": 5_500.0, "objects": 7_000.0, "copy": 25_000.0,
          "gather": 6_000.0}
"""Each kernel's time at the reference speed, about that of an
uncontended core of a 2.1 GHz Xeon under Python 3.11 and NumPy 2."""
KERNELS = tuple(REF_NS)
LIFETIME_S = 1_000.0
"""A probe stops on its own after this long, whatever its parent does."""
TICK_S = 1.0 / (os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf")
                else 100)

Sample = Tuple[float, int, int, Dict[str, float]]
"""(monotonic time, busy ticks so far, stolen ticks so far, speed of
each kernel)"""


class Kernels:
    """The probe's timed kernels and their buffers."""

    def __init__(self, seed: int):
        import numpy as np

        self.buffer = np.ones(BUFFER_BYTES, dtype=np.uint8)
        self.target = np.empty(COPY_BYTES, dtype=np.uint8)
        self.rng = np.random.default_rng(seed)
        self.offset = 0
        self.step = 1

    def loop(self) -> int:
        t0 = time.perf_counter_ns()
        total = 0
        for i in range(LOOP):
            total += i
        return time.perf_counter_ns() - t0

    def objects(self) -> int:
        t0 = time.perf_counter_ns()
        counts: Dict[int, int] = {}
        items = []
        for i in range(OBJECTS):
            counts[i & 15] = counts.get(i & 15, 0) + self.step
            items.append(i)
        items.sort()
        return time.perf_counter_ns() - t0

    def copy(self) -> int:
        window = self.buffer[self.offset:self.offset + COPY_BYTES]
        self.offset = (self.offset + COPY_BYTES) % (BUFFER_BYTES
                                                    - COPY_BYTES)
        t0 = time.perf_counter_ns()
        self.target[:] = window
        return time.perf_counter_ns() - t0

    def gather(self) -> int:
        lines = self.rng.integers(0, BUFFER_BYTES, GATHER_LINES)
        t0 = time.perf_counter_ns()
        self.buffer.take(lines)
        return time.perf_counter_ns() - t0

    def speeds(self) -> Dict[str, float]:
        """Reference time over the median measured time, per kernel
        (each round interleaves the kernels, so a preemption spoils one
        timing, not a whole kernel)."""
        times: Dict[str, List[int]] = {name: [] for name in KERNELS}
        for _ in range(ROUNDS):
            for name, kernel in times.items():
                kernel.append(getattr(self, name)())
        return {name: REF_NS[name] / sorted(kernel)[ROUNDS // 2]
                for name, kernel in times.items()}


def _ticks(cpu: int) -> Tuple[int, int]:
    """Busy and stolen clock ticks of one CPU so far; 0 where unknown."""
    label = f"cpu{cpu} "
    try:
        with open("/proc/stat") as stat:
            for line in stat:
                if line.startswith(label):
                    fields = line.split()
                    # user nice system idle iowait irq softirq steal ...
                    return (sum(int(fields[i]) for i in (1, 3, 6, 7)),
                            int(fields[8]))
    except (OSError, IndexError, ValueError):
        pass
    return 0, 0


def probe(cpu: int, out: Path) -> None:
    """Sample CPU ``cpu``'s speed into ``out`` until the parent exits."""
    parent = os.getppid()
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})
    os.nice(19)
    kernels = Kernels(seed=cpu)
    deadline = time.monotonic() + LIFETIME_S
    with open(out, "w", buffering=1) as fh:
        while os.getppid() == parent and time.monotonic() < deadline:
            speeds = kernels.speeds()
            busy, stolen = _ticks(cpu)
            fh.write(f"{time.monotonic():.6f} {busy} {stolen} "
                     + " ".join(f"{speeds[name]:.6f}" for name in KERNELS)
                     + "\n")
            time.sleep(PERIOD_S)


def cpus() -> List[int]:
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


class Speedometer:
    """Runs one probe per CPU for the length of a ``with`` block; every
    probe has ended when the block does, also on error."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.procs: Dict[int, subprocess.Popen] = {}

    def path(self, cpu: int) -> Path:
        return self.directory / f"cpu{cpu}.txt"

    def __enter__(self) -> "Speedometer":
        self.directory.mkdir(parents=True, exist_ok=True)
        try:
            for cpu in cpus():
                self.procs[cpu] = subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()),
                     "--cpu", str(cpu), "--out", str(self.path(cpu))],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
            # every CPU has a sample before the measured work starts
            deadline = time.monotonic() + 10.0
            while not all(self._sampled(cpu) for cpu in self.procs):
                if time.monotonic() > deadline or any(
                        p.poll() is not None for p in self.procs.values()):
                    raise RuntimeError("a speed probe did not start")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _sampled(self, cpu: int) -> bool:
        path = self.path(cpu)
        return path.is_file() and path.stat().st_size > 0

    def stop(self) -> None:
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs.values():
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def samples(self) -> Dict[int, List[Sample]]:
        out = {}
        for cpu in self.procs:
            rows = []
            # the text after the last newline is a line cut short
            for line in self.path(cpu).read_text().split("\n")[:-1]:
                stamp, busy, stolen, *speeds = line.split()
                rows.append((float(stamp), int(busy), int(stolen),
                             dict(zip(KERNELS, map(float, speeds)))))
            out[cpu] = rows
        return out


def _geometric_mean(speeds: Dict[str, float],
                    kernels: Sequence[str]) -> float:
    product = 1.0
    for name in kernels:
        product *= speeds[name]
    return product ** (1.0 / len(kernels))


def host_speed(samples: Dict[int, List[Sample]], t0: float, t1: float,
               kernels: Sequence[str] = KERNELS) -> Tuple[float, float]:
    """Mean speed of ``kernels`` over [t0, t1], and the seconds stolen
    from the work.

    Each CPU's sampling intervals count by the busy ticks in them (by
    their length where no CPU counted a busy tick), for the speed and
    for the share of each CPU's stolen time that held the work back.
    """
    weighted = busy_total = timed = span = 0.0
    busy_by_cpu: Dict[int, float] = {}
    stolen_by_cpu: Dict[int, float] = {}
    for cpu, rows in samples.items():
        for (ta, busy_a, stolen_a, speed_a), (tb, busy_b, stolen_b,
                                              speed_b) in zip(rows,
                                                              rows[1:]):
            overlap = min(tb, t1) - max(ta, t0)
            if overlap <= 0 or tb <= ta:
                continue
            share = overlap / (tb - ta)
            speed = (_geometric_mean(speed_a, kernels)
                     + _geometric_mean(speed_b, kernels)) / 2
            busy = max(busy_b - busy_a, 0) * share
            weighted += busy * speed
            busy_total += busy
            timed += overlap * speed
            span += overlap
            busy_by_cpu[cpu] = busy_by_cpu.get(cpu, 0.0) + busy
            stolen_by_cpu[cpu] = (stolen_by_cpu.get(cpu, 0.0)
                                  + max(stolen_b - stolen_a, 0) * share)
    if span <= 0:
        raise ValueError(f"no speed samples cover [{t0:.3f}, {t1:.3f}]")
    if busy_total <= 0:
        return timed / span, 0.0
    stolen = sum(stolen_by_cpu[cpu] * busy / busy_total
                 for cpu, busy in busy_by_cpu.items())
    return weighted / busy_total, stolen * TICK_S


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    probe(args.cpu, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
