"""Deterministic fault injection for the experiment engine.

Chaos testing the run lifecycle needs faults that are *scripted*, not
random: a :class:`FaultPlan` names exactly which plan positions
misbehave, how, and how many times, so a test (or the CI chaos-smoke
job) can assert the precise retry / quarantine / rerun behaviour that
follows.  The :class:`~repro.experiments.engine.Runner` threads the
plan through its scheduler:

* ``crash`` — the job raises :class:`FaultError` inside the worker
  (an ordinary job exception: retried with backoff);
* ``kill`` — the worker process ``SIGKILL``\\ s itself mid-job,
  breaking the process pool (a worker crash: the pool is rebuilt, the
  suspect job re-runs alone, and repeat offenders are quarantined).
  In-process execution (``jobs=1``) degrades ``kill`` to ``crash`` so
  the driving process survives;
* ``delay`` — the job sleeps ``delay_s`` before running (exercises
  per-job timeouts and slow-worker paths);
* ``corrupt-cache`` — after the job's result is cached, its cache
  entry is truncated on disk (exercises the corrupt-entry recovery
  path on the next read);
* ``bitflip-cache`` — after the job's result is cached, one payload
  byte of its entry is inverted in place, leaving length and framing
  intact (exercises the envelope's checksum verification: only the
  SHA-256 can catch this one);
* ``abort-run`` — after the job completes *and its done span is
  stored*, the driving process ``SIGKILL``\\ s itself.  This is the
  kill-and-rerun integration hook: the run store survives, the run
  does not.

Faults arm per *try*: a spec with ``times=2`` fires on the job's first
two execution attempts and then stays quiet, which is how chaos tests
script "fails twice, then succeeds".
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Tuple

FAULT_KINDS = ("crash", "kill", "delay", "corrupt-cache", "bitflip-cache",
               "abort-run")

WORKER_KINDS = frozenset({"crash", "kill", "delay"})
"""Kinds applied inside the worker, before the job body runs."""

RUNNER_KINDS = frozenset({"corrupt-cache", "bitflip-cache", "abort-run"})
"""Kinds applied by the runner, after the job completes."""


class FaultError(RuntimeError):
    """The exception an injected ``crash`` fault raises in the worker."""


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault: *what* happens to *which* plan position.

    ``job_index`` addresses the job's position in the experiment plan
    (the order :meth:`Experiment.plan` returned); ``times`` bounds how
    many tries of that job the fault fires on (worker kinds) or how
    often it applies (runner kinds fire once regardless).
    """

    job_index: int
    kind: str = "crash"
    times: int = 1
    delay_s: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"fault kind must be one of {FAULT_KINDS}, "
                             f"got {self.kind!r}")
        if self.job_index < 0:
            raise ValueError("job_index must be >= 0")
        if self.times < 1:
            raise ValueError("times must be >= 1")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")

    def as_crash(self) -> "FaultSpec":
        """The in-process degradation of a ``kill`` fault."""
        return FaultSpec(job_index=self.job_index, kind="crash",
                         times=self.times, delay_s=self.delay_s)


@dataclass(frozen=True)
class FaultPlan:
    """A scripted set of faults threaded through one runner."""

    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def worker_fault(self, job_index: int, attempt: int):
        """The worker-side fault armed for try ``attempt`` (1-based)."""
        for spec in self.faults:
            if (spec.job_index == job_index and spec.kind in WORKER_KINDS
                    and attempt <= spec.times):
                return spec
        return None

    def runner_faults(self, job_index: int) -> Tuple[FaultSpec, ...]:
        """Runner-side faults attached to a completed plan position."""
        return tuple(spec for spec in self.faults
                     if spec.job_index == job_index
                     and spec.kind in RUNNER_KINDS)


def apply_worker_fault(spec: FaultSpec) -> None:
    """Fire a worker-side fault; called before the job body runs."""
    if spec.delay_s:
        time.sleep(spec.delay_s)
    if spec.kind == "crash":
        raise FaultError(
            f"injected crash (job_index={spec.job_index})"
        )
    if spec.kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)


def corrupt_cache_entry(cache, key: str) -> bool:
    """Truncate ``key``'s on-disk cache entry mid-pickle.

    Leaves a syntactically broken file (not a missing one), which is
    exactly the state an interrupted non-atomic writer or a disk fault
    produces — the shape :meth:`ResultCache.get`'s recovery path is
    built for.  Returns whether an entry existed to corrupt.
    """
    path = cache.path_for(key)
    if not path.exists():
        return False
    blob = path.read_bytes()
    path.write_bytes(blob[: max(1, len(blob) // 2)])
    return True


def bitflip_cache_entry(cache, key: str) -> bool:
    """Invert one payload byte of ``key``'s cache entry in place.

    The file keeps its envelope framing and declared length, so only
    checksum verification can reject it — the silent-corruption shape
    (cosmic ray, controller bug) the integrity envelope exists for.
    Returns whether an entry existed to corrupt.
    """
    path = cache.path_for(key)
    if not path.exists():
        return False
    blob = bytearray(path.read_bytes())
    if not blob:
        return False
    # flip the last byte: always inside the payload, never the header
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    return True


def abort_run() -> None:  # pragma: no cover - kills the calling process
    """The ``abort-run`` fault: SIGKILL the driving process."""
    os.kill(os.getpid(), signal.SIGKILL)
