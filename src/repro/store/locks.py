"""Advisory file locks and the concurrent-run protocol.

Two processes pointed at one ``--cache-dir`` used to race freely: both
would derive the same deterministic run id, open the same run store,
and interleave lines.  The protocol here closes that hole with the weakest
tool that works — advisory ``fcntl.flock`` locks held for the duration
of a run:

* :class:`FileLock` wraps one lock file.  ``flock`` locks die with the
  process (the kernel releases them when the last descriptor closes),
  so a SIGKILLed run leaves no stale lock to clean up — the property
  the chaos driver's kill phases depend on.  On platforms without
  ``fcntl`` a best-effort ``O_EXCL`` + pid-liveness fallback applies.
* :func:`acquire_run_id` allocates a run id under lock: the requested
  id if its lock is free, otherwise the first free ``<id>.2``,
  ``<id>.3``, ... — so concurrent runs sharing a cache complete with
  disjoint run ids and stores that never interleave.

Cache *puts* deliberately stay lock-free: content-addressed entries
make concurrent rename wins idempotent (both writers produced the same
bytes for the same key), and the put path records a last-writer-wins
audit event instead of serializing the hot path.

Lock files live under ``<cache>/locks/``, named like the run's store
(:func:`repro.obs.spans.run_file_stem`) and holding the full run id;
retention GC (:mod:`repro.store.gc`) probes them to find in-progress
runs whose state must never be pruned, and sweeps the stale ones.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Tuple, Union

try:  # pragma: no cover - import guard exercised only off-POSIX
    import fcntl
except ImportError:  # pragma: no cover - Windows fallback path
    fcntl = None

from repro.obs.spans import run_file_stem


def locks_dir(cache_root: Union[str, Path]) -> Path:
    return Path(cache_root) / "locks"


def run_lock_path(cache_root: Union[str, Path], run_id: str) -> Path:
    """The lock file guarding ``run_id``; unsafe ids are hashed."""
    return locks_dir(cache_root) / f"{run_file_stem(run_id)}.lock"


class FileLock:
    """One advisory, process-exclusive lock on a path.

    ``acquire(blocking=False)`` returns whether the lock was taken;
    ``release()`` (or garbage collection / process death) frees it.
    Locks are advisory: they only exclude other :class:`FileLock`
    users, which is exactly the contract the run protocol needs.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fh = None

    @property
    def held(self) -> bool:
        return self._fh is not None

    def acquire(self, blocking: bool = False) -> bool:
        if self._fh is not None:
            return True
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fh = self.path.open("a+b")
        try:
            if fcntl is not None:
                flags = fcntl.LOCK_EX | (0 if blocking else fcntl.LOCK_NB)
                fcntl.flock(fh.fileno(), flags)
            else:  # pragma: no cover - non-fcntl platforms
                if not _fallback_acquire(self.path):
                    fh.close()
                    return False
        except OSError:
            fh.close()
            return False
        self._fh = fh
        return True

    def write_note(self, text: str) -> None:
        """Record ``text`` in the lock file (e.g. the run id it guards).

        Best effort: the note is advisory metadata for GC's
        lock-to-run mapping, so write failures are swallowed.
        """
        if self._fh is None:
            return
        try:
            self._fh.seek(0)
            self._fh.truncate()
            self._fh.write(text.encode("utf-8"))
            self._fh.flush()
        except OSError:
            pass

    def release(self) -> None:
        fh, self._fh = self._fh, None
        if fh is None:
            return
        try:
            if fcntl is not None:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
            else:  # pragma: no cover - non-fcntl platforms
                _fallback_release(self.path)
        except OSError:
            pass
        finally:
            fh.close()

    def __enter__(self) -> "FileLock":
        self.acquire(blocking=True)
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __del__(self):  # pragma: no cover - belt and braces
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "held" if self.held else "free"
        return f"FileLock({str(self.path)!r}, {state})"


def _fallback_pid_path(path: Path) -> Path:  # pragma: no cover
    return path.with_suffix(path.suffix + ".pid")


def _fallback_acquire(path: Path) -> bool:  # pragma: no cover - off-POSIX
    """O_EXCL pid-file lock for platforms without ``fcntl``.

    Unlike ``flock`` this can go stale after SIGKILL; liveness is
    approximated by probing the recorded pid.
    """
    pid_path = _fallback_pid_path(path)
    while True:
        try:
            fd = os.open(pid_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                pid = int(pid_path.read_text() or "0")
            except (OSError, ValueError):
                pid = 0
            if pid and _pid_alive(pid):
                return False
            try:  # stale: previous holder is gone
                pid_path.unlink()
            except OSError:
                return False
            continue
        os.write(fd, str(os.getpid()).encode("ascii"))
        os.close(fd)
        return True


def _fallback_release(path: Path) -> None:  # pragma: no cover - off-POSIX
    try:
        _fallback_pid_path(path).unlink()
    except OSError:
        pass


def _pid_alive(pid: int) -> bool:  # pragma: no cover - fallback helper
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        pass
    return True


def probe_locked(path: Union[str, Path]) -> bool:
    """Whether a live process currently holds the lock at ``path``.

    Advisory and momentarily racy (the probe itself takes and drops
    the lock), which is fine for its one consumer: GC asking "is this
    run still in progress?".
    """
    lock = FileLock(path)
    if lock.acquire(blocking=False):
        lock.release()
        return False
    return True


def acquire_run_id(
    cache_root: Union[str, Path], run_id: str, *, max_candidates: int = 1000,
) -> Tuple[str, FileLock, int]:
    """Allocate a locked run id, suffixing past live concurrent runs.

    Returns ``(allocated_id, held_lock, conflicts)`` where
    ``conflicts`` counts how many candidate ids were held by other
    live runs.  The lock must be held until the run's store closes;
    callers release it via :meth:`FileLock.release`.
    """
    conflicts = 0
    for n in range(1, max_candidates + 1):
        candidate = run_id if n == 1 else f"{run_id}.{n}"
        lock = FileLock(run_lock_path(cache_root, candidate))
        if lock.acquire(blocking=False):
            lock.write_note(candidate)
            return candidate, lock, conflicts
        conflicts += 1
    raise RuntimeError(
        f"could not allocate a run id after {max_candidates} candidates "
        f"of {run_id!r}"
    )


def stale_lock_files(cache_root: Union[str, Path]):
    """Lock files no live process holds — GC sweeps these."""
    root = locks_dir(cache_root)
    if not root.is_dir():
        return
    for path in sorted(root.glob("*.lock")):
        if not probe_locked(path):
            yield path


def held_lock_files(cache_root: Union[str, Path]):
    """Lock files of in-progress runs — their state is GC-protected."""
    root = locks_dir(cache_root)
    if not root.is_dir():
        return
    for path in sorted(root.glob("*.lock")):
        if probe_locked(path):
            yield path
