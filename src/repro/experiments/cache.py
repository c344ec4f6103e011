"""Content-addressed on-disk result cache for the experiment engine.

Every simulation point is identified by a *stable* digest of everything
that determines its outcome: the :class:`~repro.experiments.runner.ExperimentSettings`,
the job description (benchmark, allocation, config overrides, seed) and
a code-version fingerprint of the ``repro`` source tree.  The digest is
a SHA-256 over a canonical JSON encoding, so it is identical across
processes and interpreter runs (no dependence on ``PYTHONHASHSEED``,
dict order or ``repr`` quirks) — which is what lets a
:class:`~repro.experiments.engine.Runner` in one process reuse results
computed by workers in another, or by yesterday's run.

Layout on disk::

    <cache-dir>/
        v2/<digest[:2]>/<digest>.pkl    enveloped pickle payloads
                                        (``{"result", "metrics"}``: the
                                        result + its captured probe
                                        snapshot)
        manifests/<run-id>.jsonl        run manifests (written by the CLI)

Entries are framed with the :mod:`repro.store.envelope` integrity
header (magic, schema, payload length, SHA-256), so a reader can tell
a truncated or bit-flipped entry from a wrong-schema one and degrade
to a miss with the damage classified.  Writes that hit the disk's
failure modes (ENOSPC, EIO) put the cache into *degraded* mode for the
rest of the process: the run completes uncached, with a single warning
and the ``store.degraded`` gauge set, instead of crashing.

The default cache directory is ``$REPRO_CACHE_DIR`` or ``.repro-cache``
under the current working directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
import warnings
from dataclasses import fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Optional

STALE_TMP_AGE_S = 60.0
"""A writer temp file older than this is crash debris, not a live put."""

CACHE_SCHEMA = 2
"""Bump to invalidate every cached result on an incompatible change.

v2: payloads became ``{"result": ..., "metrics": <probe snapshot>}`` so
cache hits can replay the metrics captured when the job first ran.
"""

_ENV_CACHE_DIR = "REPRO_CACHE_DIR"
_DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> Path:
    """The cache root used when none is given explicitly."""
    return Path(os.environ.get(_ENV_CACHE_DIR, _DEFAULT_CACHE_DIR))


# ----------------------------------------------------------------------
# canonical encoding + digests
# ----------------------------------------------------------------------
def canonicalize(obj):
    """Reduce ``obj`` to a JSON-able structure with deterministic form.

    Handles the types that appear in settings and job descriptions:
    primitives, sequences, mappings (sorted by key), enums and
    dataclasses (encoded with their class name so two settings types
    with the same field values do not collide).
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Enum):
        return ["enum", type(obj).__name__, obj.name]
    if is_dataclass(obj) and not isinstance(obj, type):
        body = {f.name: canonicalize(getattr(obj, f.name)) for f in fields(obj)}
        return ["dataclass", type(obj).__name__, body]
    if isinstance(obj, dict):
        return ["dict", sorted((str(k), canonicalize(v)) for k, v in obj.items())]
    if isinstance(obj, (list, tuple)):
        return ["seq", [canonicalize(v) for v in obj]]
    if isinstance(obj, (bytes, bytearray)):
        return ["bytes", hashlib.sha256(bytes(obj)).hexdigest()]
    if hasattr(obj, "tolist"):  # numpy scalars / arrays
        return canonicalize(obj.tolist())
    raise TypeError(
        f"cannot build a stable cache key from {type(obj).__name__!r}: {obj!r}"
    )


def stable_digest(*parts) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``parts``."""
    payload = json.dumps(
        [canonicalize(p) for p in parts], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_code_version: Optional[str] = None


def code_version() -> str:
    """Fingerprint of the ``repro`` source tree (cached per process).

    Any edit to any module under ``src/repro`` changes the fingerprint,
    so stale results can never be served after the simulator changes.
    """
    global _code_version
    if _code_version is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode("utf-8"))
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _code_version = h.hexdigest()
    return _code_version


# ----------------------------------------------------------------------
# the cache proper
# ----------------------------------------------------------------------
class ResultCache:
    """Pickle store addressed by :func:`stable_digest` keys.

    Corrupt or unreadable entries are treated as misses and removed, so
    an interrupted run can never poison later ones.  Entries are framed
    with the integrity envelope on write and verified on read; puts are
    lock-free (concurrent writers race benignly — the content address
    guarantees both produced the same payload, and the loser of the
    rename is audited as ``store.put_overwrites``).
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self._degraded = False

    @property
    def degraded(self) -> bool:
        """Whether a write failure disabled this cache for the process."""
        return self._degraded

    def _degrade(self, exc: OSError) -> None:
        from repro.obs import get_probes

        probes = get_probes()
        probes.count("store.put_errors")
        if not self._degraded:
            self._degraded = True
            probes.gauge("store.degraded", 1)
            warnings.warn(
                f"result cache at {self.root} is degraded "
                f"({type(exc).__name__}: {exc}); this run will complete "
                f"without caching",
                RuntimeWarning,
                stacklevel=3,
            )

    # -- keys ----------------------------------------------------------
    def job_key(self, settings, job) -> str:
        """Digest for one simulation job under ``settings``."""
        return stable_digest("job", CACHE_SCHEMA, code_version(), settings, job)

    # -- storage -------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.root / f"v{CACHE_SCHEMA}" / key[:2] / f"{key}.pkl"

    def get(self, key: str):
        """The cached payload for ``key``, or ``None`` on a miss.

        A corrupt or truncated entry (interrupted writer, disk fault)
        is treated as a miss: the broken file is removed so the next
        :meth:`put` rewrites it, and the event is reported on the
        ambient probe bus (``cache.corrupt_entries`` counter plus a
        trace event) instead of raising into the run.
        """
        from repro.store.envelope import EnvelopeError, count_corruption, unwrap

        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            from repro.obs import get_probes

            get_probes().count("store.read_errors")
            return None
        try:
            payload = unwrap(blob, schema=CACHE_SCHEMA)
            return pickle.loads(payload)
        except EnvelopeError as exc:
            self._reject(key, path, exc.kind)
            count_corruption(exc.kind, store="cache", path=path, key=key)
            return None
        except Exception as exc:
            # the envelope verified but the payload would not unpickle:
            # the writer stored garbage, which no checksum can fix
            self._reject(key, path, type(exc).__name__)
            return None

    def _reject(self, key: str, path: Path, error: str) -> None:
        from repro.obs import get_probes

        probes = get_probes()
        probes.count("cache.corrupt_entries")
        if probes.tracing:
            probes.event("cache.corrupt_entry", key=key,
                         path=str(path), error=error)
        path.unlink(missing_ok=True)

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key`` (atomic: write-then-rename).

        A write failure (ENOSPC, EIO, permissions) degrades the cache
        for the rest of the process instead of raising — the run
        completes uncached.
        """
        if self._degraded:
            return
        from repro.store.envelope import wrap

        path = self.path_for(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        blob = wrap(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
            schema=CACHE_SCHEMA,
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            existed = path.exists()
            with tmp.open("wb") as fh:
                fh.write(blob)
            tmp.replace(path)
        except OSError as exc:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                # the same broken filesystem that failed the write can
                # fail the cleanup (e.g. a parent that is not a dir)
                pass
            self._degrade(exc)
            return
        if existed:
            from repro.obs import get_probes

            probes = get_probes()
            probes.count("store.put_overwrites")
            if probes.tracing:
                probes.event("store.put_overwrite", key=key, path=str(path))

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` has an entry :meth:`get` would accept.

        Validates the envelope header (magic, schema, declared length
        against file size) without reading the payload, so membership
        agrees with ``get`` on every corruption class except a bit
        flip confined to the payload body — which ``get`` still
        rejects on load.
        """
        from repro.store.envelope import check_header

        try:
            return check_header(self.path_for(key),
                                schema=CACHE_SCHEMA) is None
        except FileNotFoundError:
            return False

    # -- maintenance ---------------------------------------------------
    def entries(self) -> Iterator[Path]:
        """Live entry paths; sweeps crash-orphaned writer temp files."""
        self.sweep_tmp()
        yield from self.root.glob(f"v{CACHE_SCHEMA}/??/*.pkl")

    def sweep_tmp(self, *, min_age_s: float = STALE_TMP_AGE_S) -> int:
        """Remove ``.tmp.<pid>`` debris older than ``min_age_s``.

        A crashed writer leaves its temp file behind forever (the
        rename never happened); anything older than the grace window
        cannot be a live put.  Returns the number removed.
        """
        now = time.time()
        n = 0
        for tmp in list(self.root.glob(f"v{CACHE_SCHEMA}/??/*.tmp.*")):
            try:
                if now - tmp.stat().st_mtime < min_age_s:
                    continue
                tmp.unlink()
            except OSError:
                continue
            n += 1
        return n

    def clear(self) -> int:
        """Delete every cached result (and all writer temp files);
        returns the number of entries removed."""
        n = 0
        for path in list(self.root.glob(f"v{CACHE_SCHEMA}/??/*.pkl")):
            path.unlink(missing_ok=True)
            n += 1
        self.sweep_tmp(min_age_s=0.0)
        return n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache({str(self.root)!r})"
