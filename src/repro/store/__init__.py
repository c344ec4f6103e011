"""Durable-state integrity layer: every on-disk artifact is verified.

The runtime path has been fault-tolerant since PR 5 (retries,
quarantine, resume, cluster leases), but everything it survives
*through* — the pickle result cache, the per-run JSONL span stores,
the serve-inflight snapshot — used to be trusted blindly.
This package is the shared discipline those stores now route through,
the software analogue of RAIDR-style retention verification: skipping
work (cache replay, run resume) is only safe when the stored state
it relies on is *checked*, not assumed.

Four pieces:

:mod:`repro.store.envelope`
    The integrity envelope: a self-describing header (magic, schema,
    payload length, SHA-256) around binary payloads, and per-record
    checksums for JSONL lines.  Readers classify failures —
    ``truncated`` / ``bit_flipped`` / ``wrong_schema`` / ``orphan_tmp``
    — bump ``store.corrupt.<class>`` counters, and degrade to a miss
    instead of raising.
:mod:`repro.store.locks`
    Advisory file locks (``fcntl.flock`` with a portable fallback) and
    the run-id allocation protocol: two processes sharing one cache
    dir can never interleave a run store or double-claim a run id.
:mod:`repro.store.gc`
    Retention GC (``repro gc``): prune cache entries and run stores
    by size / age / keep-last-N-runs, never touching state
    referenced by an in-progress run's lock.
:mod:`repro.store.fsck`
    ``repro fsck [--repair]``: walk every store, verify every
    envelope, report a per-class inventory, and quarantine damage to
    ``<cache>/lost+found/`` so the next run regenerates it.

Write-path hardening rides along: a put/append that hits ENOSPC/EIO
disables that store for the run (``store.degraded`` gauge, one
warning) and the run completes uncached rather than crashing.
"""

from repro.store.envelope import (
    CORRUPTION_CLASSES,
    ENVELOPE_VERSION,
    EnvelopeError,
    check_header,
    open_record,
    seal_record,
    unwrap,
    wrap,
)
from repro.store.fsck import fsck
from repro.store.gc import GCPolicy, collect
from repro.store.locks import FileLock, acquire_run_id, run_lock_path

__all__ = [
    "CORRUPTION_CLASSES",
    "ENVELOPE_VERSION",
    "EnvelopeError",
    "FileLock",
    "GCPolicy",
    "acquire_run_id",
    "check_header",
    "collect",
    "fsck",
    "open_record",
    "run_lock_path",
    "seal_record",
    "unwrap",
    "wrap",
]
