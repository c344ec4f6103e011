"""The integrity envelope: self-describing, verifiable payload framing.

Binary artifacts (cache entries) are framed as::

    REPRO-STORE {"len": N, "schema": S, "sha256": "...", "v": 1}\\n
    <N payload bytes>

The header line is ASCII JSON after a fixed magic token, so a reader
can classify damage *before* touching the payload: a file that does
not start with the magic is ``wrong_schema`` (a foreign or pre-envelope
file), a file shorter than the declared length is ``truncated``, a
full-length file whose SHA-256 disagrees is ``bit_flipped``.  Writers
produce the envelope through the existing write-then-rename discipline,
so a crash can only ever leave an ``orphan_tmp`` — never a torn final
file.

JSONL artifacts (the per-run span stores) are checksummed per record:
:func:`seal_record` embeds a truncated SHA-256 of the record's
canonical dump under the ``"_sha"`` key, and :func:`open_record`
verifies and strips it.  Records without the key still load — the
stores tolerated bare lines before this layer existed, and fixtures
may hand-write them — but any sealed record that fails verification
is classified and refused, so a flipped bit can never replay as wrong
data.

Every classification funnels through :func:`count_corruption`, which
bumps the ambient ``store.corrupt.<class>`` counter and (when tracing)
emits a ``store.corrupt_entry`` event — the counters ``repro fsck``
and the crash-consistency tests assert on.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional, Tuple, Union

MAGIC = b"REPRO-STORE "
"""Leading token of every enveloped binary artifact."""

ENVELOPE_VERSION = 1

MAX_HEADER_BYTES = 4096
"""A header line longer than this is damage, not a header."""

LINE_SHA_KEY = "_sha"
"""Key carrying a sealed JSONL record's checksum."""

LINE_SHA_WIDTH = 16

#: The failure classes readers and ``repro fsck`` report.
TRUNCATED = "truncated"
BIT_FLIPPED = "bit_flipped"
WRONG_SCHEMA = "wrong_schema"
ORPHAN_TMP = "orphan_tmp"
CORRUPTION_CLASSES = (TRUNCATED, BIT_FLIPPED, WRONG_SCHEMA, ORPHAN_TMP)


class EnvelopeError(Exception):
    """A payload failed integrity verification.

    ``kind`` is one of :data:`CORRUPTION_CLASSES`; ``detail`` is a
    short human explanation for fsck reports and trace events.
    """

    def __init__(self, kind: str, detail: str = ""):
        if kind not in CORRUPTION_CLASSES:
            raise ValueError(f"unknown corruption class {kind!r}")
        self.kind = kind
        self.detail = detail
        super().__init__(f"{kind}: {detail}" if detail else kind)


def count_corruption(kind: str, *, store: str, path=None, **fields) -> None:
    """Bump ``store.corrupt.<kind>`` on the ambient bus (+ trace event)."""
    from repro.obs import get_probes

    probes = get_probes()
    probes.count(f"store.corrupt.{kind}")
    if probes.tracing:
        probes.event("store.corrupt_entry", kind=kind, store=store,
                     path=str(path) if path is not None else None, **fields)


# ----------------------------------------------------------------------
# binary envelope
# ----------------------------------------------------------------------
def wrap(payload: bytes, *, schema: int) -> bytes:
    """Frame ``payload`` with the integrity header."""
    header = json.dumps(
        {
            "len": len(payload),
            "schema": schema,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "v": ENVELOPE_VERSION,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return MAGIC + header.encode("ascii") + b"\n" + payload


def _parse_header(blob: bytes) -> Tuple[dict, int]:
    """Parse the header of ``blob``; returns ``(header, payload_offset)``.

    Raises :class:`EnvelopeError` with the damage classified.
    """
    if not blob.startswith(MAGIC):
        if MAGIC.startswith(blob):
            # a prefix of the magic itself: the writer died inside the
            # first dozen bytes (only possible for non-atomic writers,
            # but classify it honestly anyway)
            raise EnvelopeError(TRUNCATED, "file ends inside the magic")
        raise EnvelopeError(WRONG_SCHEMA, "no envelope magic")
    newline = blob.find(b"\n", len(MAGIC), len(MAGIC) + MAX_HEADER_BYTES)
    if newline < 0:
        if len(blob) <= len(MAGIC) + MAX_HEADER_BYTES:
            raise EnvelopeError(TRUNCATED, "header line is cut off")
        raise EnvelopeError(BIT_FLIPPED, "header newline missing")
    try:
        header = json.loads(blob[len(MAGIC):newline].decode("ascii"))
        if not isinstance(header, dict):
            raise ValueError("header is not an object")
    except (ValueError, UnicodeDecodeError) as exc:
        raise EnvelopeError(BIT_FLIPPED, f"header unparseable: {exc}")
    if header.get("v") != ENVELOPE_VERSION:
        raise EnvelopeError(
            WRONG_SCHEMA, f"envelope version {header.get('v')!r}"
        )
    if not isinstance(header.get("len"), int) or header["len"] < 0:
        raise EnvelopeError(BIT_FLIPPED, "header length field mangled")
    return header, newline + 1


def unwrap(blob: bytes, *, schema: int) -> bytes:
    """Verify ``blob``'s envelope and return the payload.

    Raises :class:`EnvelopeError` classifying the damage; the caller
    decides whether that means a miss, a quarantine, or a counter.
    """
    header, offset = _parse_header(blob)
    if header.get("schema") != schema:
        raise EnvelopeError(
            WRONG_SCHEMA,
            f"payload schema {header.get('schema')!r}, expected {schema}",
        )
    payload = blob[offset:]
    declared = header["len"]
    if len(payload) < declared:
        raise EnvelopeError(
            TRUNCATED, f"{len(payload)} of {declared} payload bytes"
        )
    if len(payload) > declared:
        raise EnvelopeError(
            BIT_FLIPPED, f"{len(payload) - declared} trailing bytes"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("sha256"):
        raise EnvelopeError(BIT_FLIPPED, "payload sha256 mismatch")
    return payload


def check_header(path: Union[str, Path], *, schema: int) -> Optional[str]:
    """Cheap envelope validation: header + file size, no payload read.

    Returns ``None`` when the header is plausible (magic, version,
    schema and declared length all agree with the file's size) or the
    corruption class otherwise.  This is what makes
    ``key in cache`` agree with ``cache.get(key)`` without paying a
    full payload hash per membership test; only a bit-flip *inside*
    the payload can slip past it (``get`` still catches that).
    """
    path = Path(path)
    try:
        size = os.stat(path).st_size
        with path.open("rb") as fh:
            prefix = fh.read(len(MAGIC) + MAX_HEADER_BYTES + 1)
    except FileNotFoundError:
        raise
    except OSError:
        return TRUNCATED
    try:
        header, offset = _parse_header(prefix)
        if header.get("schema") != schema:
            return WRONG_SCHEMA
    except EnvelopeError as exc:
        return exc.kind
    declared = header["len"]
    actual = size - offset
    if actual < declared:
        return TRUNCATED
    if actual > declared:
        return BIT_FLIPPED
    return None


def snapshot_digest(requests) -> str:
    """Canonical digest of a serve-inflight request list.

    The serving daemon embeds this in the snapshot document and its
    restart pickup / fsck verify it, so a flipped bit in the snapshot is
    detected instead of resubmitting a mangled request.
    """
    body = json.dumps(requests, sort_keys=True)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# sealed JSONL records
# ----------------------------------------------------------------------
def _record_digest(record: dict) -> str:
    body = json.dumps(record, sort_keys=True)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:LINE_SHA_WIDTH]


def seal_record(record: dict) -> str:
    """One JSONL line (no newline) with the record's checksum embedded."""
    sealed = {k: v for k, v in record.items() if k != LINE_SHA_KEY}
    sealed[LINE_SHA_KEY] = _record_digest(
        {k: v for k, v in record.items() if k != LINE_SHA_KEY}
    )
    return json.dumps(sealed, sort_keys=True)


def open_record(line: str) -> Tuple[Optional[dict], Optional[str]]:
    """Parse and verify one JSONL line.

    Returns ``(record, None)`` on success — with ``"_sha"`` stripped —
    or ``(None, corruption_class)``.  A line that fails to parse at
    all is ``truncated`` (the signature a killed writer leaves); a
    parseable record whose embedded checksum disagrees is
    ``bit_flipped``.  Records with no checksum load as-is: the JSONL
    stores predate sealing and fixtures may hand-write lines.
    """
    try:
        record = json.loads(line)
    except ValueError:
        return None, TRUNCATED
    if not isinstance(record, dict):
        return None, WRONG_SCHEMA
    declared = record.pop(LINE_SHA_KEY, None)
    if declared is None:
        return record, None
    if not isinstance(declared, str) or declared != _record_digest(record):
        return None, BIT_FLIPPED
    return record, None
