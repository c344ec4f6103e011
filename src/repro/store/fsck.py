"""``repro fsck``: walk the store, verify every envelope, repair damage.

The reader paths already degrade gracefully — a corrupt cache entry is
a miss, a torn run-store line is a job span the next run records
again — but degradation is silent by design.  fsck is the loud
counterpart: it walks every durable artifact under one cache root,
verifies the integrity envelope or per-record checksums, and reports
a per-class inventory (``truncated`` / ``bit_flipped`` /
``wrong_schema`` / ``orphan_tmp``).

With ``--repair`` the damage is *removed from the store's hot path*
rather than deleted: whole-file damage (cache entries, the serve
snapshot) is quarantined into ``<cache>/lost+found/`` for post-mortems,
and run stores are rewritten in place with only their verified lines
— the same write-then-rename discipline as every other store write.
Either way the next run regenerates whatever was lost; that
regeneration is the correctness story, fsck just makes it happen
eagerly instead of lazily.

Exit status is 0 when the store is clean (or every finding was
repaired) and 1 while unrepaired damage remains, so CI can gate on it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import List, Optional, Union

from repro.store import envelope as env
from repro.store import locks as locks_mod

__all__ = ["fsck", "main"]

DEFAULT_TMP_AGE_S = 60.0
"""A ``.tmp.<pid>`` younger than this may be a live writer: left alone."""

LOST_FOUND = "lost+found"


def _quarantine(root: Path, path: Path, repair: bool) -> Optional[str]:
    """Move ``path`` into ``<root>/lost+found/``, keeping its subpath.

    Returns the destination (relative to root) or ``None`` when not
    repairing / the move failed.
    """
    if not repair:
        return None
    try:
        rel = path.relative_to(root)
    except ValueError:
        rel = Path(path.name)
    dest = root / LOST_FOUND / rel
    dest.parent.mkdir(parents=True, exist_ok=True)
    if dest.exists():
        for n in range(1, 1000):
            candidate = dest.with_name(f"{dest.name}.{n}")
            if not candidate.exists():
                dest = candidate
                break
    try:
        os.replace(path, dest)
    except OSError:
        return None
    return str(dest.relative_to(root))


def _rewrite(path: Path, lines: List[str], repair: bool) -> bool:
    """Atomically replace ``path`` with the verified ``lines``."""
    if not repair:
        return False
    tmp = path.with_suffix(path.suffix + f".tmp.{os.getpid()}")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        return False
    return True


def _check_jsonl(path: Path):
    """Verify one JSONL store file line by line.

    Returns ``(good_lines, findings)`` where each finding is
    ``(kind, detail)``.  ``good_lines`` is the repaired content: every
    verified line, in order.
    """
    raw = path.read_text(encoding="utf-8", errors="replace")
    good: List[str] = []
    findings = []
    for number, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        record, kind = env.open_record(line)
        if record is None:
            findings.append((kind, f"line {number} unreadable"))
        else:
            good.append(line)
    return good, findings


def fsck(
    cache_root: Union[str, Path],
    *,
    repair: bool = False,
    min_tmp_age_s: float = DEFAULT_TMP_AGE_S,
    now: Optional[float] = None,
) -> dict:
    """Verify every durable artifact under ``cache_root``.

    Returns the report dict the CLI prints; every finding also bumps
    the ambient ``store.corrupt.<class>`` counter so fsck shows up on
    the same probes the online readers use.
    """
    root = Path(cache_root)
    now = time.time() if now is None else now
    report = {
        "root": str(root),
        "repair": repair,
        "scanned": {"cache_entries": 0, "tmp_files": 0, "span_files": 0,
                    "serve_snapshots": 0, "lock_files": 0},
        "corrupt": {kind: 0 for kind in env.CORRUPTION_CLASSES},
        "findings": [],
        "repaired": 0,
        "unrepaired": 0,
    }

    def finding(path: Path, store: str, kind: str, detail: str,
                action: Optional[str]) -> None:
        report["corrupt"][kind] += 1
        if action is None:
            report["unrepaired"] += 1
        else:
            report["repaired"] += 1
        try:
            shown = str(path.relative_to(root))
        except ValueError:
            shown = str(path)
        report["findings"].append({
            "path": shown, "store": store, "kind": kind,
            "detail": detail, "action": action or "none",
        })
        env.count_corruption(kind, store=store, path=shown, via="fsck")

    # -- cache entries -------------------------------------------------
    for path in sorted(root.glob("v*/??/*.pkl")):
        report["scanned"]["cache_entries"] += 1
        try:
            schema = int(path.parent.parent.name[1:])
        except ValueError:
            schema = -1
        try:
            blob = path.read_bytes()
        except OSError as exc:
            finding(path, "cache", env.TRUNCATED, f"unreadable: {exc}",
                    _quarantine(root, path, repair))
            continue
        try:
            env.unwrap(blob, schema=schema)
        except env.EnvelopeError as exc:
            finding(path, "cache", exc.kind, exc.detail,
                    _quarantine(root, path, repair))

    # -- orphan temp files from crashed writers ------------------------
    for pattern in ("v*/??/*.tmp.*", "spans/*.tmp.*"):
        for path in sorted(root.glob(pattern)):
            report["scanned"]["tmp_files"] += 1
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue
            if age < min_tmp_age_s:
                continue  # plausibly a live writer mid-rename
            finding(path, "cache", env.ORPHAN_TMP,
                    f"stale temp file ({age:.0f}s old)",
                    _quarantine(root, path, repair))

    # -- run (span) stores ----------------------------------------------
    for path in sorted(root.glob("spans/*.jsonl")):
        report["scanned"]["span_files"] += 1
        good, problems = _check_jsonl(path)
        if not problems:
            continue
        action = "rewritten" if _rewrite(path, good, repair) else None
        for kind, detail in problems:
            finding(path, "spans", kind, detail, action)

    # -- serve inflight snapshot ---------------------------------------
    inflight = root / "journal" / "serve-inflight.json"
    if inflight.exists():
        report["scanned"]["serve_snapshots"] += 1
        kind = detail = None
        try:
            doc = json.loads(inflight.read_text(encoding="utf-8",
                                                errors="replace"))
        except ValueError:
            kind, detail = env.TRUNCATED, "snapshot is not valid JSON"
        else:
            if not isinstance(doc, dict) or "requests" not in doc:
                kind, detail = env.WRONG_SCHEMA, "no requests field"
            else:
                declared = doc.get("sha256")
                if declared is not None and declared != env.snapshot_digest(
                        doc["requests"]):
                    kind = env.BIT_FLIPPED
                    detail = "snapshot sha256 mismatch"
        if kind is not None:
            finding(inflight, "serve", kind, detail,
                    _quarantine(root, inflight, repair))

    # -- lock inventory (informational) --------------------------------
    held = list(locks_mod.held_lock_files(root))
    stale = list(locks_mod.stale_lock_files(root))
    report["scanned"]["lock_files"] = len(held) + len(stale)
    report["locks"] = {"held": [p.stem for p in held], "stale": len(stale)}

    report["ok"] = report["unrepaired"] == 0
    return report


def main(argv=None) -> int:
    """``repro fsck``: verify (and optionally repair) the result store."""
    from repro.experiments.cache import default_cache_dir

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments fsck",
        description="Verify every cache entry, span store and serve "
                    "snapshot under the cache dir; classify damage "
                    "as truncated / bit_flipped / wrong_schema / "
                    "orphan_tmp.",
    )
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="store location (default: $REPRO_CACHE_DIR "
                             "or .repro-cache)")
    parser.add_argument("--repair", action="store_true",
                        help="quarantine damaged files to lost+found/ and "
                             "rewrite JSONL stores to their verified lines")
    parser.add_argument("--min-tmp-age", type=float,
                        default=DEFAULT_TMP_AGE_S, metavar="SECONDS",
                        help="treat .tmp files younger than this as live "
                             "writers, not orphans (default %(default)s)")
    parser.add_argument("--json", action="store_true",
                        help="print the full report as JSON")
    args = parser.parse_args(argv)
    root = args.cache_dir if args.cache_dir is not None else default_cache_dir()
    report = fsck(root, repair=args.repair, min_tmp_age_s=args.min_tmp_age)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        scanned = report["scanned"]
        total = sum(report["corrupt"].values())
        print(f"fsck {report['root']}: scanned "
              f"{scanned['cache_entries']} entries, "
              f"{scanned['span_files']} span files, "
              f"{scanned['tmp_files']} temp files")
        if total == 0:
            print("fsck: store is clean")
        else:
            classes = ", ".join(f"{kind}={n}" for kind, n
                                in sorted(report["corrupt"].items()) if n)
            print(f"fsck: {total} findings ({classes}); "
                  f"{report['repaired']} repaired, "
                  f"{report['unrepaired']} unrepaired")
            for item in report["findings"]:
                print(f"  [{item['kind']}] {item['path']}: "
                      f"{item['detail']} -> {item['action']}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
