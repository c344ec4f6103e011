"""Retention GC: bound the durable state without breaking live runs.

Nothing used to prune the cache: entries, manifests and run (span)
stores accumulated until the disk filled.  ``repro gc`` applies a
:class:`GCPolicy` — any combination of

* ``max_age_s`` — drop state older than this;
* ``max_bytes`` — then drop the oldest cache entries until the cache
  payload fits the budget;
* ``keep_runs`` — keep only the newest N runs' span stores
  (manifests and ``lost+found`` debris are age-pruned).

The one hard rule is *never remove state referenced by an in-progress
run's lock*: for every held lock under ``<cache>/locks/`` the run's
span store and every cache entry its store records are protected,
whatever the policy says.  Everything else is fair game — a pruned
entry just recomputes on the next run, which is the cache's ordinary
miss path.

Removal is atomic per artifact (one ``unlink`` each, oldest first), so
a GC racing a live run can never half-delete anything: the worst case
is a concurrent ``put`` re-creating an entry the sweep just removed,
which the content-addressed rename discipline already makes idempotent.

Results surface as ``store.gc.*`` gauges on the ambient probe bus and
as the JSON document the ``repro gc --json`` CLI prints.  The serving
daemon collects nothing itself: run ``repro gc`` beside it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Set, Tuple, Union

from repro.obs.spans import load_run, span_path
from repro.store import locks as locks_mod

__all__ = ["GCPolicy", "collect", "main", "parse_age"]


@dataclass(frozen=True)
class GCPolicy:
    """What ``repro gc`` is allowed to remove.

    All knobs are optional; an unset knob imposes no bound.  A policy
    with no knobs set removes nothing but still sweeps stale lock
    files and reports live sizes.
    """

    max_bytes: Optional[int] = None
    max_age_s: Optional[float] = None
    keep_runs: Optional[int] = None

    def __post_init__(self):
        if self.max_bytes is not None and self.max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        if self.max_age_s is not None and self.max_age_s < 0:
            raise ValueError("max_age_s must be >= 0")
        if self.keep_runs is not None and self.keep_runs < 0:
            raise ValueError("keep_runs must be >= 0")


def protected_state(
    cache_root: Union[str, Path],
) -> Tuple[Set[Path], Set[str]]:
    """State the current held locks pin: ``(store_paths, cache_keys)``.

    A held lock names an in-progress run (the lock file holds its full
    id); the done set of its store is exactly the cache state a rerun
    of that run would hit, so those keys must survive any sweep that
    happens mid-run.
    """
    cache_root = Path(cache_root)
    paths: Set[Path] = set()
    keys: Set[str] = set()
    for lock_path in locks_mod.held_lock_files(cache_root):
        try:
            note = lock_path.read_text(encoding="utf-8",
                                       errors="replace").strip()
        except OSError:
            note = ""
        run_id = note or lock_path.stem
        paths.add(span_path(cache_root, run_id))
        state = load_run(cache_root, run_id)
        if state is not None:
            keys.update(state.done)
            keys.update(state.failed)
    return paths, keys


def _aged(mtime: float, now: float, policy: GCPolicy) -> bool:
    return policy.max_age_s is not None and now - mtime > policy.max_age_s


def _remove(path: Path, stats: dict, group: str, size: int,
            dry_run: bool) -> None:
    if not dry_run:
        try:
            path.unlink()
        except FileNotFoundError:
            return
        except OSError:
            stats["errors"] += 1
            return
    stats["removed"][group] += 1
    stats["removed_bytes"] += size


def collect(
    cache_root: Union[str, Path],
    policy: GCPolicy,
    *,
    now: Optional[float] = None,
    dry_run: bool = False,
) -> dict:
    """Apply ``policy`` to the store under ``cache_root``.

    Returns the sweep report (counts, bytes, protections) and updates
    the ``store.gc.*`` gauges on the ambient probe bus.  ``dry_run``
    reports what would be removed without touching the disk.
    """
    from repro.obs import get_probes

    cache_root = Path(cache_root)
    now = time.time() if now is None else now
    stats = {
        "root": str(cache_root),
        "dry_run": dry_run,
        "removed": {"entries": 0, "spans": 0, "manifests": 0,
                    "lost_found": 0, "stale_locks": 0},
        "removed_bytes": 0,
        "protected_runs": 0,
        "protected_entries": 0,
        "live_entries": 0,
        "live_bytes": 0,
        "errors": 0,
    }
    protected_stores, protected_keys = protected_state(cache_root)
    stats["protected_runs"] = len(protected_stores)

    # -- cache entries: age first, then oldest-first down to max_bytes --
    entries = []
    for path in cache_root.glob("v*/??/*.pkl"):
        try:
            st = path.stat()
        except OSError:
            continue
        entries.append((st.st_mtime, st.st_size, path))
    entries.sort()
    survivors = []
    for mtime, size, path in entries:
        if path.stem in protected_keys:
            stats["protected_entries"] += 1
            survivors.append((mtime, size, path))
        elif _aged(mtime, now, policy):
            _remove(path, stats, "entries", size, dry_run)
        else:
            survivors.append((mtime, size, path))
    if policy.max_bytes is not None:
        total = sum(size for _, size, _ in survivors)
        kept = []
        for mtime, size, path in survivors:  # oldest first
            if total > policy.max_bytes and path.stem not in protected_keys:
                _remove(path, stats, "entries", size, dry_run)
                total -= size
            else:
                kept.append((mtime, size, path))
        survivors = kept
    stats["live_entries"] = len(survivors)
    stats["live_bytes"] = sum(size for _, size, _ in survivors)

    # -- runs: span stores, newest kept --------------------------------
    runs = []
    for path in (cache_root / "spans").glob("*.jsonl"):
        try:
            st = path.stat()
        except OSError:
            continue
        runs.append((st.st_mtime, st.st_size, path))
    runs.sort(reverse=True)  # newest first
    for index, (mtime, size, path) in enumerate(runs):
        if path in protected_stores:
            continue
        over_keep = (policy.keep_runs is not None
                     and index >= policy.keep_runs)
        if over_keep or _aged(mtime, now, policy):
            _remove(path, stats, "spans", size, dry_run)

    # manifests and quarantined debris age out
    for group, paths in (
        ("manifests", (cache_root / "manifests").glob("*.jsonl")),
        ("lost_found", (p for p in (cache_root / "lost+found").rglob("*")
                        if p.is_file())),
    ):
        for path in paths:
            try:
                st = path.stat()
            except OSError:
                continue
            if _aged(st.st_mtime, now, policy):
                _remove(path, stats, group, st.st_size, dry_run)

    # -- stale lock files are always safe to sweep ---------------------
    for path in locks_mod.stale_lock_files(cache_root):
        try:
            size = path.stat().st_size
        except OSError:
            continue
        if _aged(path.stat().st_mtime, now, policy) or policy.max_age_s is None:
            _remove(path, stats, "stale_locks", size, dry_run)

    probes = get_probes()
    probes.count("store.gc.sweeps")
    probes.gauge("store.gc.live_bytes", stats["live_bytes"])
    probes.gauge("store.gc.live_entries", stats["live_entries"])
    probes.gauge("store.gc.removed_bytes", stats["removed_bytes"])
    probes.gauge("store.gc.removed_files",
                 sum(stats["removed"].values()))
    probes.gauge("store.gc.protected_runs", stats["protected_runs"])
    return stats


_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def parse_age(text: str) -> float:
    """``"90"``/``"90s"``/``"15m"``/``"6h"``/``"7d"`` → seconds."""
    text = text.strip().lower()
    unit = 1.0
    if text and text[-1] in _AGE_UNITS:
        unit = _AGE_UNITS[text[-1]]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"cannot parse age {text!r}; use e.g. 90s/15m/7d")
    if value < 0:
        raise ValueError("age must be >= 0")
    return value * unit


def main(argv=None) -> int:
    """``repro gc``: apply a retention policy to the result store."""
    from repro.experiments.cache import default_cache_dir

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments gc",
        description="Prune the result cache and run (span) stores. "
                    "State referenced by an in-progress run's lock is "
                    "never removed.",
    )
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="store location (default: $REPRO_CACHE_DIR "
                             "or .repro-cache)")
    parser.add_argument("--max-bytes", type=int, default=None, metavar="N",
                        help="cache payload budget; oldest entries are "
                             "pruned until under it")
    parser.add_argument("--max-age", default=None, metavar="AGE",
                        help="drop state older than AGE (e.g. 90s, 15m, "
                             "6h, 7d)")
    parser.add_argument("--keep-runs", type=int, default=None, metavar="N",
                        help="keep only the newest N runs' span stores")
    parser.add_argument("--dry-run", action="store_true",
                        help="report what would be removed, touch nothing")
    parser.add_argument("--json", action="store_true",
                        help="print the sweep report as JSON")
    args = parser.parse_args(argv)
    try:
        max_age_s = (parse_age(args.max_age)
                     if args.max_age is not None else None)
    except ValueError as exc:
        parser.error(str(exc))
    policy = GCPolicy(max_bytes=args.max_bytes, max_age_s=max_age_s,
                      keep_runs=args.keep_runs)
    root = args.cache_dir if args.cache_dir is not None else default_cache_dir()
    stats = collect(root, policy, dry_run=args.dry_run)
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        removed: Dict[str, int] = stats["removed"]
        verb = "would remove" if args.dry_run else "removed"
        parts = [f"{n} {group}" for group, n in sorted(removed.items()) if n]
        print(f"gc: {verb} {', '.join(parts) if parts else 'nothing'} "
              f"({stats['removed_bytes']} bytes); "
              f"{stats['live_entries']} entries "
              f"({stats['live_bytes']} bytes) live, "
              f"{stats['protected_runs']} in-progress runs protected")
    if stats["errors"]:
        print(f"gc: {stats['errors']} removals failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
