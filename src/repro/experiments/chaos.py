"""Chaos smoke driver: prove the run lifecycle survives induced faults.

Five phases, each a small ``fig17`` run at micro scale, exercising the
fault-tolerance machinery end to end through the public
:class:`~repro.experiments.lifecycle.RunRequest` API:

A. **retry-through-crash** — one worker crash plus one delayed job on a
   two-worker pool; the plan must complete with at least one retry.
B. **quarantine** — a job that kills its worker on every attempt; the
   run must finish the *rest* of the plan and return the partial-failure
   report naming its run id.
C. **re-run** — issue phase B's request again with the fault gone; it
   must land in phase B's run and store, serve the completed jobs from
   the cache, keep phase B's failed attempt spans, and produce a
   result byte-identical to an undisturbed run in a pristine cache.
D. **cluster worker death** — SIGKILL a live ``--backend cluster``
   worker mid-job via a kill fault; the coordinator must detect the
   lost lease, requeue the orphaned job onto a surviving worker, and
   the result must be byte-identical to a serial run in a pristine
   cache.
E. **store integrity** — damage the durable store every way it can
   break: a write path that fails (the run must complete uncached with
   the ``store.degraded`` gauge set and exactly one warning), live
   cache entries truncated and bit-flipped mid-run (the next run must
   classify each as a miss and recompute), and all four corruption
   classes injected offline for ``repro fsck --repair`` to quarantine
   — with every result byte-identical to an undisturbed serial run.

Run it as ``python -m repro.experiments.chaos --report chaos_report.json``;
CI's chaos-smoke job uploads the JSON report as an artifact.  Exit
status is non-zero when any check fails, and the report records every
check either way — chaos that fails silently is just noise.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

from repro.experiments.engine import RetryPolicy
from repro.experiments.faults import FaultPlan, FaultSpec
from repro.experiments.lifecycle import (
    RunRequest,
    execute,
    make_runner,
    resolve_jobs,
)
from repro.experiments.runner import ExperimentSettings
from repro.obs import ProbeBus
from repro.obs.spans import dedupe_spans, read_spans, span_path

EXPERIMENT_ID = "fig17"

#: Small enough for CI, large enough that the plan has three jobs to
#: crash, delay and quarantine independently.
MICRO_SETTINGS = ExperimentSettings.quick(
    memory_bytes=8 << 20,
    windows=1,
    benchmarks=("mcf", "gcc", "bzip2"),
)

#: Fast backoff so induced retries don't stretch the smoke run.
RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.01, backoff_max_s=0.05,
                    max_worker_crashes=2)


class ChaosReport:
    """Accumulates named pass/fail checks; never raises mid-phase."""

    def __init__(self):
        self.checks = []

    def check(self, phase: str, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({
            "phase": phase, "check": name, "ok": bool(ok), "detail": detail,
        })
        status = "ok" if ok else "FAIL"
        print(f"[chaos:{phase}] {name}: {status}"
              + (f" ({detail})" if detail else ""), flush=True)
        return bool(ok)

    def error(self, phase: str, exc: BaseException) -> None:
        self.check(phase, "completed without unexpected exception", False,
                   f"{type(exc).__name__}: {exc}")

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "experiment": EXPERIMENT_ID,
            "checks": self.checks,
        }


def _run(cache_dir: Path, *, jobs: Optional[int] = None,
         faults: Optional[FaultPlan] = None,
         probes: Optional[ProbeBus] = None, backend: Optional[str] = None,
         workers: Optional[int] = None):
    """One lifecycle execution; returns ``(result, runner)``."""
    request = RunRequest(experiment_id=EXPERIMENT_ID,
                         settings=MICRO_SETTINGS, probes=probes)
    runner = make_runner(
        jobs=resolve_jobs(jobs, probes),
        cache_dir=str(cache_dir),
        timeout_s=120.0,
        retry=RETRY,
        faults=faults,
        backend=backend,
        workers=workers,
    )
    try:
        result = execute(request, runner=runner)
    except BaseException:
        runner.close()
        raise
    return result, runner


def phase_a_retry(report: ChaosReport, root: Path) -> None:
    """Crash one worker once, delay another job — the run still lands."""
    faults = FaultPlan((
        FaultSpec(job_index=1, kind="crash", times=1),
        FaultSpec(job_index=2, kind="delay", delay_s=0.2),
    ))
    result, runner = _run(root / "phase-a", jobs=2, faults=faults)
    report.check("A", "run completed all jobs", not runner.failures,
                 f"failures={len(runner.failures)}")
    report.check("A", "result is not a partial-failure report",
                 "PARTIAL FAILURE" not in result.title, result.title)
    report.check("A", "crash forced at least one retry",
                 runner.stats.retries >= 1,
                 f"retries={runner.stats.retries}")
    report.check("A", "both faults were injected",
                 runner.stats.faults_injected >= 2,
                 f"faults_injected={runner.stats.faults_injected}")


def phase_b_quarantine(report: ChaosReport, root: Path) -> Optional[str]:
    """A job that kills its worker every time gets quarantined; the rest
    of the plan completes and the result names its run id."""
    faults = FaultPlan((FaultSpec(job_index=1, kind="kill", times=99),))
    result, runner = _run(root / "phase-bc", jobs=2, faults=faults)
    report.check("B", "exactly one job quarantined",
                 len(runner.failures) == 1,
                 f"failures={[f.benchmark for f in runner.failures]}")
    report.check("B", "partial-failure report returned",
                 "PARTIAL FAILURE" in result.title, result.title)
    report.check("B", "worker crashes were observed",
                 runner.stats.worker_crashes >= 1,
                 f"worker_crashes={runner.stats.worker_crashes}")
    run_id = runner.last_run_id
    report.check("B", "run id available", bool(run_id),
                 f"run_id={run_id!r}")
    report.check("B", "run id printed in report notes",
                 bool(run_id) and run_id in str(result.notes or ""),
                 str(result.notes or ""))
    if run_id:
        # the span store is flushed record by record, so the trace of
        # a faulted run is inspectable on disk even before (or
        # without) a clean finish
        spans = dedupe_spans(read_spans(
            span_path(root / "phase-bc", run_id)))
        report.check("B", "span store written for the faulted run",
                     bool(spans), f"spans={len(spans)}")
        report.check("B", "failed attempts visible as error spans",
                     any(s.get("name") == "attempt" and "error" in s
                         for s in spans))
        report.check("B", "quarantined job span recorded",
                     any(s.get("name") == "job"
                         and s.get("status") == "quarantined"
                         for s in spans))
    return run_id


def phase_c_rerun(report: ChaosReport, root: Path,
                  run_id: Optional[str]) -> None:
    """Issue phase B's request again with the fault gone: it lands in
    phase B's run and store, the completed jobs are cache hits, and the
    result matches an undisturbed run."""
    if not run_id:
        report.check("C", "run id from phase B", False,
                     "phase B produced no run id")
        return
    path = span_path(root / "phase-bc", run_id)
    failed = [s for s in read_spans(path)
              if s.get("name") == "attempt" and "error" in s]
    result, runner = _run(root / "phase-bc", jobs=2)
    report.check("C", "re-run recorded under phase B's run id",
                 runner.last_run_id == run_id,
                 f"run_id={runner.last_run_id!r}")
    report.check("C", "completed jobs served from the cache",
                 runner.stats.cache_hits >= 2,
                 f"cache_hits={runner.stats.cache_hits}")
    report.check("C", "re-run completed cleanly",
                 not runner.failures and "PARTIAL FAILURE" not in result.title,
                 result.title)
    stored = read_spans(path)
    report.check("C", "store keeps phase B's failed attempts",
                 failed and all(s in stored for s in failed),
                 f"failed_attempts={len(failed)}")

    reference, _ = _run(root / "reference")
    report.check("C", "re-run result byte-identical to undisturbed run",
                 result.to_json() == reference.to_json())


def phase_d_cluster(report: ChaosReport, root: Path) -> None:
    """SIGKILL a live cluster worker mid-job; the coordinator requeues
    the orphaned job onto a surviving worker and the final result is
    still byte-identical to a serial run in a pristine cache."""
    faults = FaultPlan((FaultSpec(job_index=1, kind="kill", times=1),))
    result, runner = _run(root / "phase-d", backend="cluster", workers=2,
                          faults=faults)
    try:
        report.check("D", "cluster run completed all jobs",
                     not runner.failures,
                     f"failures={len(runner.failures)}")
        report.check("D", "result is not a partial-failure report",
                     "PARTIAL FAILURE" not in result.title, result.title)
        report.check("D", "worker death observed mid-run",
                     runner.stats.worker_crashes >= 1,
                     f"worker_crashes={runner.stats.worker_crashes}")
    finally:
        runner.close()

    reference, _ = _run(root / "phase-d-reference", jobs=1)
    report.check("D", "cluster result byte-identical to serial run",
                 result.to_json() == reference.to_json())


def phase_e_store(report: ChaosReport, root: Path) -> None:
    """Durable-store integrity under induced damage.

    Three acts: (1) a cache whose entry directories cannot be created
    — every put fails with an OSError, the store must degrade (gauge,
    one warning) and the run must still produce correct results;
    (2) live entries truncated and bit-flipped by mid-run faults — the
    next run must classify each damaged read as a miss and recompute;
    (3) all four corruption classes injected offline, quarantined by
    ``fsck --repair``, and a final rerun byte-identical to an
    undisturbed serial run.
    """
    import warnings as warnings_mod

    from repro.experiments.cache import CACHE_SCHEMA
    from repro.store.fsck import fsck

    reference, _ = _run(root / "phase-e-reference", jobs=1)

    # -- act 1: failing write path degrades, run completes -------------
    enospc_root = root / "phase-e-enospc"
    enospc_root.mkdir(parents=True, exist_ok=True)
    # a FILE where the entry tree belongs: every put's mkdir fails with
    # an OSError, the same failure shape as ENOSPC at write time
    (enospc_root / f"v{CACHE_SCHEMA}").write_text("")
    bus = ProbeBus()
    with warnings_mod.catch_warnings(record=True) as caught:
        warnings_mod.simplefilter("always")
        degraded_result, _ = _run(enospc_root, jobs=1, probes=bus)
    degrade_warnings = [w for w in caught
                        if issubclass(w.category, RuntimeWarning)
                        and "degraded" in str(w.message)]
    report.check("E", "failed put degrades with exactly one warning",
                 len(degrade_warnings) == 1,
                 f"warnings={len(degrade_warnings)}")
    gauges = bus.snapshot().get("gauges", {})
    report.check("E", "store.degraded gauge set", "store.degraded" in gauges)
    report.check("E", "degraded run result byte-identical to reference",
                 degraded_result.to_json() == reference.to_json())

    # -- act 2: live truncation + bit flip classified on next read -----
    cache_dir = root / "phase-e-store"
    faults = FaultPlan((
        FaultSpec(job_index=0, kind="corrupt-cache"),
        FaultSpec(job_index=1, kind="bitflip-cache"),
    ))
    _run(cache_dir, jobs=1, faults=faults)
    bus = ProbeBus()
    reread_result, _ = _run(cache_dir, probes=bus)
    counters = bus.snapshot().get("counters", {})
    report.check("E", "truncated entry classified on reread",
                 counters.get("store.corrupt.truncated", 0) >= 1,
                 f"counters={counters.get('store.corrupt.truncated', 0)}")
    report.check("E", "bit-flipped entry classified on reread",
                 counters.get("store.corrupt.bit_flipped", 0) >= 1,
                 f"counters={counters.get('store.corrupt.bit_flipped', 0)}")
    report.check("E", "reread result byte-identical to reference",
                 reread_result.to_json() == reference.to_json())

    # -- act 3: all four classes injected, fsck repairs, rerun matches -
    entries = sorted(cache_dir.glob(f"v{CACHE_SCHEMA}/??/*.pkl"))
    report.check("E", "cache has entries to corrupt", len(entries) >= 2,
                 f"entries={len(entries)}")
    if len(entries) >= 2:
        blob = entries[0].read_bytes()
        entries[0].write_bytes(blob[: len(blob) // 2])       # truncated
        flipped = bytearray(entries[1].read_bytes())
        flipped[-1] ^= 0xFF
        entries[1].write_bytes(bytes(flipped))               # bit_flipped
    alien_dir = cache_dir / f"v{CACHE_SCHEMA}" / "zz"
    alien_dir.mkdir(parents=True, exist_ok=True)
    (alien_dir / ("f" * 64 + ".pkl")).write_bytes(b"no envelope here")
    (alien_dir / ("0" * 64 + ".pkl.tmp.4242")).write_bytes(b"orphan")
    fsck_report = fsck(cache_dir, repair=True, min_tmp_age_s=0.0)
    for kind in ("truncated", "bit_flipped", "wrong_schema", "orphan_tmp"):
        report.check("E", f"fsck detected {kind}",
                     fsck_report["corrupt"].get(kind, 0) >= 1,
                     f"count={fsck_report['corrupt'].get(kind, 0)}")
    report.check("E", "fsck repaired everything it found",
                 fsck_report["ok"] and fsck_report["unrepaired"] == 0,
                 f"unrepaired={fsck_report['unrepaired']}")
    report.check("E", "quarantine directory populated",
                 any((cache_dir / "lost+found").rglob("*")))
    clean = fsck(cache_dir)
    report.check("E", "store clean after repair",
                 clean["ok"] and sum(clean["corrupt"].values()) == 0)
    final_result, _ = _run(cache_dir, jobs=1)
    report.check("E", "post-repair rerun byte-identical to reference",
                 final_result.to_json() == reference.to_json())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.chaos",
        description="fault-injection smoke test of the run lifecycle",
    )
    parser.add_argument(
        "--report", metavar="PATH", default="chaos_report.json",
        help="where to write the JSON check report (default: %(default)s)",
    )
    parser.add_argument(
        "--work-dir", metavar="DIR", default=None,
        help="cache workspace (default: a fresh temporary directory)",
    )
    args = parser.parse_args(argv)

    report = ChaosReport()
    start = time.monotonic()
    if args.work_dir:
        root = Path(args.work_dir)
        root.mkdir(parents=True, exist_ok=True)
        ctx = None
    else:
        ctx = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        root = Path(ctx.name)
    try:
        try:
            phase_a_retry(report, root)
        except Exception as exc:  # noqa: BLE001 - report, don't die
            report.error("A", exc)
        run_id = None
        try:
            run_id = phase_b_quarantine(report, root)
        except Exception as exc:  # noqa: BLE001
            report.error("B", exc)
        try:
            phase_c_rerun(report, root, run_id)
        except Exception as exc:  # noqa: BLE001
            report.error("C", exc)
        try:
            phase_d_cluster(report, root)
        except Exception as exc:  # noqa: BLE001
            report.error("D", exc)
        try:
            phase_e_store(report, root)
        except Exception as exc:  # noqa: BLE001
            report.error("E", exc)
    finally:
        doc = report.to_dict()
        doc["elapsed_s"] = round(time.monotonic() - start, 3)
        Path(args.report).write_text(json.dumps(doc, indent=2) + "\n")
        if ctx is not None:
            ctx.cleanup()

    failed = [c for c in report.checks if not c["ok"]]
    print(f"[chaos] {len(report.checks) - len(failed)}/{len(report.checks)} "
          f"checks passed in {doc['elapsed_s']}s "
          f"(report: {args.report})", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
