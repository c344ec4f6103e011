"""Span-tree propagation properties across fan-out, faults and reruns.

The tentpole guarantee of :mod:`repro.obs.spans`: the reconstructed
span tree — parentage and phase names, never timings — is a pure
function of the *work*, not of the execution strategy.  ``--jobs 4``
must yield the same tree as ``--jobs 1``; a SIGKILLed run issued again
must fold (via deterministic span ids) into the same tree as a run
that was never disturbed.
"""

import signal
import subprocess
import sys
from pathlib import Path

from repro.experiments.faults import FaultPlan, FaultSpec
from repro.experiments.lifecycle import RunRequest, execute, make_runner
from repro.experiments.runner import ExperimentSettings
from repro.obs.spans import (
    PHASE_NAMES,
    dedupe_spans,
    read_spans,
    span_path,
    span_tree,
    tree_signature,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

MICRO = ExperimentSettings.quick(
    memory_bytes=8 << 20, windows=1, benchmarks=("mcf", "gcc")
)

ABORT_SCRIPT = """\
import sys
from repro.experiments.faults import FaultPlan, FaultSpec
from repro.experiments.lifecycle import RunRequest, execute, make_runner
from repro.experiments.runner import ExperimentSettings

settings = ExperimentSettings.quick(
    memory_bytes=8 << 20, windows=1, benchmarks=("mcf", "gcc"))
execute(RunRequest("fig17", settings=settings, run_id="span-abort"),
        runner=make_runner(
            jobs=1, cache_dir=sys.argv[1],
            faults=FaultPlan((FaultSpec(job_index=0, kind="abort-run"),))))
raise SystemExit("unreachable: the abort-run fault must SIGKILL us")
"""


def run_fig17(cache_dir, run_id=None, **policy):
    """fig17 on a runner built from ``policy`` (``make_runner``
    keywords) into ``cache_dir``; returns ``(result, runner)``."""
    request = RunRequest("fig17", settings=MICRO, run_id=run_id)
    runner = make_runner(cache_dir=str(cache_dir), **policy)
    return execute(request, runner=runner), runner


def stored_spans(cache_dir, run_id):
    return dedupe_spans(read_spans(span_path(Path(cache_dir), run_id)))


class TestFanOutTreeIdentity:
    def test_jobs4_tree_matches_jobs1_with_injected_crash(self, tmp_path):
        """The acceptance criterion: one injected crash on a four-way
        pool — the reconstructed tree (parentage + names) matches the
        serial run's, and the retry is visible in it."""
        faults = FaultPlan((FaultSpec(job_index=1, kind="crash", times=1),))
        _, serial = run_fig17(tmp_path / "serial", jobs=1,
                              faults=faults)
        _, pooled = run_fig17(tmp_path / "pooled", jobs=4,
                              faults=faults)

        serial_spans = stored_spans(tmp_path / "serial",
                                    serial.last_run_id)
        pooled_spans = stored_spans(tmp_path / "pooled",
                                    pooled.last_run_id)
        assert serial_spans and pooled_spans
        assert tree_signature(serial_spans) == tree_signature(pooled_spans)

        # one failed attempt span (the injected crash) in both trees,
        # with the same deterministic span id
        def failed(spans):
            return [s for s in spans
                    if s["name"] == "attempt" and "error" in s]

        (serial_fail,), (pooled_fail,) = (failed(serial_spans),
                                          failed(pooled_spans))
        assert serial_fail["span_id"] == pooled_fail["span_id"]
        assert serial_fail["q"] == "1"
        # the retried job carries both attempts under one job span
        (tree,) = span_tree(pooled_spans)
        retried = [n for n in tree["children"] if n["name"] == "job"
                   and len([c for c in n["children"]
                            if c["name"] == "attempt"]) == 2]
        assert len(retried) == 1

    def test_kernel_phases_attach_under_attempts(self, tmp_path):
        _, runner = run_fig17(tmp_path / "cache", jobs=2)
        spans = stored_spans(tmp_path / "cache", runner.last_run_id)
        (tree,) = span_tree(spans)
        attempts = [c for job in tree["children"] if job["name"] == "job"
                    for c in job["children"] if c["name"] == "attempt"]
        assert attempts
        for attempt in attempts:
            names = {c["name"] for c in attempt["children"]}
            assert set(PHASE_NAMES) <= names

    def test_warm_rerun_emits_cached_spans(self, tmp_path):
        """A warm rerun into the cold run's store emits no job or
        attempt span: the store keeps the cold run's ``done`` job spans
        and attempts.  A warm run under another run id records one
        ``cached`` job span per unique job — the run's done set — with
        no attempt children (nothing executed)."""
        _, first = run_fig17(tmp_path / "cache", jobs=2)
        _, second = run_fig17(tmp_path / "cache", jobs=2)
        assert second.stats.cache_hits >= 1
        assert second.stats.cache_misses == 0
        run_spans = [r for r in second.span_records if r["name"] == "run"]
        assert run_spans and run_spans[0]["cache_hits"] >= 1
        assert not any(r["name"] in ("job", "attempt")
                       for r in second.span_records)

        def named(records, name):
            return {r["span_id"]: r for r in records if r["name"] == name}

        stored = stored_spans(tmp_path / "cache", first.last_run_id)
        cold = named(first.span_records, "job")
        assert named(stored, "job") == cold
        assert {r["status"] for r in cold.values()} == {"done"}
        assert (named(stored, "attempt")
                == named(first.span_records, "attempt"))

        _, other = run_fig17(tmp_path / "cache", jobs=2, run_id="warm")
        warm = named(other.span_records, "job")
        assert len(warm) == len(cold)
        assert {r["status"] for r in warm.values()} == {"cached"}
        assert not any(r["name"] == "attempt" for r in other.span_records)


class TestKillResumeTreeIdentity:
    def test_resumed_tree_matches_undisturbed_run(self, tmp_path):
        """SIGKILL mid-plan, then issue the run again: dedup-by-span-id
        folds the two partial traces into exactly the undisturbed run's
        tree."""
        cache_dir = tmp_path / "killed-cache"
        proc = subprocess.run(
            [sys.executable, "-c", ABORT_SCRIPT, str(cache_dir)],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr

        # the per-record flush left the completed job's spans on disk
        # even though the process never reached a clean close
        killed = stored_spans(cache_dir, "span-abort")
        assert any(s["name"] == "job" for s in killed)
        assert not any(s["name"] == "run" for s in killed)  # no root yet

        _, resumed = run_fig17(cache_dir, jobs=1, run_id="span-abort")
        assert resumed.stats.cache_hits == 1

        _, pristine = run_fig17(tmp_path / "pristine-cache", jobs=1,
                                run_id="span-abort")
        resumed_spans = stored_spans(cache_dir, "span-abort")
        pristine_spans = stored_spans(tmp_path / "pristine-cache",
                                      "span-abort")
        assert (tree_signature(resumed_spans)
                == tree_signature(pristine_spans))
        # a cache hit whose done span the store already holds emits no
        # fresh one; the span from before the kill stays, deduped under
        # the same id
        assert (sorted(s["span_id"] for s in resumed_spans)
                == sorted(s["span_id"] for s in pristine_spans))
