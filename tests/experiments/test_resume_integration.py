"""Kill-and-resume acceptance: real simulations, real process death.

The headline promise of the run lifecycle: a run killed mid-plan (here
via an injected ``abort-run``/``kill`` fault) is finished by issuing it
again, into its span store, and produces a result byte-identical to a
run that was never disturbed.
"""

import signal
import subprocess
import sys
from pathlib import Path

from repro.experiments.faults import FaultPlan, FaultSpec
from repro.experiments.lifecycle import RunRequest, execute, runner_for
from repro.experiments.runner import ExperimentSettings
from repro.obs.spans import dedupe_spans, read_spans, span_path

from tests.experiments.test_metrics_capture import _deterministic

REPO_ROOT = Path(__file__).resolve().parents[2]

MICRO_KWARGS = dict(
    memory_bytes=8 << 20, windows=1, benchmarks=("mcf", "gcc")
)
MICRO = ExperimentSettings.quick(**MICRO_KWARGS)

ABORT_SCRIPT = """\
import sys
from repro.experiments.faults import FaultPlan, FaultSpec
from repro.experiments.lifecycle import RunRequest, execute
from repro.experiments.runner import ExperimentSettings

settings = ExperimentSettings.quick(
    memory_bytes=8 << 20, windows=1, benchmarks=("mcf", "gcc"))
execute(RunRequest(
    "fig17", settings=settings, jobs=1, cache_dir=sys.argv[1],
    run_id="itest-abort",
    faults=FaultPlan((FaultSpec(job_index=0, kind="abort-run"),)),
))
raise SystemExit("unreachable: the abort-run fault must SIGKILL us")
"""


def run_fig17(cache_dir, **request_overrides):
    request = RunRequest(
        "fig17", settings=MICRO, cache_dir=str(cache_dir),
        **request_overrides,
    )
    runner = runner_for(request)
    return execute(request, runner=runner), runner


class TestKillAndResume:
    def test_sigkilled_run_resumes_bit_identical(self, tmp_path):
        """SIGKILL the process after the first job lands; issuing the
        run again serves that job from the cache and the final result
        matches an undisturbed run in a pristine cache, byte for byte."""
        cache_dir = tmp_path / "killed-cache"
        proc = subprocess.run(
            [sys.executable, "-c", ABORT_SCRIPT, str(cache_dir)],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        # the span store survived the kill: its plan span binds it to
        # the plan and it holds one done job span, for the completed job
        spans = dedupe_spans(read_spans(span_path(cache_dir, "itest-abort")))
        (plan,) = [s for s in spans if s["name"] == "plan"]
        assert plan["run_id"] == "itest-abort"
        assert [s["status"] for s in spans if s["name"] == "job"] == ["done"]

        resumed, runner = run_fig17(cache_dir, jobs=1, run_id="itest-abort")
        assert runner.stats.cache_hits == 1
        assert not runner.failures

        reference, pristine = run_fig17(tmp_path / "pristine-cache", jobs=1)
        assert resumed.to_json() == reference.to_json()
        # the metrics manifest matches too, minus the run ids
        assert (_deterministic(runner.metrics_manifest())
                == _deterministic(pristine.metrics_manifest()))

        hits = [e["cache_hit"] for e in runner.manifest]
        assert hits.count(True) == 1

    def test_pool_worker_kill_is_survived(self, tmp_path):
        """A worker SIGKILLed mid-job on a two-process pool: the engine
        recycles the pool, re-runs the victim, and the result still
        matches an undisturbed serial run."""
        result, runner = run_fig17(
            tmp_path / "chaos-cache", jobs=2,
            faults=FaultPlan((FaultSpec(job_index=0, kind="kill",
                                        times=1),)),
        )
        assert not runner.failures
        assert runner.stats.worker_crashes >= 1
        assert runner.stats.faults_injected >= 1

        reference, _ = run_fig17(tmp_path / "pristine-cache", jobs=1)
        assert result.to_json() == reference.to_json()
