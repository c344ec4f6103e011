"""Smoke tests: every example script runs to completion.

Examples are the user-facing contract; these tests execute them as
subprocesses (smallest practical arguments) so a refactor cannot break
them silently.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name, *args, timeout=240):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout,
    )


class TestExamples:
    def test_custom_codec(self):
        proc = run_example("custom_codec.py")
        assert proc.returncode == 0, proc.stderr
        assert "round trip exact" in proc.stdout

    def test_analyze_image(self):
        proc = run_example("analyze_image.py")
        assert proc.returncode == 0, proc.stderr
        assert "measured refresh reduction" in proc.stdout

    @pytest.mark.slow
    def test_quickstart(self):
        proc = run_example("quickstart.py")
        assert proc.returncode == 0, proc.stderr
        assert "normalized refresh ops" in proc.stdout
        assert "OK" in proc.stdout

    @pytest.mark.slow
    def test_trace_driven(self):
        proc = run_example("trace_driven.py")
        assert proc.returncode == 0, proc.stderr
        assert "integrity: OK" in proc.stdout
        # the LLC's fill and writeback stream, which feeds the codec
        assert "DRAM traffic: 18831 fills, 3714 writebacks" in proc.stdout
        assert "LLC: hit rate 74.0%, 3714 writebacks" in proc.stdout

    @pytest.mark.slow
    def test_benchmark_sweep_tiny(self):
        proc = run_example("benchmark_sweep.py", "--memory-mb", "4",
                           "--windows", "1", timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert "suite average reduction" in proc.stdout

    def test_paper_figures(self):
        proc = run_example("paper_figures.py", "sram", "tab01", "--quick")
        assert proc.returncode == 0, proc.stderr
        assert "[sram]" in proc.stdout
        # sram is one design-point job, tab01 one job per trace
        assert "engine: 4 jobs" in proc.stdout

    @pytest.mark.slow
    def test_datacenter_provisioning(self):
        proc = run_example("datacenter_provisioning.py", timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert "integrity: OK" in proc.stdout
