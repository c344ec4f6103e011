"""The benchmark's exact-output contract, checked in tier-1.

``perfbench`` compares every integer counter of every engine job
exactly against ``perfbench/expected.json``: a counter added to a job's
metrics snapshot, or one that moves, fails every capacity-sweep and
window-traffic operation.  This runs the first capacity-sweep job for
seed 0 through the benchmark's own workload code, unedited, so such a
change shows here as a diff that names the counter.
"""

import json
from dataclasses import replace
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_capacity_sweep_job_matches_expected(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = workloads.CapacitySweep(
        0, replace(workloads.SCALES["full"], capacities_mb=(4,)))
    workload.setup()
    outputs = workload.run()

    expected = json.loads((PERFBENCH / "expected.json").read_text())
    first_job = expected["capacity-sweep"]["0"]["jobs"][0]
    assert workloads.canonical(outputs["jobs"][0]) == workloads.canonical(
        first_job)
