"""Output checks: every failed check is a failed operation.

For a seed with committed expectations (``expected.json``) each
operation's outputs must equal them exactly.  For every seed, the
outputs must also satisfy what holds whatever the seed:

* every normalized value is finite and lies in [0, 1];
* refresh groups are conserved: refreshed + skipped equals
  windows x banks x AR sets x rows per AR (and the AR commands issued
  equal windows x banks x AR sets);
* after a trace replay no charged cell has outlived its retention time.

The checks compare the model with its own reference.  They do not
validate it against hardware.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import List, Optional, Tuple

from workloads import canonical

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def expected_for(expected: dict, workload: str, seed: int) -> Optional[dict]:
    return expected.get(workload, {}).get(str(seed))


def _is_ratio(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and 0.0 <= value <= 1.0)


def _conserved(refreshed: int, skipped: int, ar_commands: int,
               geometry: dict) -> bool:
    commands = geometry["windows"] * geometry["banks"] * geometry["ar_sets"]
    return (ar_commands == commands
            and refreshed + skipped == commands * geometry["rows_per_ar"])


def _job_problems(job: dict) -> List[str]:
    problems = []
    row = job.get("row")
    values = row[1:] if isinstance(row, list) else [row]
    if not values or not all(_is_ratio(v) for v in values):
        problems.append(f"{job.get('key')}: normalized value outside [0, 1]")
    counters = job.get("counters", {})
    if not _conserved(counters.get("refresh.groups_refreshed", -1),
                      counters.get("refresh.groups_skipped", -1),
                      counters.get("refresh.ar_commands", -1),
                      job["geometry"]):
        problems.append(f"{job.get('key')}: refresh groups not conserved")
    return problems


def check_engine(outputs: dict, expected: Optional[dict],
                 operations: int) -> Tuple[int, List[str]]:
    """Failed jobs of one engine run, and why."""
    jobs = outputs.get("jobs", [])
    if len(jobs) != operations:
        return operations, [f"{len(jobs)} job outputs, {operations} planned"]
    failed = 0
    problems: List[str] = []
    for index, job in enumerate(jobs):
        job_problems = _job_problems(job)
        if expected is not None and canonical(job) != canonical(
                expected["jobs"][index]):
            job_problems.append(f"{job['key']}: differs from expected")
        failed += bool(job_problems)
        problems += job_problems
    if (expected is not None and not failed
            and canonical(outputs) != canonical(expected)):
        problems.append("result table differs from expected")
        failed = operations
    return failed, problems


def check_replay(outputs: dict, expected: Optional[dict],
                 operations: int = 1) -> Tuple[int, List[str]]:
    """Whether one trace replay failed, and why."""
    problems = []
    refresh = outputs["refresh"]
    if not _conserved(refresh["groups_refreshed"], refresh["groups_skipped"],
                      refresh["ar_commands"], outputs["geometry"]):
        problems.append("refresh groups not conserved")
    if not _is_ratio(outputs["normalized_refresh"]):
        problems.append("normalized refresh outside [0, 1]")
    if outputs["integrity"] is not True:
        problems.append("a charged cell outlived its retention time")
    if expected is not None and canonical(outputs) != canonical(expected):
        problems.append("differs from expected")
    return (operations if problems else 0), problems


def check(workload: str, record: dict, expected: Optional[dict],
          operations: int) -> Tuple[int, List[str]]:
    """Failed operations of one repetition record, and why."""
    if record.get("error"):
        last = record["error"].strip().splitlines()[-1]
        return operations, [f"raised: {last}"]
    if record.get("engine", {}).get("failures"):
        return operations, ["the engine quarantined jobs"]
    outputs = record["outputs"]
    if workload == "trace-replay":
        return check_replay(outputs, expected, operations)
    return check_engine(outputs, expected, operations)
