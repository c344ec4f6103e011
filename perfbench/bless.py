"""Regenerate ``expected.json``: the outputs each workload must repeat.

    python3 perfbench/bless.py --seeds 0-15 [--workload NAME ...]

Runs each workload once per seed, untraced and in a fresh process,
checks the outputs against the seed-independent invariants, and stores
them.  Only re-bless when a change is *meant* to alter simulated
statistics; a speed-up must leave every one of them identical.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import EXPECTED_PATH, check, load_expected  # noqa: E402
from run import spawn  # noqa: E402
from workloads import WORKLOADS, operations  # noqa: E402


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS))
    args = parser.parse_args(argv)
    root = HERE.parent
    expected = load_expected()
    workdir = root / ".perfbench-work" / "bless"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in args.workload or list(WORKLOADS):
            for seed in args.seeds:
                record = spawn(root, workload, seed, "untraced", "full",
                               workdir, timeout_s=600)
                failed, problems = check(workload, record, None,
                                         operations(workload))
                if failed:
                    print(f"{workload} seed {seed}: {problems}",
                          file=sys.stderr)
                    return 1
                expected.setdefault(workload, {})[str(seed)] = \
                    record["outputs"]
                print(f"{workload} seed {seed}: {record['wall_s']:.1f} s",
                      flush=True)
                EXPECTED_PATH.write_text(
                    json.dumps(expected, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
