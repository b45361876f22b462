#!/usr/bin/env python3
"""Smoke test of the benchmark: runs every workload briefly, untraced and
traced, and checks that each metric named in BENCHMARK.json is emitted,
finite and in its unit, and that fail_share is 0.

    python3 perfbench/smoke.py [--seconds S]

Run from the root of a checkout. Exits non-zero on the first failure.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {done.returncode}\n{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run(workload, trace, args.seconds)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            wanted = {m["name"]: m["unit"] for m in listed}
            got = result["metrics"]
            assert set(got) == set(wanted), f"{workload}: metrics {sorted(set(got) ^ set(wanted))}"
            for name, unit in wanted.items():
                value = got[name]["value"]
                assert got[name]["unit"] == unit, f"{workload}: {name} unit {got[name]['unit']}"
                assert isinstance(value, (int, float)) and math.isfinite(value), f"{name} = {value}"
            fail_share = result["failed"] / result["attempted"]
            assert result["correct"] and fail_share == 0, f"{workload}: fail_share {fail_share}"
            print(f"ok {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} attempted, fail_share 0")


if __name__ == "__main__":
    main()
