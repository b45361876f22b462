#!/usr/bin/env python3
"""Builds and runs the rfsim benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <paper_mixer|corpus_cli|serve_mix> \
        --seed N --seconds S --trace <0|1>

Builds the `rfsim-serve` daemon (rfsim workspace) and the `perfbench`
binary (its own package) in release mode under $CARGO_TARGET_DIR
(default `.bench_build`), then runs `perfbench` with the same arguments.
Build output goes to stderr; the last line on stdout is the JSON result.
Exits non-zero, printing no result, if either build or the run fails.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 175


def cargo_build(*args):
    cmd = ["cargo", "build", "--release", "--offline", "--locked", *args]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    target = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    os.environ["CARGO_TARGET_DIR"] = str(target)
    cargo_build("--manifest-path", "Cargo.toml", "-p", "rfsim-serve", "--bin", "rfsim-serve")
    cargo_build("--manifest-path", "perfbench/Cargo.toml")
    cmd = [
        str(target / "release" / "perfbench"),
        *sys.argv[1:],
        "--daemon", str(target / "release" / "rfsim-serve"),
        "--spans", str(target / "perfbench-spans"),
    ]
    # The run gets a process group of its own, so a run cut short (or
    # terminated) takes the daemons it spawned with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    run = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        sys.exit(run.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(run.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        run.wait()


if __name__ == "__main__":
    main()
