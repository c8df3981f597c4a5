#!/usr/bin/env python3
"""Builds the HOPE benchmark from source and runs it.

    python3 perfbench/run.py --workload <stream|rollback|commit|wire> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default: perfbench/target); its output goes to standard error, so the
last line of standard output is the benchmark's JSON result. The
simulator workloads run pinned to one CPU: the simulator runs one thread
at a time, and unpinned its scheduler/process handoffs flip between
same-core and cross-core wake-ups mid-run, which moves wall time by
about 60% at random (see README.md).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SIMULATOR_WORKLOADS = {"stream", "rollback"}


def main():
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "hope-perfbench")
    args = sys.argv[1:]
    if "--workload" in args[:-1]:
        workload = args[args.index("--workload") + 1]
        if workload in SIMULATOR_WORKLOADS:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
