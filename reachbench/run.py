#!/usr/bin/env python3
"""Builds reachbench from this checkout's sources, then runs one workload.

Usage (from the root of the checkout):
  python3 reachbench/run.py --workload <index-ladder|serve-read|serve-churn>
                            --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/reachbench; a traced run writes its spans
to .bench_build/traces/<workload>.json. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Exits non-zero, without
a result, when the build fails.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "reachbench")


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(OUT, "reachbench.lock"), "w") as lock:
        # One build at a time, should two runs start together.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD, "--target", "reachbench",
                        "-j", str(os.cpu_count() or 1)],
                       stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "reachbench")


def main():
    args = sys.argv[1:]
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"reachbench: build failed: {err}", file=sys.stderr)
        return 1
    if "--workload" in args and args[args.index("--workload") + 1:]:
        workload = args[args.index("--workload") + 1]
        traces = os.path.join(OUT, "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-file", os.path.join(traces, workload + ".json")]
    sys.stdout.flush()
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
