#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the repository root:

    python3 bench/perf/run.py --workload boot --seed 1 --seconds 10 --trace 0

The arguments are passed to bench/perf/main.exe (see README.md in this
directory). The build goes to _build_perf/ with the release profile, so
it neither disturbs nor is disturbed by a development `dune build`. A
failed build exits with status 2 and prints no result.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = "_build_perf"
TARGET = "./bench/perf/main.exe"


def main():
    if shutil.which("dune") is None:
        print("run.py: dune not found", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache=disabled",
         "--profile", "release", TARGET],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(BUILD_DIR, "default", TARGET)
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
