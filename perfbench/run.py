#!/usr/bin/env python3
"""End-to-end diBELLA job benchmark: build, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload ecoli30x --seed 1 --seconds 10 --trace 0

Builds the `perfbench_job` binary (and the repository's `dibella_core`
library it links) with CMake into `$CARGO_TARGET_DIR/perfbench`
(default `.bench_build/perfbench`), then runs it with the given arguments.
Build output goes to stderr; the last stdout line is the binary's JSON
result. Exits non-zero, printing no result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure (once) and build perfbench_job; returns the binary path."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench_job", "-j4"],
        stdout=log, stderr=log, check=True)
    return os.path.join(build_dir, "perfbench_job")


def main(argv):
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    work_dir = os.path.join(build_dir, "work")
    return subprocess.run([binary, "--work-dir", work_dir] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
