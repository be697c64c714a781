#!/usr/bin/env python3
"""Self-test of the job benchmark: a short smoke of all three workloads.

Run from the repository root (takes about four minutes on 4 cores):

    python3 perfbench/selftest.py

Checks that
  * every workload, traced and untraced, exits 0 with `correct: true` and
    prints exactly the metric names and units BENCHMARK.json declares
    (`end_to_end` for --trace 0, `per_layer` for --trace 1);
  * the output gate rejects a corrupted job, untraced and traced, by
    reporting `correct: false` and a failed job.
The smoke runs use `--seconds 1`: one round over the eight datasets
untraced, one traced job traced.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's build step)

SMOKE = ["--seconds", "1", "--seed", "7"]


def result(binary, work_dir, args):
    p = subprocess.run([binary, "--work-dir", work_dir] + SMOKE + args,
                       capture_output=True, text=True)
    if p.returncode != 0:
        raise AssertionError(f"{args}: exit {p.returncode}\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    binary = run.build(build_dir)
    work_dir = os.path.join(build_dir, "selftest")
    failures = []

    def check(cond, what):
        print(("ok    " if cond else "FAIL  ") + what, flush=True)
        if not cond:
            failures.append(what)

    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in bench["workloads"]:
        for trace in (0, 1):
            r = result(binary, work_dir, ["--workload", w["name"], "--trace", str(trace)])
            tag = f"{w['name']} --trace {trace}"
            check(r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1,
                  f"{tag}: every job passes the gate ({r['attempted']} jobs)")
            printed = {k: v["unit"] for k, v in r["metrics"].items()}
            missing = sorted(set(declared[trace]) - set(printed))
            extra = sorted(set(printed) - set(declared[trace]))
            wrong = sorted(k for k in printed if k in declared[trace]
                           and printed[k] != declared[trace][k])
            check(not missing and not extra and not wrong,
                  f"{tag}: metric names and units match BENCHMARK.json"
                  f" (missing {missing}, extra {extra}, wrong unit {wrong})")

    # Job 0 is the warm-up; job 1 the first measured job; with --trace 1,
    # job 2 is the first traced job.
    r = result(binary, work_dir, ["--workload", "ecoli30x", "--trace", "0", "--corrupt-job", "1"])
    check(r["correct"] is False and r["failed"] >= 1,
          "gate rejects a corrupted run_pipeline job")
    r = result(binary, work_dir, ["--workload", "ecoli30x", "--trace", "1", "--corrupt-job", "2"])
    check(r["correct"] is False and r["failed"] >= 1,
          "gate rejects a traced job whose digest differs from run_pipeline's")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
