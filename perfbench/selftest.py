#!/usr/bin/env python3
"""Self-tests for the benchmark, at short sizes.

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, must report correct results and
   exactly the metrics BENCHMARK.json declares.
2. With one page of the restore source corrupted, every workload must
   report incorrect results, and the failures must name the restore.
3. Without the engine sources next to it, run.py must fail without
   printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("btree_backup", "btree_idle", "filestore_recovery")


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "2", "--trace", str(trace), "--small", *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(workload, trace)
            name = "%s trace=%d" % (workload, trace)
            if proc.returncode != 0:
                expect(False, name + ": exit %d\n%s" % (proc.returncode,
                                                       proc.stderr[-2000:]))
                continue
            result, _ = result_of(proc)
            expect(result["correct"] and result["failed"] == 0 and
                   result["attempted"] > 0, name + ": correct")
            expect(set(result["metrics"]) == declared[trace],
                   name + ": declared metrics")

    for workload in WORKLOADS:
        proc = run(workload, 0, "--corrupt-backup")
        name = workload + " corrupted backup"
        if proc.returncode != 0:
            expect(False, name + ": exit %d" % proc.returncode)
            continue
        result, lines = result_of(proc)
        details = json.loads(next(l for l in lines
                                  if l.startswith('{"details"')))["details"]
        caught = any("restore" in f for f in details["failures"])
        expect(not result["correct"] and result["failed"] > 0 and caught,
               name + ": restore check catches it")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "btree_idle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180, env={k: v for k, v in os.environ.items()
                          if k != "CARGO_TARGET_DIR"})
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "no engine sources: fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
