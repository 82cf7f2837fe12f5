#!/usr/bin/env python3
"""Builds llb_perfbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload btree_backup --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout. The build lives in .bench_build/perfbench
and is reused by later runs. The last line of standard output is the
result object; everything before it (machine context, per-metric samples,
span totals) is for people. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("btree_backup", "btree_idle", "filestore_recovery")


def fail(message, code):
    print(message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "db", "database.h")):
        fail("perfbench: engine sources (src/) not found beside perfbench/", 2)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                fail("perfbench: cmake configure failed, see " + log_path, 3)
        jobs = str(max(1, os.cpu_count() or 1))
        if subprocess.call(["cmake", "--build", build_dir, "--target",
                            "llb_perfbench", "-j", jobs],
                           stdout=log, stderr=log) != 0:
            fail("perfbench: build failed, see " + log_path, 3)
    return os.path.join(build_dir, "llb_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="self-test sizes")
    parser.add_argument("--corrupt-backup", action="store_true",
                        help="self-test: damage the restore source")
    args = parser.parse_args()
    if args.seconds < 1:
        fail("perfbench: --seconds must be at least 1", 2)

    bench_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(bench_root):
        bench_root = os.path.join(ROOT, bench_root)
    binary = build(os.path.join(bench_root, "perfbench"))

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(bench_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.spans.tsv" % (args.workload, args.seed))]
    if args.small:
        cmd.append("--small")
    if args.corrupt_backup:
        cmd.append("--corrupt-backup")

    # A run takes --seconds plus one cycle's overshoot and a warm-up cycle.
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds * 2 + 60)
    except subprocess.TimeoutExpired:
        fail("perfbench: run timed out", 4)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("perfbench: benchmark exited with %d" % proc.returncode, 5)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("perfbench: malformed result line", 5)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
