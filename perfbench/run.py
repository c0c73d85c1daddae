#!/usr/bin/env python3
"""End-to-end benchmark of the PhoneBit engine (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds the benchmark (and the engine library, through the root CMake
project) under .bench_build/ at the repository root, runs one workload and
prints the result object as the last line of standard output. Build output
goes to standard error. Traced runs keep their Chrome trace-event JSON in
.bench_build/traces/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
TRACE_DIR = os.path.join(BUILD_ROOT, "traces")
WORKLOADS = ("yolo416", "vgg16_batch4", "serve_cascade")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the PhoneBit sources are not next to " + HERE)
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    binary = build()
    run_dir = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    try:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", run_dir]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("run exceeded %d s" % RUN_TIMEOUT_S)
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            fail("benchmark exited with code %d" % proc.returncode)
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            fail("malformed result line: " + lines[-1])
        if args.trace:
            os.makedirs(TRACE_DIR, exist_ok=True)
            for name in os.listdir(run_dir):
                if name.endswith(".json"):
                    shutil.move(os.path.join(run_dir, name),
                                os.path.join(TRACE_DIR, name))
        print("\n".join(lines[:-1]))
        print(json.dumps(result))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
