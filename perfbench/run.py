#!/usr/bin/env python3
"""perfbench entry point: build, self-test, run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. Builds perfbench/ (and the library from
src/) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs the helper self-test, then runs the workload with its fixed
configuration from perfbench/workloads.json. The last stdout line is the
result JSON. Exit codes: 0 ok, 1 answer mismatch, 2 usage or set-up
error, 3 build failure, 4 self-test failure, 5 timeout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; returns the exit code."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run_logged(configure, 300) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_logged(["cmake", "--build", build_dir, "-j", jobs], 800) == 0


def flatten(config):
    """Workload config -> --set key=value pairs for the binary."""
    out = []
    for key, value in config.items():
        if key == "why":
            continue
        if isinstance(value, dict):
            value = ",".join("%s:%s" % (k, v) for k, v in value.items())
        elif isinstance(value, list):
            value = ",".join(str(v) for v in value)
        out += ["--set", "%s=%s" % (key, value)]
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        log("unknown workload %r; known: %s" %
            (args.workload, ", ".join(workloads)))
        return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, target)),
                             "perfbench")
    if not build(build_dir):
        log("perfbench: build failed")
        return 3
    if run_logged([os.path.join(build_dir, "perfbench_selftest")], 60) != 0:
        log("perfbench: helper self-test failed")
        return 4

    workdir = os.path.join(build_dir, "run-%d" % os.getpid())
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir] + flatten(workloads[args.workload])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: %s timed out" % args.workload)
        return 5
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode not in (0, 1):
        # Set-up errors print no result; keep partial output off stdout.
        sys.stderr.write(out)
        return proc.returncode if proc.returncode > 0 else 2
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
