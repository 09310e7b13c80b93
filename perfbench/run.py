#!/usr/bin/env python3
"""Builds the EDDE library and the edde_perfbench binary from this
checkout, then runs one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the checkout. The build goes to .bench_build/ there
(configured once, rebuilt incrementally); a checkout without the library
sources fails the build, and the script then exits non-zero without a
result. The last line of standard output is the run's JSON result (see
perfbench/README.md); the exit code is 0 only when every output check
passed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

# Every knob that changes what a workload measures is pinned here, so a run
# never depends on the caller's environment: the pool size (kept small:
# more pool threads than two make a 4-vCPU VM's host steal dominate) and,
# for serving, the number of batch workers.
WORKLOADS = {
    "train-edde-resnet": {"threads": 2, "workers": 1},
    "serve-open-cascade": {"threads": 2, "workers": 2},
}

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    """Configures (first time only) and builds edde_perfbench.

    Returns the binary's path, or None when the build fails.
    """
    os.makedirs(build_dir, exist_ok=True)
    # Concurrent runs in one checkout must not build over each other.
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                          "-B", build_dir])
        steps.append(["cmake", "--build", build_dir, "-j", "4"])
        for step in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
            if done.returncode != 0:
                return None
    return os.path.join(build_dir, "edde_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    binary = build(root, build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    pinned = WORKLOADS[args.workload]
    env = {k: v for k, v in os.environ.items() if not k.startswith("EDDE_")}
    env["EDDE_NUM_THREADS"] = str(pinned["threads"])
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace_path",
           os.path.join(build_dir, "trace-%s.json" % args.workload),
           "--workers", str(pinned["workers"])]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3

    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        print("perfbench: edde_perfbench printed no result", file=sys.stderr)
        return proc.returncode or 4
    print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
