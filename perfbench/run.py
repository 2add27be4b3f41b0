#!/usr/bin/env python3
"""Builds the program and the benchmark program from source, then runs one
workload and relays the program's report; its last line is the result JSON.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test      # the benchmark's own unit tests

Run from the repository root. The build goes to .bench_build/ there.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("sim-mec-steady", "sim-provider-zipf", "live-udp")
TARGETS = ("perfbench", "perfbench_counted", "mecdns_livewire")
# A run must end within 180 s; the build has its own, longer budget.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build(targets):
    """Configures (once) and builds `targets`; exits nonzero on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                rc = f"{type(e).__name__}: {e}"
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                sys.stderr.write(f"build failed ({rc}): {' '.join(cmd)}\n{tail}\n")
                sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        build(("perfbench_tests",))
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    build(TARGETS)
    # Traced runs link the program's counting allocator; untraced runs keep
    # the toolchain allocator.
    program = "perfbench_counted" if args.trace else "perfbench"
    cmd = [os.path.join(BUILD, program), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--server", os.path.join(BUILD, "mecdns_tools", "mecdns_livewire")]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("error: the run exceeded its time limit\n")
        rc = 1
    sys.exit(rc)


if __name__ == "__main__":
    main()
