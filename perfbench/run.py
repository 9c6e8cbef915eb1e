#!/usr/bin/env python3
"""Builds the benchmark binary and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pgp_mnist4 --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build); cargo's output
goes to stderr. The binary's standard output is passed through, so its last
line is the result JSON. Every workload runs with one batch worker
(QOC_WORKERS=1) and without any other QOC_* setting from the environment.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("pgp_mnist4", "classical_mnist4")
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    env = {k: v for k, v in os.environ.items() if not k.startswith("QOC_")}
    env["QOC_WORKERS"] = "1"
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", os.path.abspath(os.path.join(".bench_build", "perfbench")),
    ]
    # Its own process group, so that a run that times out is stopped with
    # every process it started.
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
